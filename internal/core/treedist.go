package core

import (
	"fmt"

	"treemine/internal/tree"
)

// Variant selects which components of a cousin pair item participate in
// the cousin-based tree distance (§5.3 of the paper): the cousin distance
// and/or the occurrence count may each be wildcarded, giving four
// measures.
type Variant int

const (
	// VariantLabel considers neither cousin distance nor occurrence:
	// items are bare label pairs (the paper's tdist_label).
	VariantLabel Variant = iota
	// VariantDist considers the cousin distance only (tdist_dist).
	VariantDist
	// VariantOccur considers the occurrence count only (tdist_occ).
	VariantOccur
	// VariantDistOccur considers both (tdist_{occ,dist}); this is the
	// variant the paper's kernel-tree experiment uses.
	VariantDistOccur
)

// String returns the paper's name for the variant.
func (v Variant) String() string {
	switch v {
	case VariantLabel:
		return "tdist_label"
	case VariantDist:
		return "tdist_dist"
	case VariantOccur:
		return "tdist_occ"
	case VariantDistOccur:
		return "tdist_{occ,dist}"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// view projects an item set to the variant's components.
func (v Variant) view(s ItemSet) ItemSet {
	switch v {
	case VariantLabel:
		return s.LabelPairs()
	case VariantDist:
		return s.IgnoreOccur()
	case VariantOccur:
		return s.IgnoreDist()
	case VariantDistOccur:
		return s
	default:
		panic(fmt.Sprintf("core: unknown variant %d", int(v)))
	}
}

// TDist is the cousin-based tree distance of Eq. 6:
//
//	tdist(T1, T2) = 1 − |cpi(T1) ∩ cpi(T2)| / |cpi(T1) ∪ cpi(T2)|
//
// where cpi is the cousin pair item multiset projected per the variant,
// ∩/∪ follow the paper's footnote 2 (min/max of occurrence counts), and
// |·| is the multiset cardinality (sum of counts). The result is in
// [0, 1]: 0 for trees with identical item sets, 1 for trees sharing no
// items. Unlike Robinson–Foulds it is defined for trees over different
// taxa sets, which is what makes it usable for kernel-tree and supertree
// work. Two trees with empty item sets (e.g. single nodes) are at
// distance 0.
func TDist(t1, t2 *tree.Tree, v Variant, opts Options) float64 {
	// Intern both trees into one table so the whole computation —
	// mining, projection, ∩/∪ — runs on integer keys.
	syms := NewSymbols()
	syms.InternTree(t1)
	syms.InternTree(t2)
	return TDistISets(MineISet(t1, opts, syms), MineISet(t2, opts, syms), v)
}

// TDistItems computes the tree distance from pre-mined item sets; use it
// when computing many pairwise distances over the same trees.
func TDistItems(s1, s2 ItemSet, v Variant) float64 {
	a, b := v.view(s1), v.view(s2)
	// Σ min over shared keys gives |∩|; |∪| follows from
	// min(x,y) + max(x,y) = x + y without materializing either multiset.
	inter := 0
	for k, n := range a {
		if m, ok := b[k]; ok {
			if m < n {
				n = m
			}
			inter += n
		}
	}
	union := a.Total() + b.Total() - inter
	if union == 0 {
		return 0
	}
	return 1 - float64(inter)/float64(union)
}

// TDistISets is TDistItems over interned item sets (both projected from
// the same Symbols table): the pairwise-distance hot path of the kernel
// search runs here, on packed integer keys.
func TDistISets(s1, s2 ISet, v Variant) float64 {
	a, b := s1.view(v), s2.view(v)
	var inter int64
	for k, n := range a {
		if m, ok := b[k]; ok {
			if m < n {
				n = m
			}
			inter += int64(n)
		}
	}
	union := a.Total() + b.Total() - inter
	if union == 0 {
		return 0
	}
	return 1 - float64(inter)/float64(union)
}
