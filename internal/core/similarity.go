package core

import (
	"sort"

	"treemine/internal/tree"
)

// Sim is the paper's similarity score σ(C, T) between a consensus tree C
// and a source tree T (Eq. 4): over all cousin pairs cp whose label pair
// occurs in both trees,
//
//	σ(C, T) = Σ 1 / (1 + |cdist_C(cp) − cdist_T(cp)|)
//
// A shared pair at identical distances contributes 1; pairs at diverging
// distances contribute less. When a label pair occurs at several
// distances within one tree, the smallest distance represents it (the
// paper's worked example uses each pair once; the minimum is the closest
// kinship the tree asserts for the pair).
func Sim(c, t *tree.Tree, opts Options) float64 {
	syms := NewSymbols()
	syms.InternTree(c)
	syms.InternTree(t)
	return simISets(MineISet(c, opts, syms), MineISet(t, opts, syms))
}

// SimItems computes σ from two pre-mined item sets; use it when scoring
// one consensus tree against many source trees to avoid re-mining the
// consensus tree each time.
func SimItems(ci, ti ItemSet) float64 {
	cMin := minDistIndex(ci)
	tMin := minDistIndex(ti)
	// Collect the per-pair contributions and sum them in sorted order so
	// the result is independent of map iteration order (float addition is
	// not associative) and σ(C,T) == σ(T,C) exactly.
	var terms []float64
	for pair, dc := range cMin {
		dt, ok := tMin[pair]
		if !ok {
			continue
		}
		diff := (dc - dt).Float()
		if diff < 0 {
			diff = -diff
		}
		terms = append(terms, 1/(1+diff))
	}
	sort.Float64s(terms)
	sum := 0.0
	for _, v := range terms {
		sum += v
	}
	return sum
}

// minDistIndex maps each label pair of s to its smallest cousin distance.
func minDistIndex(s ItemSet) map[[2]string]Dist {
	out := make(map[[2]string]Dist, len(s))
	for k := range s {
		if k.D.IsWild() {
			continue
		}
		p := [2]string{k.A, k.B}
		if d, ok := out[p]; !ok || k.D < d {
			out[p] = k.D
		}
	}
	return out
}

// simISets is SimItems on interned item sets sharing one symbol table:
// the per-pair minimum distances and the matching run on packed keys, so
// scoring allocates only the index maps and the term slice.
func simISets(ci, ti ISet) float64 {
	cMin := minDistISet(ci)
	tMin := minDistISet(ti)
	var terms []float64
	for pair, dc := range cMin {
		dt, ok := tMin[pair]
		if !ok {
			continue
		}
		diff := (dc - dt).Float()
		if diff < 0 {
			diff = -diff
		}
		terms = append(terms, 1/(1+diff))
	}
	sort.Float64s(terms)
	sum := 0.0
	for _, v := range terms {
		sum += v
	}
	return sum
}

// minDistISet maps each symbol pair of s (keyed with the wildcard
// distance) to its smallest concrete cousin distance.
func minDistISet(s ISet) map[IKey]Dist {
	out := make(map[IKey]Dist, len(s))
	for k := range s {
		kd := k.Dist()
		if kd.IsWild() {
			continue
		}
		a, b := k.Syms()
		p := NewIKey(a, b, DistWild)
		if d, ok := out[p]; !ok || kd < d {
			out[p] = kd
		}
	}
	return out
}

// AvgSim is the paper's average similarity score σ̄(C, S) of a consensus
// tree C with respect to the set S of source trees it was derived from
// (Eq. 5): the mean of σ(C, T) over T ∈ S. Higher is better; the paper
// uses this to rank the five classical consensus methods. AvgSim returns
// 0 for an empty set.
func AvgSim(c *tree.Tree, set []*tree.Tree, opts Options) float64 {
	if len(set) == 0 {
		return 0
	}
	syms := NewSymbols()
	syms.InternTree(c)
	for _, t := range set {
		syms.InternTree(t)
	}
	ci := MineISet(c, opts, syms)
	sum := 0.0
	for _, t := range set {
		sum += simISets(ci, MineISet(t, opts, syms))
	}
	return sum / float64(len(set))
}
