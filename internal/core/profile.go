package core

import (
	"fmt"
	"sort"
)

// Posting is one entry of a Profile: a packed item key and its projected
// occurrence count.
type Posting struct {
	Key IKey
	N   int32
}

// Profile is a tree's cousin-pair item multiset projected under one
// Variant and frozen into a sorted posting list with a cached total.
// Freezing happens once per tree; after that, the tree distance between
// two profiles is a single allocation-free linear merge-join
// (TDistProfiles) instead of the per-pair map rebuilds and hash probes
// that TDistItems/TDistISets pay. This is the flat per-object summary
// that all-pairs work wants: TreeMiner's scope lists and FREQT's
// per-tree occurrence lists play the same role.
//
// Postings are IKeys over one Symbols table; profiles built over
// different tables cannot be compared. Profiles are immutable once built
// and safe for concurrent reads.
type Profile struct {
	posts []Posting // sorted ascending by Key
	total int64     // multiset cardinality of the projected view
}

// Len returns the number of distinct postings.
func (p *Profile) Len() int { return len(p.posts) }

// Total returns the multiset cardinality of the projected view (the
// |cpi(T)| the tdist denominator uses).
func (p *Profile) Total() int64 { return p.total }

// NewProfileISet freezes an interned item multiset (all keys from one
// Symbols table) into a profile under the variant. The projection
// mirrors ISet.view but lands directly in the sorted posting list, with
// no intermediate map.
func NewProfileISet(s ISet, v Variant) *Profile {
	p := &Profile{}
	if len(s) == 0 {
		return p
	}
	posts := make([]Posting, 0, len(s))
	for k, n := range s {
		switch v {
		case VariantLabel, VariantOccur:
			a, b := k.Syms()
			c := n
			if v == VariantLabel {
				c = 1
			}
			posts = append(posts, Posting{Key: NewIKey(a, b, DistWild), N: c})
		case VariantDist:
			posts = append(posts, Posting{Key: k, N: 1})
		case VariantDistOccur:
			posts = append(posts, Posting{Key: k, N: n})
		default:
			panic(fmt.Sprintf("core: unknown variant %d", int(v)))
		}
	}
	sort.Slice(posts, func(i, j int) bool { return posts[i].Key < posts[j].Key })
	// Compact runs of equal keys (distinct distances collapsing onto one
	// wildcard key): counts sum, and set-valued views clamp to 1 —
	// exactly the IgnoreDist/IgnoreOccur composition of Variant.view.
	out := posts[:0]
	for _, pt := range posts {
		if len(out) > 0 && out[len(out)-1].Key == pt.Key {
			out[len(out)-1].N += pt.N
			continue
		}
		out = append(out, pt)
	}
	if v == VariantLabel {
		for i := range out {
			out[i].N = 1
		}
	}
	p.posts = out
	for _, pt := range out {
		p.total += int64(pt.N)
	}
	return p
}

// TDistProfiles is the cousin-based tree distance of Eq. 6 computed from
// two frozen profiles of the same variant by a linear merge-join over
// their sorted posting lists: Σ min over shared keys gives |∩|, and
// |∪| = total₁ + total₂ − |∩|. It allocates nothing and never hashes —
// the all-pairs hot path of TDistMatrixParallel and the kernel search
// runs entirely here. Both profiles must be built over the same Symbols
// table.
func TDistProfiles(p, q *Profile) float64 {
	var inter int64
	a, b := p.posts, q.posts
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ka, kb := a[i].Key, b[j].Key
		switch {
		case ka < kb:
			i++
		case ka > kb:
			j++
		default:
			n := a[i].N
			if b[j].N < n {
				n = b[j].N
			}
			inter += int64(n)
			i++
			j++
		}
	}
	union := p.total + q.total - inter
	if union == 0 {
		return 0
	}
	return 1 - float64(inter)/float64(union)
}
