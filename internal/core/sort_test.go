package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// cmpABD is the (A, B, D) order the kernel's SortShardItems must match.
func cmpABD(x, y ShardItem) int {
	if c := cmp.Compare(x.A, y.A); c != 0 {
		return c
	}
	if c := cmp.Compare(x.B, y.B); c != 0 {
		return c
	}
	return cmp.Compare(x.D, y.D)
}

// cmpSupportDesc is the descending-count order of SortShardItemsBySupport.
func cmpSupportDesc(x, y ShardItem) int { return cmp.Compare(y.N, x.N) }

// TestRadixSortDifferential: the radix kernel agrees with the standard
// library's comparison sorts on random inputs that stress every digit —
// symbol IDs crossing byte boundaries up to MaxSymbols-1, wildcard and
// large distances, counts above 2^32 — and keeps
// the input order of equal keys (stability), at every small length.
func TestRadixSortDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	syms := []func() uint32{
		func() uint32 { return uint32(r.Intn(3)) },                     // one byte, many ties
		func() uint32 { return uint32(250 + r.Intn(20)) },              // crosses the first byte
		func() uint32 { return uint32(r.Intn(20000)) },                 // a TreeBASE-sized table
		func() uint32 { return uint32(MaxSymbols - 1 - r.Intn(1000)) }, // the top of the ID space
		func() uint32 { return uint32(r.Intn(MaxSymbols)) },
	}
	dists := []func() Dist{
		func() Dist { return Dist(r.Intn(int(MaxPackedDist) + 1)) },
		func() Dist { return DistWild },
		func() Dist { return Dist(r.Intn(4)) - 1 }, // wildcard mixed with distances
		func() Dist { return D(14) + Dist(r.Intn(1000)) },
		func() Dist { return Dist(r.Int63() - r.Int63()) },
	}
	counts := []func() int64{
		func() int64 { return 1 + int64(r.Intn(3)) }, // many equal counts
		func() int64 { return 1 + r.Int63n(1<<40) },  // counts past 2^32
		func() int64 { return r.Int63() - r.Int63() },
	}
	for _, n := range []int{0, 1, 2, 3, 17, 300, 5000} {
		for si, sym := range syms {
			for di, dist := range dists {
				for ci, count := range counts {
					items := make([]ShardItem, n)
					for i := range items {
						a, b := sym(), sym()
						items[i] = ShardItem{A: min(a, b), B: max(a, b), D: dist(), N: count()}
					}
					check := func(name string, kernel func([]ShardItem), cmpf func(x, y ShardItem) int) {
						got := slices.Clone(items)
						kernel(got)
						stable := slices.Clone(items)
						slices.SortStableFunc(stable, cmpf)
						if !slices.Equal(got, stable) {
							t.Fatalf("%s n=%d sym#%d dist#%d count#%d: kernel differs from slices.SortStableFunc", name, n, si, di, ci)
						}
						unstable := slices.Clone(items)
						slices.SortFunc(unstable, cmpf)
						for i := range got {
							if cmpf(got[i], unstable[i]) != 0 {
								t.Fatalf("%s n=%d: key order differs from slices.SortFunc at #%d", name, n, i)
							}
						}
					}
					check("(A, B, D)", SortShardItems, cmpABD)
					check("support", SortShardItemsBySupport, cmpSupportDesc)
				}
			}
		}
	}
}
