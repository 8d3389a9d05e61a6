package core

import (
	"fmt"
	"math/rand"
	"testing"

	"treemine/internal/tree"
	"treemine/internal/treegen"
)

// cellKey identifies one accumulated item as an accumulator reports it,
// distance slot unpacked.
type cellKey struct {
	a, b uint32
	dc   int
}

// accumVia mines t through one accumulate strategy into a plain map.
func accumVia(t *tree.Tree, opts Options, syms *Symbols, run func(*miner, *accum)) map[cellKey]int32 {
	m := getMiner(t, opts, syms)
	defer m.release()
	out := map[cellKey]int32{}
	if m.maxJ == 0 {
		return out
	}
	m.acc.init(syms.Len(), m.nd)
	run(m, &m.acc)
	m.acc.drain(func(a, b uint32, dc int, n int32) {
		out[cellKey{a: a, b: b, dc: dc}] += n
	})
	return out
}

// oracleCells aggregates forEachPair (via MinePairs, the exact node-pair
// oracle) into the same map shape as accumVia.
func oracleCells(t *tree.Tree, opts Options, syms *Symbols) map[cellKey]int32 {
	out := map[cellKey]int32{}
	for _, pr := range MinePairs(t, opts) {
		su, ok1 := syms.Lookup(t.MustLabel(pr.U))
		sv, ok2 := syms.Lookup(t.MustLabel(pr.V))
		if !ok1 || !ok2 {
			panic("test: label missing from table")
		}
		if sv < su {
			su, sv = sv, su
		}
		out[cellKey{a: su, b: sv, dc: int(pr.D)}]++
	}
	return out
}

func diffCells(t *testing.T, name string, got, want map[cellKey]int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d items, oracle has %d", name, len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("%s: item %+v = %d, oracle %d", name, k, got[k], n)
			return
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: extra item %+v", name, k)
			return
		}
	}
}

// TestLevelVecDifferential quick-checks the symbol-vector accumulation
// (the blocked production path) and the seed pair enumeration
// bit-for-bit against the forEachPair oracle over random tree shapes, at
// MaxDist = D(14), the old 4-bit distance field's bound, and one past it
// (more distance slots).
func TestLevelVecDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := []treegen.Params{
		{TreeSize: 120, Fanout: 5, AlphabetSize: 120}, // fig6-like: mostly distinct labels
		{TreeSize: 120, Fanout: 5, AlphabetSize: 6},   // label-dense
		{TreeSize: 150, Fanout: 40, AlphabetSize: 10}, // hub: wide sibling sets
		{TreeSize: 80, Fanout: 2, AlphabetSize: 4},    // deep: exercises high levels
		{TreeSize: 1, Fanout: 1, AlphabetSize: 1},     // degenerate
	}
	for _, p := range shapes {
		for trial := 0; trial < 3; trial++ {
			tr := treegen.Fanout(rng, p)
			for _, md := range []Dist{D(14), D(15)} {
				opts := Options{MaxDist: md, MinOccur: 1}
				syms := NewSymbols()
				syms.InternTree(tr)
				name := fmt.Sprintf("%+v md=%d trial=%d", p, md, trial)
				want := oracleCells(tr, opts, syms)
				blocked := accumVia(tr, opts, syms, func(m *miner, ac *accum) {
					if ac.dense == nil {
						t.Fatalf("%s: expected dense mode", name)
					}
					m.accumulateBlocked(ac)
				})
				diffCells(t, name+" blocked", blocked, want)
				pairs := accumVia(tr, opts, syms, func(m *miner, ac *accum) {
					m.accumulatePairs(ac)
				})
				diffCells(t, name+" pairs", pairs, want)
			}
		}
	}
}

// TestLevelVecDifferentialMapMode pins the dispatcher at the other
// accumulator mode: a shared symbol table big enough to push the
// accumulator to map mode must give the same items through the public
// MineISet as through a per-tree dense table.
func TestLevelVecDifferentialMapMode(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tr := treegen.Fanout(rng, treegen.Params{TreeSize: 150, Fanout: 5, AlphabetSize: 100})
	opts := Options{MaxDist: D(14), MinOccur: 1}

	big := NewSymbols()
	for i := 0; i < 3000; i++ {
		big.Intern(fmt.Sprintf("pad%d", i))
	}
	big.InternTree(tr)
	mapped := MineISet(tr, opts, big)

	small := NewSymbols()
	small.InternTree(tr)
	densed := MineISet(tr, opts, small)

	if len(mapped) != len(densed) {
		t.Fatalf("map mode: %d items, dense mode %d", len(mapped), len(densed))
	}
	for k, n := range densed {
		a, b := k.Syms()
		la, lb := small.Label(a), small.Label(b)
		ba, ok1 := big.Lookup(la)
		bb, ok2 := big.Lookup(lb)
		if !ok1 || !ok2 {
			t.Fatalf("label %q/%q missing from big table", la, lb)
		}
		if got := mapped[NewIKey(ba, bb, k.Dist())]; got != n {
			t.Fatalf("item (%s,%s,%s): map mode %d, dense mode %d", la, lb, k.Dist(), got, n)
		}
	}
}

// TestMineSteadyStateZeroAlloc is the allocation gate on the reworked
// miner (mirroring TestFitchScoreZeroAlloc): once the pooled miner and
// the support accumulator have grown to the forest's shape, the per-tree
// unit behind MineISet and every forest entry point — reset, blocked
// accumulation, the cell-to-cell fold into support — allocates nothing.
func TestMineSteadyStateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	syms := NewSymbols()
	trees := make([]*tree.Tree, 8)
	for i := range trees {
		trees[i] = treegen.Fanout(rng, treegen.DefaultParams())
		syms.InternTree(trees[i])
	}
	opts := DefaultForestOptions()
	var sup accum
	sup.init(syms.Len(), supportSlots(opts))
	m := minerPool.Get().(*miner)
	defer m.release()
	fold := func() {
		items, minN := mineTreeSupport(m, opts)
		sup.fold(items, minN, true)
	}
	for _, tr := range trees {
		m.reset(tr, opts.Options, syms)
		fold()
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		tr := trees[i%len(trees)]
		i++
		m.reset(tr, opts.Options, syms)
		fold()
	})
	sup.discard()
	if allocs != 0 {
		t.Fatalf("steady-state mining allocates %v/op, want 0", allocs)
	}
}

// accumOp is one write into a test accumulator: an add (touched list),
// a row-marked write the way the blocked sweeps make one (dirty bitmap
// row), or a bump that may take a cell back to zero.
type accumOp struct {
	kind  int // 0 add, 1 row-marked, 2 bump
	a, b  uint32
	dc    int
	delta int32
}

// randAccumOps draws writes over l symbols and nd slots. Bumps undo
// earlier writes, so some cells end at zero — on the touched list, in a
// dirty row, or both — and some undone cells are added again.
func randAccumOps(rng *rand.Rand, l, nd, n int, dense bool) []accumOp {
	ops := make([]accumOp, 0, n)
	for i := 0; i < n; i++ {
		op := accumOp{a: uint32(rng.Intn(l)), b: uint32(rng.Intn(l)), dc: rng.Intn(nd), delta: int32(1 + rng.Intn(4))}
		if op.b < op.a {
			op.a, op.b = op.b, op.a
		}
		if dense && rng.Intn(3) == 0 {
			op.kind = 1
		}
		ops = append(ops, op)
		if len(ops) > 1 && rng.Intn(5) == 0 {
			prev := ops[rng.Intn(len(ops)-1)]
			if dense {
				prev.kind = 2
			} else {
				prev.kind = 0
			}
			prev.delta = -prev.delta
			ops = append(ops, prev)
			if rng.Intn(2) == 0 {
				// Re-add the cell: a second touched entry for it.
				prev.kind, prev.delta = 0, 1
				ops = append(ops, prev)
			}
		}
	}
	return ops
}

// applyAccumOps replays ops into ac. Undoing bumps are replayed in map
// mode as adds of the negated count.
func applyAccumOps(ac *accum, ops []accumOp) {
	for _, op := range ops {
		switch op.kind {
		case 0:
			ac.add(op.a, op.b, op.dc, op.delta)
		case 1:
			row := op.dc*ac.l + int(op.a)
			ac.rows[row*ac.nw+int(op.b>>6)] |= 1 << (op.b & 63)
			ac.markRow(row, op.dc, op.a)
			ac.dense[row*ac.rowLen+int(op.b)] += op.delta
		case 2:
			ac.bump(op.a, op.b, op.dc, op.delta)
		}
	}
}

// accumContents drains ac into a map, resetting ac.
func accumContents(ac *accum) map[cellKey]int32 {
	out := map[cellKey]int32{}
	ac.drain(func(a, b uint32, dc int, n int32) { out[cellKey{a, b, dc}] += n })
	return out
}

// assertAccumEmpty fails unless ac holds nothing at all: no count, no
// touched or dirty entry, no bitmap bit.
func assertAccumEmpty(t *testing.T, ac *accum) {
	t.Helper()
	if len(ac.m) != 0 || len(ac.touched) != 0 || len(ac.dirty) != 0 {
		t.Fatalf("source not reset: %d map keys, %d touched, %d dirty", len(ac.m), len(ac.touched), len(ac.dirty))
	}
	for i, n := range ac.dense {
		if n != 0 {
			t.Fatalf("source cell %d still holds %d", i, n)
		}
	}
	for i, w := range ac.rows {
		if w != 0 {
			t.Fatalf("source bitmap word %d still set", i)
		}
	}
	for i, w := range ac.rowBits {
		if w != 0 {
			t.Fatalf("source dirty-row word %d still set", i)
		}
	}
}

// TestAccumFoldDifferential pins the cell-to-cell fold against the
// decode path it replaces — drain the source, add each item of count ≥
// minN into the receiver by one or by its count — on dense and map-mode
// accumulators whose sources mix touched cells, dirty bitmap rows and
// cells that dropped back to zero. The receivers start non-empty, and
// the source must be empty afterwards.
func TestAccumFoldDifferential(t *testing.T) {
	for _, shape := range []struct {
		name  string
		l, nd int
		dense bool
	}{
		{"dense", 70, 3, true},
		{"dense-one-slot", 130, 1, true},
		{"map", 600, 4, false},
	} {
		for _, minN := range []int32{0, 1, 2, 4} {
			for _, unit := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/minN=%d/unit=%v", shape.name, minN, unit), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(shape.l)*31 + int64(minN)*7 + int64(len(shape.name))))
					srcOps := randAccumOps(rng, shape.l, shape.nd, 400, shape.dense)
					dstOps := randAccumOps(rng, shape.l, shape.nd, 200, shape.dense)
					var src, ref, dst, want accum
					for _, ac := range []*accum{&src, &ref, &dst, &want} {
						ac.init(shape.l, shape.nd)
					}
					if (src.dense != nil) != shape.dense {
						t.Fatalf("accumulator dense=%v, want %v", src.dense != nil, shape.dense)
					}
					applyAccumOps(&src, srcOps)
					applyAccumOps(&ref, srcOps)
					applyAccumOps(&dst, dstOps)
					applyAccumOps(&want, dstOps)

					ref.drain(func(a, b uint32, dc int, n int32) {
						if n >= minN {
							if unit {
								n = 1
							}
							want.add(a, b, dc, n)
						}
					})
					var kinds [3]int
					for _, op := range srcOps {
						kinds[op.kind]++
					}
					if shape.dense && (kinds[1] == 0 || kinds[2] == 0) {
						t.Fatalf("ops by kind %v: dirty rows or zeroed cells go untested", kinds)
					}

					dst.fold(&src, minN, unit)
					assertAccumEmpty(t, &src)
					got, exp := accumContents(&dst), accumContents(&want)
					if len(got) != len(exp) {
						t.Fatalf("fold left %d items, drain+add %d", len(got), len(exp))
					}
					for k, n := range exp {
						if got[k] != n {
							t.Fatalf("item %+v: fold %d, drain+add %d", k, got[k], n)
						}
					}
					// The reset source folds to nothing and is reusable.
					dst.fold(&src, minN, unit)
					if n := len(accumContents(&dst)); n != 0 {
						t.Fatalf("folding a reset source added %d items", n)
					}
				})
			}
		}
	}
}
