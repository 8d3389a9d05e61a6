package store

// Merge-path benchmarks and their regression gate (§51): mergeRuns is
// the k-way inner loop every spilled shard and segment merge streams
// through, and FoldTranslated is the cross-table fold every
// coordinator merge rides. BENCH_7.json records the distributed-mining
// experiment and each shape's speedup over an in-tree reference; the
// gate re-measures those speedups in-process and fails past a 20% loss.
// Run via `make bench-merge`.

import (
	"cmp"
	"fmt"
	"io"
	"os"
	"slices"
	"testing"
	"time"

	"treemine/internal/benchutil"
	"treemine/internal/core"
)

// bench7Path is the recorded §51 distributed-mining benchmark file at
// the repo root.
const bench7Path = "../../BENCH_7.json"

// benchSortedRun builds a sorted (A, B, D)-ordered run of n items. All
// runs built this way carry identical keys, so a k-way merge over them
// exercises the absorb-equal-keys path on every record, not just the
// minimum scan.
func benchSortedRun(n int) []core.ShardItem {
	items := make([]core.ShardItem, n)
	for i := range items {
		items[i] = core.ShardItem{A: uint32(i / 8), B: uint32(i % 8), D: core.Dist(i % 3), N: 1}
	}
	return items
}

// mergeRunsOps returns a body running n k-way merges of k identical
// sorted runs of size records each; one op is the full merge.
func mergeRunsOps(k, size int) func(n int) {
	base := benchSortedRun(size)
	return func(n int) {
		for i := 0; i < n; i++ {
			runs := make([]func() (core.ShardItem, error), k)
			for j := range runs {
				idx := 0
				runs[j] = func() (core.ShardItem, error) {
					if idx >= len(base) {
						return core.ShardItem{}, io.EOF
					}
					it := base[idx]
					idx++
					return it, nil
				}
			}
			var total int64
			if err := mergeRuns(runs, func(it core.ShardItem) error {
				total += it.N
				return nil
			}); err != nil {
				panic(err)
			}
			if total != int64(k*size) {
				panic(fmt.Sprintf("merged %d counts, want %d", total, k*size))
			}
		}
	}
}

// concatSortOps is the merge gate's reference for mergeRunsOps: the same
// k runs concatenated, sorted whole, and summed per key — the answer a
// k-way merge computes, without exploiting that the runs are sorted.
func concatSortOps(k, size int) func(n int) {
	base := benchSortedRun(size)
	return func(n int) {
		for i := 0; i < n; i++ {
			all := make([]core.ShardItem, 0, k*size)
			for j := 0; j < k; j++ {
				all = append(all, base...)
			}
			slices.SortFunc(all, func(x, y core.ShardItem) int {
				if x.A != y.A {
					return cmp.Compare(x.A, y.A)
				}
				if x.B != y.B {
					return cmp.Compare(x.B, y.B)
				}
				return cmp.Compare(x.D, y.D)
			})
			var total int64
			for j := 0; j < len(all); {
				it := all[j]
				for j++; j < len(all) && all[j].A == it.A && all[j].B == it.B && all[j].D == it.D; j++ {
					it.N += all[j].N
				}
				total += it.N
			}
			if total != int64(k*size) {
				panic(fmt.Sprintf("summed %d counts, want %d", total, k*size))
			}
		}
	}
}

// foldInput builds n entries coded against a foreign table of labels
// labels — the input of one cross-table fold.
func foldInput(labels, n int) ([]string, []core.ShardItem) {
	foreign := make([]string, labels)
	for i := range foreign {
		foreign[i] = "label-" + string(rune('a'+i%26)) + "-" + string(rune('a'+(i/26)%26)) + "-" + string(rune('a'+i/676))
	}
	items := make([]core.ShardItem, n)
	for i := range items {
		items[i] = core.ShardItem{
			A: uint32(i % labels), B: uint32((i * 31) % labels),
			D: core.Dist(i % 3), N: int64(1 + i%7),
		}
	}
	return foreign, items
}

// foldTranslatedOps returns a body running n folds of the foldInput
// entries into a fresh shard; one op is the whole fold — the
// translation vector build plus every map insert.
func foldTranslatedOps(labels, size int) func(n int) {
	opts := core.DefaultForestOptions()
	foreign, items := foldInput(labels, size)
	return func(n int) {
		for i := 0; i < n; i++ {
			sh := core.NewSupportShard(opts)
			if err := sh.FoldTranslated(1, foreign, items); err != nil {
				panic(err)
			}
		}
	}
}

// mapFoldOps is the merge gate's reference for foldTranslatedOps: the
// same entries folded into a plain count map over keys translated in
// advance, so an op is only the map inserts.
func mapFoldOps(labels, size int) func(n int) {
	foreign, items := foldInput(labels, size)
	syms := core.NewSymbols()
	keys := make([]core.IKey, len(items))
	for i, it := range items {
		keys[i] = core.NewIKey(syms.Intern(foreign[it.A]), syms.Intern(foreign[it.B]), it.D)
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			counts := make(map[core.IKey]int64)
			for j, k := range keys {
				counts[k] += items[j].N
			}
		}
	}
}

// BenchmarkMergePath measures the merge primitives at the recorded
// BENCH_7.json shapes: an 8-way merge of 64k-record runs (the
// comfortable-budget case), a 256-way merge of 4k-record runs (the
// tight-budget case the head heap exists for — a linear min-scan
// costs O(fan-in) per record here and keeps getting worse as budgets
// shrink), and a 64k-item fold across a 512-label foreign table.
func BenchmarkMergePath(b *testing.B) {
	for _, shape := range mergeGateShapes() {
		b.Run(shape.name, func(b *testing.B) { shape.prod(b.N) })
	}
}

// mergeGateShape is one gated merge-path shape: the production body and
// the in-tree reference its speedup is measured against.
type mergeGateShape struct {
	name      string
	prod, ref func(n int)
}

func mergeGateShapes() []mergeGateShape {
	return []mergeGateShape{
		{"mergeRuns", mergeRunsOps(8, 1<<16), concatSortOps(8, 1<<16)},
		{"mergeRunsWide", mergeRunsOps(256, 1<<12), concatSortOps(256, 1<<12)},
		{"foldTranslated", foldTranslatedOps(512, 1<<16), mapFoldOps(512, 1<<16)},
	}
}

// mergeGate measures each shape's production speedup over its reference
// — interleaved, min-of-N short samples, in this process — and returns
// one error per shape whose speedup fell below BENCH_7.json's
// ratio_gates entry ÷ 1.2. prod maps a shape to the production body
// under test.
func mergeGate(t *testing.T, prod func(mergeGateShape) func(n int)) []error {
	t.Helper()
	if _, err := os.Stat(bench7Path); err != nil {
		t.Skipf("no recorded %s: %v", bench7Path, err)
	}
	gates, err := benchutil.LoadRatioGates(bench7Path)
	if err != nil {
		t.Fatal(err)
	}
	var errs []error
	for _, shape := range mergeGateShapes() {
		name := "BenchmarkMergePath/" + shape.name + "/reference÷production"
		rec, ok := gates[name]
		if !ok {
			t.Fatalf("%s missing from %s", name, bench7Path)
		}
		speedup, err := benchutil.SpeedupGate(name, rec, 1.2, 3, 7, 20*time.Millisecond, shape.ref, prod(shape))
		t.Logf("%s: %.2f× (recorded %.2f×)", name, speedup, rec)
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// TestBenchMergeRegressionGate fails if mergeRuns or FoldTranslated lost
// more than a 20% share of its recorded speedup over its in-tree
// reference at the BenchmarkMergePath shapes. Both legs run on this
// machine, so the gate holds on any box. Skipped under -short; run
// explicitly via `make bench-merge`.
func TestBenchMergeRegressionGate(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark regression gate skipped in -short mode")
	}
	for _, err := range mergeGate(t, func(s mergeGateShape) func(n int) { return s.prod }) {
		t.Error(err)
	}
}

// TestBenchMergeRegressionGateCatchesSlowdown proves the gate still
// bites: a production body doing its work twice per op must fail it at
// every shape.
func TestBenchMergeRegressionGateCatchesSlowdown(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark regression gate skipped in -short mode")
	}
	errs := mergeGate(t, func(s mergeGateShape) func(n int) {
		return func(n int) { s.prod(2 * n) }
	})
	if len(errs) != 3 {
		t.Fatalf("a doubled production body failed the gate at %d of 3 shapes: %v", len(errs), errs)
	}
}
