package core

import (
	"os"
	"testing"
	"time"

	"treemine/internal/benchutil"
)

// bench5Path is the recorded §48 mining-core benchmark file at the repo
// root.
const bench5Path = "../../BENCH_5.json"

// mineCoreGate measures the production leg's speedup over the in-tree
// seed leg at the recorded BenchmarkMineCore shapes — interleaved, min
// of 100 short samples, in this process — and returns one error per
// shape whose speedup fell below BENCH_5.json's ratio_gates entry ÷ 1.2
// (see benchutil.SpeedupGate). blocked is the production leg under test.
func mineCoreGate(t *testing.T, blocked func(m *miner, ac *accum)) []error {
	t.Helper()
	if _, err := os.Stat(bench5Path); err != nil {
		t.Skipf("no recorded %s: %v", bench5Path, err)
	}
	gates, err := benchutil.LoadRatioGates(bench5Path)
	if err != nil {
		t.Fatal(err)
	}
	var errs []error
	for _, shape := range []string{"fig6", "hub"} {
		name := "BenchmarkMineCore/" + shape + "/seed÷blocked"
		rec, ok := gates[name]
		if !ok {
			t.Fatalf("%s missing from %s", name, bench5Path)
		}
		speedup, err := benchutil.SpeedupGate(name, rec, 1.2, 3, 100, 2*time.Millisecond, seedOps(shape), accumulateOps(shape, blocked))
		t.Logf("%s: %.2f× (recorded %.2f×)", name, speedup, rec)
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// TestBenchMineCoreRegressionGate is the mining core's regression gate:
// it fails if the production path (accumulateBlocked) lost more than a
// 20% share of its recorded lead over the seed enumeration at the
// BenchmarkMineCore shapes. Both legs run on this machine, so the gate
// holds on any box. Skipped under -short; run explicitly via `make
// bench-mine`.
func TestBenchMineCoreRegressionGate(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark regression gate skipped in -short mode")
	}
	for _, err := range mineCoreGate(t, func(m *miner, ac *accum) { m.accumulateBlocked(ac) }) {
		t.Error(err)
	}
}

// TestBenchMineCoreRegressionGateCatchesSlowdown proves the gate still
// bites: a production leg doing its work twice per op must fail it at
// every shape.
func TestBenchMineCoreRegressionGateCatchesSlowdown(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark regression gate skipped in -short mode")
	}
	errs := mineCoreGate(t, func(m *miner, ac *accum) {
		m.accumulateBlocked(ac)
		ac.discard()
		m.accumulateBlocked(ac)
	})
	if len(errs) != 2 {
		t.Fatalf("a doubled blocked leg failed the gate at %d of 2 shapes: %v", len(errs), errs)
	}
}
