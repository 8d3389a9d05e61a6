package benchutil

// Benchmark-regression gating by same-process ratios: a gate times the
// production path against an in-tree reference doing the same job, both
// on this machine and interleaved, and fails when the production path's
// speedup over the reference fell too far below the speedup recorded in
// a BENCH_*.json file. Absolute ns/op depends on the box a number was
// recorded on; a ratio of two legs measured side by side does not. The
// consumers are the §48 mining core (BENCH_5.json, gated in
// internal/core) and the §51 merge path (BENCH_7.json, gated in
// internal/store).

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"
)

// LoadRatioGates reads the "ratio_gates" section of a recorded
// BENCH_*.json file: gate name → the production path's recorded speedup
// over its reference (reference ns/op ÷ production ns/op).
func LoadRatioGates(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f struct {
		Gates map[string]float64 `json:"ratio_gates"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("benchutil: parsing %s: %w", path, err)
	}
	if len(f.Gates) == 0 {
		return nil, fmt.Errorf("benchutil: %s has no ratio_gates section", path)
	}
	return f.Gates, nil
}

// speedup measures how many times faster prod runs than ref: it takes
// rounds samples of each, alternating ref and prod, and divides the
// fastest reference ns/op by the fastest production ns/op. A body runs
// n operations per call; each sample grows n until the call lasts at
// least minSample. Interleaving exposes both legs to the same machine
// state, and min-of-N drops noise, which only ever adds time.
func speedup(rounds int, minSample time.Duration, ref, prod func(n int)) float64 {
	refNs, prodNs := math.MaxFloat64, math.MaxFloat64
	for i := 0; i < rounds; i++ {
		refNs = math.Min(refNs, nsPerOp(ref, minSample))
		prodNs = math.Min(prodNs, nsPerOp(prod, minSample))
	}
	return refNs / prodNs
}

// nsPerOp times body at doubling op counts until one call lasts at least
// minSample, and returns that call's ns/op.
func nsPerOp(body func(n int), minSample time.Duration) float64 {
	for n := 1; ; n *= 2 {
		start := time.Now()
		body(n)
		if d := time.Since(start); d >= minSample {
			return float64(d.Nanoseconds()) / float64(n)
		}
	}
}

// SpeedupGate checks that prod's speedup over ref (see speedup) still
// reaches the recorded one divided by tol — tol = 1.2 tolerates a 20%
// loss of the production path's lead. It measures up to attempts times
// and passes at the first measurement that clears the bar: contention
// from a co-tenant process can depress one measurement, but a real
// regression depresses every one. On failure the error reports the best
// speedup seen. A larger speedup than recorded is never an error.
func SpeedupGate(name string, recorded, tol float64, attempts, rounds int, minSample time.Duration, ref, prod func(n int)) (best float64, err error) {
	if recorded <= 0 {
		return 0, fmt.Errorf("benchutil: %s has no recorded speedup", name)
	}
	for i := 0; i < attempts; i++ {
		best = math.Max(best, speedup(rounds, minSample, ref, prod))
		if best >= recorded/tol {
			return best, nil
		}
	}
	return best, fmt.Errorf("benchutil: %s regressed: best of %d measurements %.2f× over its reference vs %.2f× recorded (tolerance %.0f%%)",
		name, attempts, best, recorded, (tol-1)*100)
}
