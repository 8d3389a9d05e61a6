package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     int     // corpus size in trees; 0 selects the workload's default
	setupFor float64 // seconds to keep setting up, past minSetups; setup_s is the median
	dir      string  // scratch directory, removed when the run ends
	spans    string  // traced runs write their spans here

	// tamper, when set, runs between each pass and its check. Tests
	// use it to corrupt an output and prove the check catches it.
	tamper func(workload)
}

// workload is one benchmark scenario. A fresh value is made for every
// setup; the last one set up carries the timed passes.
type workload interface {
	// setup builds the inputs in dir from seed. It is timed as setup_s.
	setup(dir string, seed int64) error
	// prepare computes what the checks compare against and anything
	// else the passes need that is not the system's own set-up. It is
	// neither timed nor part of setup_s.
	prepare() error
	// pass runs one timed unit of load. tr is nil on plain passes; on
	// traced passes every span the pass records descends from root.
	pass(tr *tracer, root spanID) (passOut, error)
	// check verifies the last pass's outputs against the oracle and
	// returns how many of its operations were wrong.
	check() (int, error)
	// layers derives the workload's per-layer metrics from the
	// accounts of its traced passes, running any probes it needs.
	layers(accts []*passAccount) (map[string]float64, error)
	// human returns the workload's end-to-end metrics under the names
	// a user of that workload knows them by, for the printed summary.
	human(s *runStats) []humanMetric
	close() error
}

// passOut is what one pass did.
type passOut struct {
	units  int             // work completed: trees, queries or tdist pairs
	ops    int             // operations attempted
	failed int             // operations that returned an error or a non-200 status
	lat    []time.Duration // per-operation latency when a pass holds many operations
}

// humanMetric is one line of the printed summary.
type humanMetric struct {
	name, unit string
	value      float64
	samples    int
	note       string
}

// passStat is one timed pass.
type passStat struct {
	dur        time.Duration
	units      int
	lat        []time.Duration
	allocBytes uint64
	gcCycles   uint64
}

// runStats gathers a run's timings.
type runStats struct {
	setup  []float64
	plain  []passStat
	traced []passStat
}

// opLatencies returns every plain operation latency: the recorded
// per-operation latencies, or the pass durations when a pass is one
// operation.
func (s *runStats) opLatencies() []float64 {
	var out []float64
	for _, p := range s.plain {
		if p.lat == nil {
			out = append(out, p.dur.Seconds())
			continue
		}
		for _, l := range p.lat {
			out = append(out, l.Seconds())
		}
	}
	return out
}

// throughputs returns units per second of each plain pass.
func (s *runStats) throughputs() []float64 {
	out := make([]float64, len(s.plain))
	for i, p := range s.plain {
		out[i] = float64(p.units) / p.dur.Seconds()
	}
	return out
}

var workloads = map[string]struct {
	why  string
	make func(size int) workload
}{
	"fig6-stream":     {fig6Why, newFig6},
	"treebase-spill":  {spillWhy, newSpill},
	"serve-zipf":      {serveWhy, newServe},
	"treebase-kernel": {kernelWhy, newKernel},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// minPasses keeps a run from ending before it has a median to report:
// plain runs need a few passes, traced runs a few of each kind.
const minPasses = 4

// minSetups is the fewest setups a run times. A setup takes well under
// a second on most workloads, so setups repeat for config.setupFor
// seconds: a median over a longer stretch rides out short stalls of a
// shared machine.
const minSetups = 3

// run executes one benchmark run, printing a human-readable summary to
// out, and returns the result line.
func run(cfg config, out io.Writer) (*result, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames())
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.dir, 0o777); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.dir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	m := fingerprint()
	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(out, "why: %s\n", wl.why)
	fmt.Fprintf(out, "machine: cpu=%q nproc=%d gomaxprocs=%d go=%s effective_parallelism=%.3f\n",
		m.CPU, m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.Parallelism)

	speed := newSpeedProbe()
	stats := &runStats{}
	var w workload
	var setupTotal float64
	var sdir string
	for i := 0; i < minSetups || setupTotal < cfg.setupFor; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(sdir); err != nil {
				return nil, err
			}
		}
		w = wl.make(cfg.size)
		sdir = filepath.Join(dir, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(sdir, 0o777); err != nil {
			return nil, err
		}
		speed.tick(i == 0)
		t0 := time.Now()
		err := w.setup(sdir, cfg.seed)
		d := time.Since(t0).Seconds()
		stats.setup = append(stats.setup, d)
		setupTotal += d
		if err != nil {
			w.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	defer w.close()
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	res := &result{Metrics: map[string]metricValue{}}
	var firstErr error
	fail := func(n int, err error) {
		res.Failed += n
		if firstErr == nil {
			firstErr = err
		}
	}
	var elapsed time.Duration
	var roots []spanID
	for i := 0; elapsed.Seconds() < cfg.seconds || i < minPasses; i++ {
		speed.tick(false)
		traced := cfg.trace && i%2 == 1
		var ptr *tracer
		var root openSpan
		if traced {
			ptr = tr
			root = tr.begin("bench.pass", 0)
			roots = append(roots, root.id)
		}
		alloc0, gc0 := runtimeCounters()
		t0 := time.Now()
		po, err := w.pass(ptr, root.id)
		d := time.Since(t0)
		ptr.end(root)
		alloc1, gc1 := runtimeCounters()
		elapsed += d
		res.Attempted += max(po.ops, 1)
		if err != nil {
			// A pass that errors leaves nothing to time or check.
			fail(max(po.ops, 1), fmt.Errorf("pass %d: %w", i, err))
			break
		}
		if po.failed > 0 {
			fail(po.failed, fmt.Errorf("pass %d: %d operations failed", i, po.failed))
		}
		if cfg.tamper != nil {
			cfg.tamper(w)
		}
		if bad, err := w.check(); err != nil {
			fail(max(bad, 1), fmt.Errorf("pass %d check: %w", i, err))
		}
		ps := passStat{dur: d, units: po.units, lat: po.lat, allocBytes: alloc1 - alloc0, gcCycles: gc1 - gc0}
		if traced {
			stats.traced = append(stats.traced, ps)
		} else {
			stats.plain = append(stats.plain, ps)
		}
	}
	speed.tick(true)
	res.Correct = res.Failed == 0
	if firstErr != nil {
		fmt.Fprintf(out, "FAILED: %v\n", firstErr)
	}

	if !cfg.trace {
		fmt.Fprintln(out, "end-to-end (tracing off):")
		for _, h := range w.human(stats) {
			fmt.Fprintf(out, "  %-20s %14.6g %-4s n=%d %s\n", h.name, h.value, h.unit, h.samples, h.note)
		}
		fmt.Fprintf(out, "  %-20s %14.6g %-4s n=%d (%d failed of %d attempted)\n", "error_rate",
			float64(res.Failed)/float64(res.Attempted), "", res.Attempted, res.Failed, res.Attempted)
		fmt.Fprint(out, "pass seconds:")
		for _, p := range stats.plain {
			fmt.Fprintf(out, " %.3f", p.dur.Seconds())
		}
		fmt.Fprintln(out)
		k := speed.scale()
		fmt.Fprintf(out, "speed: reference kernel %.4g ms (median of %d), nominal %.4g ms: timings below are scaled by %.4f\n",
			speed.refSeconds()*1e3, len(speed.samples), refNominal.Seconds()*1e3, k)
		lat := stats.opLatencies()
		res.Metrics["setup_s"] = metricValue{median(stats.setup) * k, "s"}
		res.Metrics["throughput_per_s"] = metricValue{median(stats.throughputs()) / k, "1/s"}
		res.Metrics["latency_p50_ms"] = metricValue{median(lat) * 1e3 * k, "ms"}
		printMetrics(out, "result metrics:", res.Metrics)
		return res, nil
	}

	spans := tr.snapshot()
	accts := accountSpans(spans)
	var passAccts []*passAccount
	for _, id := range roots {
		if a := accts[id]; a != nil {
			passAccts = append(passAccts, a)
		}
	}
	lm, err := w.layers(passAccts)
	if err != nil {
		return nil, fmt.Errorf("layers: %w", err)
	}
	all := traceMetrics(stats, passAccts, m)
	all["machine.ref_kernel_ms"] = speed.refSeconds() * 1e3
	for k, v := range lm {
		all[k] = v
	}
	for _, d := range perLayer {
		res.Metrics[d.Name] = metricValue{all[d.Name], d.Unit}
	}
	header := map[string]any{"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "machine": m}
	if err := writeSpans(cfg.spans, header, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "spans: %d written to %s\n", len(spans), cfg.spans)
	printAccounting(out, passAccts, all)
	printMetrics(out, "per-layer metrics (traced run):", res.Metrics)
	return res, nil
}

// traceMetrics derives the workload-independent per-layer metrics: pass
// wall time, residual, layer shares, tracing overhead, runtime counters
// and the machine fingerprint.
func traceMetrics(s *runStats, accts []*passAccount, m machine) map[string]float64 {
	out := map[string]float64{
		"machine.effective_parallelism": m.Parallelism,
		"machine.gomaxprocs":            float64(m.GOMAXPROCS),
	}
	var walls, resid, residPct, nspans []float64
	shares := map[string][]float64{}
	for _, a := range accts {
		walls = append(walls, a.wall)
		ls := a.layerSelf()
		r := a.total
		for _, l := range sharedLayers {
			r -= ls[l]
			shares[l] = append(shares[l], 100*ls[l]/a.total)
		}
		resid = append(resid, r)
		residPct = append(residPct, 100*r/a.total)
		n := 0
		for _, c := range a.count {
			n += c
		}
		nspans = append(nspans, float64(n))
	}
	out["trace.pass_s"] = median(walls)
	out["trace.residual_s"] = median(resid)
	out["trace.residual_pct"] = median(residPct)
	out["trace.spans"] = median(nspans)
	for _, l := range sharedLayers {
		out["trace.share_"+l+"_pct"] = median(shares[l])
	}
	var plain, traced, allocs, gcs []float64
	for _, p := range s.plain {
		plain = append(plain, p.dur.Seconds())
		allocs = append(allocs, float64(p.allocBytes)/(1<<20))
		gcs = append(gcs, float64(p.gcCycles))
	}
	for _, p := range s.traced {
		traced = append(traced, p.dur.Seconds())
	}
	out["trace.overhead_pct"] = 100 * (median(traced)/median(plain) - 1)
	out["runtime.alloc_mib"] = median(allocs)
	out["runtime.gc_cycles"] = median(gcs)
	return out
}

// printAccounting shows where the median traced pass spent its time.
func printAccounting(w io.Writer, accts []*passAccount, all map[string]float64) {
	fmt.Fprintf(w, "accounting over %d traced passes (median pass %.4gs; shares of span time):\n", len(accts), all["trace.pass_s"])
	for _, l := range sharedLayers {
		fmt.Fprintf(w, "  %-10s %6.2f%%\n", l, all["trace.share_"+l+"_pct"])
	}
	fmt.Fprintf(w, "  %-10s %6.2f%% (%.4gs a pass no layer span covers)\n", "residual", all["trace.residual_pct"], all["trace.residual_s"])
	fmt.Fprintf(w, "  tracing overhead %.2f%% (median traced pass over median plain pass)\n", all["trace.overhead_pct"])
}

// runtimeCounters reads cumulative heap allocation and automatic GC
// cycles; a forced runtime.GC does not count as a cycle here.
func runtimeCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/automatic:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// liveHeapMiB forces a collection and returns the live heap.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// median returns the middle value (the mean of the two middle values
// for an even count); 0 for no values.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile by linear interpolation between the
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentile returns the highest of p99, p90 and p50 that has at
// least ten samples beyond it, or 0 when even the median has fewer.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 90, 50} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 0
}
