// Command perfbench is treemine's repository benchmark: four workloads
// over the mining, store, serve and distance layers, each timed from
// outside through the layers' public functions and each checked against
// an independent oracle.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload fig6-stream --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics, their timings scaled to a nominal machine speed
// by a reference kernel timed through the run; with --trace 1 it carries
// the per-layer metrics of a traced run, whose spans are also written to
// a file. See README.md for what each metric means and which layer moves
// it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricDef is one entry of the metric catalogue BENCHMARK.json lists.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a plain run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
}

// perLayer are the metrics a traced run reports, on every workload; a
// metric of a layer the workload leaves idle reads 0.
var perLayer = []metricDef{
	{"phyloio.next_s", "s", "lower"},
	{"phyloio.count_s", "s", "lower"},
	{"phyloio.trees", "count", "higher"},
	{"phyloio.input_mib", "MiB", "lower"},
	{"core.stream_self_s", "s", "lower"},
	{"core.rounds", "count", "lower"},
	{"core.shard_entries", "count", "lower"},
	{"core.mine_tree_us", "us", "lower"},
	{"core.add_tree_us", "us", "lower"},
	{"core.finalize_s", "s", "lower"},
	{"core.snapshot_s", "s", "lower"},
	{"core.profile_build_s", "s", "lower"},
	{"core.distmatrix_s", "s", "lower"},
	{"core.tdist_ns_per_pair", "ns", "lower"},
	{"store.spill_drain_s", "s", "lower"},
	{"store.spill_segments", "count", "lower"},
	{"store.resident_entries_max", "count", "lower"},
	{"store.finish_s", "s", "lower"},
	{"store.fold_s", "s", "lower"},
	{"store.save_s", "s", "lower"},
	{"store.compact_s", "s", "lower"},
	{"store.write_mib", "MiB", "lower"},
	{"store.bytes_written_per_pair", "B", "lower"},
	{"store.v4_bytes_per_pair", "B", "lower"},
	{"store.mapped_support_ns", "ns", "lower"},
	{"serve.open_ms", "ms", "lower"},
	{"serve.backend_support_ns", "ns", "lower"},
	{"serve.backend_support_ns_decoded", "ns", "lower"},
	{"serve.backend_frequent_us", "us", "lower"},
	{"serve.handler_us", "us", "lower"},
	{"serve.cache_hit_rate", "ratio", "higher"},
	{"serve.cache_evictions", "count", "lower"},
	{"net.transport_us", "us", "lower"},
	{"kernel.search_s", "s", "lower"},
	{"kernel.groups", "count", "higher"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.alloc_mib", "MiB", "lower"},
	{"runtime.live_heap_peak_mib", "MiB", "lower"},
	{"trace.pass_s", "s", "lower"},
	{"trace.residual_s", "s", "lower"},
	{"trace.residual_pct", "%", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.spans", "count", "lower"},
	{"trace.share_phyloio_pct", "%", "lower"},
	{"trace.share_core_pct", "%", "lower"},
	{"trace.share_store_pct", "%", "lower"},
	{"trace.share_serve_pct", "%", "lower"},
	{"trace.share_net_pct", "%", "lower"},
	{"trace.share_kernel_pct", "%", "lower"},
	{"trace.share_runtime_pct", "%", "lower"},
	{"machine.effective_parallelism", "ratio", "higher"},
	{"machine.gomaxprocs", "count", "higher"},
	{"machine.ref_kernel_ms", "ms", "lower"},
}

// sharedLayers are the layers whose self-time share a traced run
// reports; spans of any other layer (the benchmark's own "bench") are
// the residual.
var sharedLayers = []string{"phyloio", "core", "store", "serve", "net", "kernel", "runtime"}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	cfg := config{setupFor: 2, dir: filepath.Join(".bench_build", "run")}
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "seconds of timed passes to run")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.Parse()
	cfg.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.spans = filepath.Join(".bench_build", "spans-"+cfg.workload+".jsonl")
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// printMetrics lists metrics by name with their units, sorted.
func printMetrics(w io.Writer, title string, m map[string]metricValue) {
	fmt.Fprintln(w, title)
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
