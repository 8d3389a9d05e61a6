package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// tinySizes keep every workload's corpus small enough for a unit test;
// the spill corpus is still large enough to pass its spill budget.
var tinySizes = map[string]int{
	"fig6-stream":     40,
	"treebase-spill":  300,
	"serve-zipf":      100,
	"treebase-kernel": 100,
}

func tinyConfig(t *testing.T, name string, trace bool) config {
	dir := t.TempDir()
	return config{
		workload: name,
		seed:     7,
		seconds:  0.01,
		trace:    trace,
		size:     tinySizes[name],
		dir:      dir,
		spans:    filepath.Join(dir, "spans.jsonl"),
	}
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

func metricNames(m map[string]metricValue) []string {
	var names []string
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func defNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return names
}

// TestWorkloadsPassTheirChecks runs every workload on a tiny corpus,
// plain and traced, and requires a correct result carrying exactly the
// catalogue's metrics.
func TestWorkloadsPassTheirChecks(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, name, trace)
			res, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < minPasses {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if got := metricNames(res.Metrics); !slices.Equal(got, defNames(want)) {
				t.Fatalf("%s trace=%v: metrics %v, want %v", name, trace, got, defNames(want))
			}
			for n, v := range res.Metrics {
				if v.Unit != unitOf(want, n) {
					t.Errorf("%s: metric %s has unit %q", name, n, v.Unit)
				}
			}
			if !trace {
				for n, v := range res.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, n, v.Value)
					}
				}
				continue
			}
			if _, err := os.Stat(cfg.spans); err != nil {
				t.Errorf("%s: spans file: %v", name, err)
			}
		}
	}
}

// TestChecksCatchCorruption corrupts one output of every workload after
// each pass and requires the run to count the failures and report
// itself incorrect.
func TestChecksCatchCorruption(t *testing.T) {
	tampers := map[string]func(workload){
		// A corrupted support count in the streamed result.
		"fig6-stream": func(w workload) { w.(*fig6).got[0].Support++ },
		// A corrupted byte in the master shard file.
		"treebase-spill": func(w workload) {
			p := w.(*spill).masterPath
			b, err := os.ReadFile(p)
			if err != nil {
				t.Error(err)
				return
			}
			b[len(b)/2] ^= 0x40
			if err := os.WriteFile(p, b, 0o666); err != nil {
				t.Error(err)
			}
		},
		// A wrong response body.
		"serve-zipf": func(w workload) { w.(*serveWL).logs[0].arena[1] ^= 0x20 },
		// An average distance off by more than the tolerance.
		"treebase-kernel": func(w workload) { w.(*kernelWL).res.AvgDist += 1e-9 },
	}
	for _, name := range workloadNames() {
		cfg := tinyConfig(t, name, false)
		cfg.tamper = tampers[name]
		res, err := run(cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct || res.Failed < minPasses {
			t.Errorf("%s: corrupted outputs gave correct=%v failed=%d of %d", name, res.Correct, res.Failed, res.Attempted)
		}
	}
}

func TestAccountSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.stream", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "store.save", Start: 30, End: 60}, // overlaps core.stream
		{ID: 4, Parent: 2, Name: "phyloio.next", Start: 15, End: 20},
		{ID: 5, Name: "bench.pass", Start: 200, End: 210},
	}
	accts := accountSpans(spans)
	a := accts[1]
	if a == nil || len(accts) != 2 {
		t.Fatalf("accounts %v", accts)
	}
	want := map[string]float64{"bench.pass": 50e-9, "core.stream": 25e-9, "store.save": 30e-9, "phyloio.next": 5e-9}
	for name, w := range want {
		if got := a.self[name]; got < w-1e-15 || got > w+1e-15 {
			t.Errorf("self[%s] = %g, want %g", name, got, w)
		}
	}
	if a.wall != 100e-9 {
		t.Errorf("wall = %g", a.wall)
	}
	if ls := a.layerSelf(); ls["core"] != a.self["core.stream"] || ls["bench"] != a.self["bench.pass"] {
		t.Errorf("layerSelf = %v", ls)
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if m := median(xs); m != 2.5 {
		t.Errorf("median = %v", m)
	}
	if q := quantile(xs, 1); q != 4 {
		t.Errorf("max = %v", q)
	}
	for n, want := range map[int]float64{19: 0, 20: 50, 100: 90, 1000: 99} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the
// program's metric catalogue and workloads in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if wl, ok := workloads[w.Name]; !ok || wl.why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json why %q does not match the program", w.Name, w.Why)
		}
	}
	for _, c := range []struct {
		name      string
		json, src []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.src) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", c.name, len(c.json), len(c.src))
			continue
		}
		for i := range c.src {
			if c.json[i] != c.src[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", c.name, i, c.json[i], c.src[i])
			}
		}
	}
}
