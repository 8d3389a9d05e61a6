package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"treemine/internal/core"
	"treemine/internal/kernel"
	"treemine/internal/tree"
	"treemine/internal/treebase"
)

const (
	kernelWhy = "The paper's kernel-tree application on TreeBASE studies: the only workload on the tdist kernel and the kernel search; fold, store and serve stay idle"

	kernelDefaultTrees = 1000
	// kernelTolerance is how far the reported AvgDist may sit from the
	// one recomputed pair by pair with core.TDist.
	kernelTolerance = 1e-12
)

// kernelWL is the treebase-kernel workload: TreeBASE studies become the
// groups of a kernel.FindCtx search under the paper's configuration.
type kernelWL struct {
	size   int
	groups [][]*tree.Tree
	flat   []*tree.Tree
	cfg    kernel.Config
	res    *kernel.Result
	// oracle caches the recomputed average per choice, so each distinct
	// choice is recomputed once.
	oracle map[string]float64
}

func newKernel(size int) workload {
	if size <= 0 {
		size = kernelDefaultTrees
	}
	return &kernelWL{size: size, cfg: kernel.DefaultConfig(), oracle: map[string]float64{}}
}

func (w *kernelWL) setup(dir string, seed int64) error {
	cfg := treebase.DefaultConfig()
	cfg.NumTrees = w.size
	c, err := treebase.NewCorpus(seed, cfg)
	if err != nil {
		return err
	}
	w.groups = make([][]*tree.Tree, len(c.Studies))
	for i, s := range c.Studies {
		w.groups[i] = s.Trees
	}
	w.flat = c.AllTrees()
	return nil
}

func (w *kernelWL) prepare() error { return nil }

func (w *kernelWL) pairs() int { return len(w.flat) * (len(w.flat) - 1) / 2 }

func (w *kernelWL) pass(tr *tracer, root spanID) (passOut, error) {
	s := tr.begin("kernel.find", root)
	res, err := kernel.FindCtx(context.Background(), w.groups, w.cfg)
	tr.end(s)
	if err != nil {
		return passOut{ops: 1}, err
	}
	w.res = res
	return passOut{units: w.pairs(), ops: 1}, nil
}

// check recomputes the chosen trees' average pairwise distance with
// core.TDist, one pair at a time, and compares it with AvgDist.
func (w *kernelWL) check() (int, error) {
	r := w.res
	if len(r.Choice) != len(w.groups) {
		return 1, fmt.Errorf("choice covers %d groups, want %d", len(r.Choice), len(w.groups))
	}
	for g, ti := range r.Choice {
		if ti < 0 || ti >= len(w.groups[g]) {
			return 1, fmt.Errorf("group %d: choice %d out of range", g, ti)
		}
	}
	key := fmt.Sprint(r.Choice)
	want, ok := w.oracle[key]
	if !ok {
		sum := 0.0
		for i := range w.groups {
			for j := i + 1; j < len(w.groups); j++ {
				sum += core.TDist(w.groups[i][r.Choice[i]], w.groups[j][r.Choice[j]], w.cfg.Variant, w.cfg.Options)
			}
		}
		s := len(w.groups)
		want = sum / (float64(s*(s-1)) / 2)
		w.oracle[key] = want
	}
	if math.Abs(r.AvgDist-want) > kernelTolerance {
		return 1, fmt.Errorf("AvgDist %.17g, recomputed with TDist %.17g", r.AvgDist, want)
	}
	return 0, nil
}

// layers splits the opaque FindCtx span with probes: the profile build
// and the matrix fill are called alone, with FindCtx's own arguments,
// and the search is what remains of FindCtx.
func (w *kernelWL) layers(accts []*passAccount) (map[string]float64, error) {
	ctx := context.Background()
	var builds, fills []float64
	heap := 0.0
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		profiles, err := core.BuildProfilesCtx(ctx, w.flat, w.cfg.Variant, w.cfg.Options, 0)
		if err != nil {
			return nil, err
		}
		builds = append(builds, time.Since(t0).Seconds())
		t0 = time.Now()
		dm, err := core.ProfileDistMatrixCtx(ctx, profiles, 0)
		if err != nil {
			return nil, err
		}
		fills = append(fills, time.Since(t0).Seconds())
		heap = max(heap, liveHeapMiB())
		_ = dm.Len() // the matrix is live through the heap reading
	}
	build, fill := median(builds), median(fills)
	var finds, totals []float64
	for _, a := range accts {
		finds = append(finds, a.self["kernel.find"])
		totals = append(totals, a.total)
	}
	find := median(finds)
	search := find - build - fill
	return map[string]float64{
		"core.profile_build_s":       build,
		"core.distmatrix_s":          fill,
		"core.tdist_ns_per_pair":     fill / float64(w.pairs()) * 1e9,
		"kernel.search_s":            search,
		"kernel.groups":              float64(len(w.groups)),
		"runtime.live_heap_peak_mib": heap,
		"trace.share_core_pct":       100 * (build + fill) / median(totals),
		"trace.share_kernel_pct":     100 * search / median(totals),
	}, nil
}

func (w *kernelWL) human(s *runStats) []humanMetric {
	lat := s.opLatencies()
	return []humanMetric{
		{name: "setup_s", unit: "s", value: median(s.setup), samples: len(s.setup), note: "median of setups"},
		{name: "tdist_pairs_per_s", unit: "1/s", value: median(s.throughputs()), samples: len(s.plain), note: fmt.Sprintf("median over FindCtx calls, n(n-1)/2 = %d pairs each", w.pairs())},
		{name: "find_p50_ms", unit: "ms", value: median(lat) * 1e3, samples: len(lat), note: fmt.Sprintf("median FindCtx over %d groups", len(w.groups))},
	}
}

func (w *kernelWL) close() error { return nil }
