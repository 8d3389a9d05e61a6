package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"treemine/internal/core"
	"treemine/internal/newick"
	"treemine/internal/phyloio"
	"treemine/internal/store"
	"treemine/internal/tree"
	"treemine/internal/treebase"
	"treemine/internal/treegen"
)

const (
	fig6Why  = "Table 3 trees (200 nodes, fanout 5, alphabet 200): few distinct pairs, so per-tree mining and the support fold dominate; store is barely touched"
	spillWhy = "TreeBASE-like corpus, 18,870-taxon alphabet: many distinct pairs, cheap trees and a spill budget far below the working set, so the store write path dominates"

	fig6DefaultTrees  = 2000
	spillDefaultTrees = 2000
	// spillBudget is the resident-entry budget of each partition: 8,192
	// entries, the 512 KiB leg of the distributed-mining recording at
	// 64 bytes an entry.
	spillBudget = 8192
	spillParts  = 2
	// probeTrees is the sample the per-tree mining probes time.
	probeTrees = 64
)

// writeNewick writes every tree it yields to path, one a line.
func writeNewick(path string, it core.TreeIterator) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for {
		t, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			f.Close()
			return err
		}
		bw.WriteString(newick.Write(t))
		bw.WriteByte('\n')
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fig6Iter yields n Table 3 trees from rng.
type fig6Iter struct {
	rng *rand.Rand
	n   int
}

func (g *fig6Iter) Next() (*tree.Tree, error) {
	if g.n == 0 {
		return nil, io.EOF
	}
	g.n--
	return treegen.Fanout(g.rng, treegen.DefaultParams()), nil
}

// tracedIter records a phyloio.next span around every Next of the
// iterator handed to core. The stream calls Next serially between
// rounds, so these spans time parsing exactly.
type tracedIter struct {
	it     core.TreeIterator
	tr     *tracer
	parent spanID
}

func (t *tracedIter) Next() (*tree.Tree, error) {
	s := t.tr.begin("phyloio.next", t.parent)
	x, err := t.it.Next()
	t.tr.end(s)
	return x, err
}

// passCounts are what one traced mining pass counted.
type passCounts struct {
	trees, rounds, segments int
	residentMax, entries    int
	writeBytes, v4Bytes     int64
	heapPeak                float64
}

// roundHook returns the AfterRound hook of a traced pass: the inner
// hook (the spill drain, if any) under a store.spill_drain span, then a
// runtime.gc_probe span that counts the round, notes the resident entry
// count and reads the live heap after a forced collection.
func roundHook(tr *tracer, parent spanID, inner func(*core.SupportShard) error, pc *passCounts) func(*core.SupportShard) error {
	return func(sh *core.SupportShard) error {
		probe := tr.begin("runtime.gc_probe", parent)
		pc.rounds++
		pc.residentMax = max(pc.residentMax, sh.Len())
		tr.end(probe)
		if inner != nil {
			s := tr.begin("store.spill_drain", parent)
			err := inner(sh)
			tr.end(s)
			if err != nil {
				return err
			}
		}
		probe = tr.begin("runtime.gc_probe", parent)
		pc.heapPeak = max(pc.heapPeak, liveHeapMiB())
		tr.end(probe)
		return nil
	}
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

func dirSize(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil {
			n += info.Size()
		}
	}
	return n
}

func saveShard(path string, sh *core.SupportShard) error {
	return store.AtomicWrite(path, func(w io.Writer) error { return store.SaveShard(w, sh) })
}

// checkV4 opens a compacted index and checks it holds the shard's
// distinct entries and tree count.
func checkV4(path string, entries, trees int) error {
	m, err := store.OpenMapped(path)
	if err != nil {
		return err
	}
	defer m.Close()
	if m.Len() != entries || m.Trees() != trees {
		return fmt.Errorf("v4 index holds %d entries over %d trees, want %d over %d", m.Len(), m.Trees(), entries, trees)
	}
	return nil
}

// miningBase is what the two mining workloads share: the Newick input,
// the per-pass counts of traced passes, and the probes run after them.
type miningBase struct {
	size   int
	dir    string
	input  string
	opts   core.ForestOptions
	counts []passCounts
	last   *core.SupportShard // master shard of the last traced pass
}

// traced notes a traced pass's counts and keeps its master shard for the
// snapshot probe.
func (b *miningBase) traced(pc passCounts, master *core.SupportShard) {
	b.counts = append(b.counts, pc)
	b.last = master
}

// miningLayers derives the per-layer metrics both mining workloads
// report, running the per-tree and snapshot probes.
func (b *miningBase) miningLayers(accts []*passAccount) (map[string]float64, error) {
	out := map[string]float64{}
	medianOf := func(f func(a *passAccount) float64) float64 {
		xs := make([]float64, len(accts))
		for i, a := range accts {
			xs[i] = f(a)
		}
		return median(xs)
	}
	for metric, spanName := range map[string]string{
		"phyloio.next_s":      "phyloio.next",
		"phyloio.count_s":     "phyloio.count",
		"core.stream_self_s":  "core.stream",
		"core.finalize_s":     "core.finalize",
		"store.spill_drain_s": "store.spill_drain",
		"store.finish_s":      "store.finish",
		"store.fold_s":        "store.fold",
		"store.save_s":        "store.save",
		"store.compact_s":     "store.compact",
	} {
		out[metric] = medianOf(func(a *passAccount) float64 { return a.self[spanName] })
	}
	countOf := func(f func(pc passCounts) float64) float64 {
		xs := make([]float64, len(b.counts))
		for i, pc := range b.counts {
			xs[i] = f(pc)
		}
		return median(xs)
	}
	out["phyloio.trees"] = countOf(func(pc passCounts) float64 { return float64(pc.trees) })
	out["phyloio.input_mib"] = float64(fileSize(b.input)) / (1 << 20)
	out["core.rounds"] = countOf(func(pc passCounts) float64 { return float64(pc.rounds) })
	out["core.shard_entries"] = countOf(func(pc passCounts) float64 { return float64(pc.entries) })
	out["store.spill_segments"] = countOf(func(pc passCounts) float64 { return float64(pc.segments) })
	out["store.resident_entries_max"] = countOf(func(pc passCounts) float64 { return float64(pc.residentMax) })
	out["store.write_mib"] = countOf(func(pc passCounts) float64 { return float64(pc.writeBytes) / (1 << 20) })
	out["store.bytes_written_per_pair"] = countOf(func(pc passCounts) float64 { return float64(pc.writeBytes) / float64(pc.entries) })
	out["store.v4_bytes_per_pair"] = countOf(func(pc passCounts) float64 { return float64(pc.v4Bytes) / float64(pc.entries) })
	out["runtime.live_heap_peak_mib"] = countOf(func(pc passCounts) float64 { return pc.heapPeak })

	if b.last != nil {
		snaps := make([]float64, 5)
		for i := range snaps {
			t0 := time.Now()
			b.last.Snapshot()
			snaps[i] = time.Since(t0).Seconds()
		}
		out["core.snapshot_s"] = median(snaps)
	}
	mine, add, err := b.treeProbes()
	if err != nil {
		return nil, err
	}
	out["core.mine_tree_us"] = mine
	out["core.add_tree_us"] = add
	return out, nil
}

// treeProbes times the first probeTrees trees of the input, three
// rounds each, through core.MineISet (mining alone) and through
// SupportShard.AddTree (mining plus the support fold), and returns the
// median microseconds per tree of each.
func (b *miningBase) treeProbes() (mineUS, addUS float64, err error) {
	src := phyloio.OpenTreesRange([]string{b.input}, nil, 0, probeTrees)
	var trees []*tree.Tree
	for {
		t, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			src.Close()
			return 0, 0, err
		}
		trees = append(trees, t)
	}
	src.Close()
	syms := core.NewSymbols()
	for _, t := range trees {
		syms.InternTree(t)
	}
	var mine, add []float64
	for round := 0; round < 3; round++ {
		for _, t := range trees {
			t0 := time.Now()
			core.MineISet(t, b.opts.Options, syms)
			mine = append(mine, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		sh := core.NewSupportShard(b.opts)
		for _, t := range trees {
			t0 := time.Now()
			sh.AddTree(t)
			add = append(add, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	return median(mine), median(add), nil
}

// fig6 is the fig6-stream workload: the paper's Table 3 synthetic
// trees streamed from Newick to a compacted v4 index.
type fig6 struct {
	miningBase
	shardPath, v4Path string
	want, got         []core.FrequentPair
	gotEntries        int
}

func newFig6(size int) workload {
	if size <= 0 {
		size = fig6DefaultTrees
	}
	return &fig6{miningBase: miningBase{size: size, opts: core.DefaultForestOptions()}}
}

func (w *fig6) setup(dir string, seed int64) error {
	w.dir = dir
	w.input = filepath.Join(dir, "fig6.nwk")
	w.shardPath = filepath.Join(dir, "fig6.shard")
	w.v4Path = filepath.Join(dir, "fig6.v4")
	return writeNewick(w.input, &fig6Iter{rng: rand.New(rand.NewSource(seed)), n: w.size})
}

// prepare mines the same trees with the batch miner, the oracle every
// pass's Finalize(2) must equal.
func (w *fig6) prepare() error {
	trees, err := phyloio.ReadTrees([]string{w.input}, nil)
	if err != nil {
		return err
	}
	w.want = core.MineForest(trees, w.opts)
	return nil
}

func (w *fig6) pass(tr *tracer, root spanID) (passOut, error) {
	src := phyloio.OpenTrees([]string{w.input}, nil)
	defer src.Close()
	cfg := core.StreamConfig{Workers: runtime.GOMAXPROCS(0)}
	var it core.TreeIterator = src
	var pc passCounts
	st := tr.begin("core.stream", root)
	if tr != nil {
		it = &tracedIter{it: src, tr: tr, parent: st.id}
		cfg.AfterRound = roundHook(tr, st.id, nil, &pc)
	}
	sh, err := core.MineForestStreamShardCtx(context.Background(), it, w.opts, cfg)
	tr.end(st)
	if err != nil {
		return passOut{ops: 1}, err
	}
	s := tr.begin("core.finalize", root)
	w.got = sh.Finalize(w.opts.MinSup)
	tr.end(s)
	s = tr.begin("store.save", root)
	err = saveShard(w.shardPath, sh)
	tr.end(s)
	if err != nil {
		return passOut{ops: 1}, err
	}
	s = tr.begin("store.compact", root)
	err = store.CompactShardV4(w.v4Path, sh)
	tr.end(s)
	if err != nil {
		return passOut{ops: 1}, err
	}
	w.gotEntries = sh.Len()
	if tr != nil {
		pc.trees = sh.Trees()
		pc.entries = sh.Len()
		pc.v4Bytes = fileSize(w.v4Path)
		pc.writeBytes = fileSize(w.shardPath) + pc.v4Bytes
		w.traced(pc, sh)
	}
	return passOut{units: sh.Trees(), ops: 1}, nil
}

func (w *fig6) check() (int, error) {
	if !slices.Equal(w.got, w.want) {
		return 1, fmt.Errorf("stream Finalize(%d) differs from MineForest (%d vs %d pairs)", w.opts.MinSup, len(w.got), len(w.want))
	}
	if err := checkV4(w.v4Path, w.gotEntries, w.size); err != nil {
		return 1, err
	}
	return 0, nil
}

func (w *fig6) layers(accts []*passAccount) (map[string]float64, error) {
	return w.miningLayers(accts)
}

func (w *fig6) human(s *runStats) []humanMetric {
	return miningHuman(s)
}

func (w *fig6) close() error { return nil }

// miningHuman names a mining workload's end-to-end metrics.
func miningHuman(s *runStats) []humanMetric {
	lat := s.opLatencies()
	return []humanMetric{
		{name: "setup_s", unit: "s", value: median(s.setup), samples: len(s.setup), note: "median of setups"},
		{name: "mine_trees_per_s", unit: "1/s", value: median(s.throughputs()), samples: len(s.plain), note: "median over passes, Newick to compacted v4"},
		{name: "pass_p50_ms", unit: "ms", value: median(lat) * 1e3, samples: len(lat), note: "median pass"},
	}
}

// spill is the treebase-spill workload: the distributed worker path run
// in-process, with every partition spilling past a small budget.
type spill struct {
	miningBase
	v4Path     string
	masterPath string
	want       []byte
	gotEntries int
}

func newSpill(size int) workload {
	if size <= 0 {
		size = spillDefaultTrees
	}
	return &spill{miningBase: miningBase{size: size, opts: core.DefaultForestOptions()}}
}

func (w *spill) setup(dir string, seed int64) error {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return err
	}
	w.dir = abs
	w.input = filepath.Join(abs, "treebase.nwk")
	w.v4Path = filepath.Join(abs, "master.v4")
	return writeTreeBASE(w.input, seed, w.size)
}

// writeTreeBASE writes a simulated TreeBASE corpus of n trees.
func writeTreeBASE(path string, seed int64, n int) error {
	cfg := treebase.DefaultConfig()
	cfg.NumTrees = n
	st, err := treebase.NewStream(seed, cfg)
	if err != nil {
		return err
	}
	return writeNewick(path, st)
}

// prepare mines the corpus resident, in one process, and keeps the v3
// bytes every pass's master must reproduce exactly.
func (w *spill) prepare() error {
	src := phyloio.OpenTrees([]string{w.input}, nil)
	defer src.Close()
	sh, err := core.MineForestStreamShardCtx(context.Background(), src, w.opts, core.StreamConfig{Workers: 1})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := store.SaveShard(&buf, sh); err != nil {
		return err
	}
	w.want = buf.Bytes()
	return nil
}

func (w *spill) pass(tr *tracer, root spanID) (passOut, error) {
	ctx := context.Background()
	files := []string{w.input}
	var pc passCounts
	s := tr.begin("phyloio.count", root)
	total, err := phyloio.CountTrees(files, nil)
	tr.end(s)
	if err != nil {
		return passOut{ops: 1}, err
	}
	s = tr.begin("store.plan", root)
	m, err := store.NewManifest(files, total, spillParts, w.opts)
	if err == nil {
		err = m.Save(filepath.Join(w.dir, "plan.json"))
	}
	tr.end(s)
	if err != nil {
		return passOut{ops: 1}, err
	}
	for i, p := range m.Partitions {
		sh := core.NewSupportShard(w.opts)
		spillDir := m.ShardPath(i) + ".spill"
		if err := os.MkdirAll(spillDir, 0o777); err != nil {
			return passOut{ops: 1}, err
		}
		acc, err := store.NewSpillAccumulator(sh, spillBudget, spillDir)
		if err != nil {
			return passOut{ops: 1}, err
		}
		src := phyloio.OpenTreesRange(files, nil, p.Skip, p.Trees)
		cfg := core.StreamConfig{Workers: runtime.GOMAXPROCS(0), Resume: sh, AfterRound: acc.AfterRound}
		var it core.TreeIterator = src
		st := tr.begin("core.stream", root)
		if tr != nil {
			it = &tracedIter{it: src, tr: tr, parent: st.id}
			cfg.AfterRound = roundHook(tr, st.id, acc.AfterRound, &pc)
		}
		mined, err := core.MineForestStreamShardCtx(ctx, it, w.opts, cfg)
		tr.end(st)
		src.Close()
		if err != nil {
			return passOut{ops: 1}, err
		}
		if mined.Trees() != p.Trees {
			return passOut{ops: 1}, fmt.Errorf("partition %d mined %d trees, plan assigned %d", i, mined.Trees(), p.Trees)
		}
		if tr != nil {
			pc.segments += acc.Segments()
			pc.writeBytes += dirSize(spillDir)
		}
		s = tr.begin("store.finish", root)
		err = acc.Finish(m.ShardPath(i))
		tr.end(s)
		if err != nil {
			return passOut{ops: 1}, err
		}
		if err := os.RemoveAll(spillDir); err != nil {
			return passOut{ops: 1}, err
		}
		if tr != nil {
			pc.writeBytes += fileSize(m.ShardPath(i))
		}
	}
	master := core.NewSupportShard(w.opts)
	s = tr.begin("store.fold", root)
	_, err = store.FoldManifestShards(master, m, false)
	tr.end(s)
	if err != nil {
		return passOut{ops: 1}, err
	}
	w.masterPath = m.MasterPath()
	s = tr.begin("store.save", root)
	err = saveShard(w.masterPath, master)
	tr.end(s)
	if err != nil {
		return passOut{ops: 1}, err
	}
	s = tr.begin("store.compact", root)
	err = store.CompactShardV4(w.v4Path, master)
	tr.end(s)
	if err != nil {
		return passOut{ops: 1}, err
	}
	w.gotEntries = master.Len()
	if tr != nil {
		pc.trees = total
		pc.entries = master.Len()
		pc.v4Bytes = fileSize(w.v4Path)
		pc.writeBytes += fileSize(w.masterPath) + pc.v4Bytes
		w.traced(pc, master)
	}
	return passOut{units: total, ops: 1}, nil
}

func (w *spill) check() (int, error) {
	got, err := os.ReadFile(w.masterPath)
	if err != nil {
		return 1, err
	}
	if !bytes.Equal(got, w.want) {
		return 1, fmt.Errorf("master shard (%d bytes) is not byte-identical to the resident mine (%d bytes)", len(got), len(w.want))
	}
	if err := checkV4(w.v4Path, w.gotEntries, w.size); err != nil {
		return 1, err
	}
	return 0, nil
}

func (w *spill) layers(accts []*passAccount) (map[string]float64, error) {
	return w.miningLayers(accts)
}

func (w *spill) human(s *runStats) []humanMetric {
	return miningHuman(s)
}

func (w *spill) close() error { return nil }
