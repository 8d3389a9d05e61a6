package core

import (
	"context"
	"runtime"

	"treemine/internal/tree"
)

// ForestOptions configure Multiple_Tree_Mining over a set of trees.
type ForestOptions struct {
	Options
	// MinSup is the minimum number of trees that must contain a cousin
	// pair for it to be frequent (the paper's minsup, default 2).
	MinSup int
	// IgnoreDist makes support counting distance-insensitive: a tree
	// supports a label pair if the pair occurs at any distance ≤ MaxDist
	// (the paper's example where the support of (a,c) grows from 2 to 3
	// once distances are ignored).
	IgnoreDist bool
}

// DefaultForestOptions returns the paper's Table 2 defaults:
// maxdist = 1.5, minoccur = 1, minsup = 2.
func DefaultForestOptions() ForestOptions {
	return ForestOptions{Options: DefaultOptions(), MinSup: 2}
}

// FrequentPair is a cousin pair frequent across a forest: its key (with
// DistWild when IgnoreDist was set) and the number of trees supporting it.
type FrequentPair struct {
	Key     Key
	Support int
}

// MineForest is Multiple_Tree_Mining: it mines each tree with the
// per-tree options and returns the cousin pairs whose support (number of
// trees containing the pair, with the required distance unless
// IgnoreDist) is at least opts.MinSup. The result is sorted by
// decreasing support, then by key, so the strongest patterns come first.
// Its running time is O(Σ|Ti|²), linear in the number of trees for
// bounded tree size — the paper's Figures 6 and 7.
//
// The forest is mined as one round of the streaming pool on a single
// worker: one symbol table is interned over the whole forest, and every
// per-tree pass and the support accumulation then run on integer keys in
// reused buffers, so the cost per tree after the first is pair
// generation plus O(distinct items) — no string hashing and near-zero
// allocation. Labels come back as strings only in the result.
func MineForest(trees []*tree.Tree, opts ForestOptions) []FrequentPair {
	return MineForestParallel(trees, opts, 1)
}

// MineForestParallel is MineForest with per-tree mining fanned out over
// workers goroutines. Mining is embarrassingly parallel across trees —
// each tree's item set is independent — so support counting is the only
// synchronization point: the forest is one round of the streaming pool,
// whose workers share one symbol table lock-free and fold into private
// accumulators drained at the end. The result is identical to
// MineForest's (deterministic, sorted), only faster on large forests.
//
// workers ≤ 0 selects GOMAXPROCS.
func MineForestParallel(trees []*tree.Tree, opts ForestOptions, workers int) []FrequentPair {
	fp, err := MineForestParallelCtx(context.Background(), trees, opts, workers)
	if err != nil {
		// Unreachable without a cancellable context or an armed
		// failpoint: re-raise so the no-error signature keeps its
		// original crash semantics instead of silently dropping work.
		panic(err)
	}
	return fp
}

// MineForestParallelCtx is MineForestParallel under a context: workers
// check ctx between trees and the call returns ctx.Err() promptly, and a
// panicking worker is contained into an error naming the offending tree
// index while the remaining workers drain.
func MineForestParallelCtx(ctx context.Context, trees []*tree.Tree, opts ForestOptions, workers int) ([]FrequentPair, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// One round: workers × ⌈n/workers⌉ ≥ n trees.
	cfg := StreamConfig{Workers: workers, BatchSize: (len(trees) + workers - 1) / workers}
	sh, err := MineForestStreamShardCtx(ctx, NewSliceIterator(trees), opts, cfg)
	if err != nil {
		return nil, err
	}
	return sh.Finalize(opts.MinSup), nil
}

// supportSlots returns the number of distance slots support accumulation
// needs: one per concrete distance an IKey can carry — the miner's own
// slot count, so a tree's items fold cell to cell — or a single wildcard
// slot under IgnoreDist.
func supportSlots(opts ForestOptions) int {
	if opts.MaxDist < 0 {
		return 0
	}
	if opts.IgnoreDist {
		return 1
	}
	return int(min(opts.MaxDist, MaxPackedDist)) + 1
}

// mineTreeSupport mines the tree the miner is pointed at and returns the
// accumulator holding its items with the count an item needs to support
// the tree: folding the tree in adds one support per item of count ≥
// minN (accum.fold with unit set). That is one per item the tree
// contains with occurrence ≥ MinOccur, de-duplicated per label pair
// under IgnoreDist (where dc is always 0, the single wildcard slot).
// items is the miner's own buffer, laid out like an accumulator of the
// miner's symbol table and supportSlots(opts): fold or drain it before
// the miner mines again.
func mineTreeSupport(m *miner, opts ForestOptions) (items *accum, minN int32) {
	if m.maxJ == 0 {
		return &m.acc, 1 // drained after its last use, so empty
	}
	m.acc.init(m.syms.Len(), m.nd)
	m.accumulate(&m.acc)
	if !opts.IgnoreDist {
		return &m.acc, int32(opts.MinOccur)
	}
	// Collapse the tree's distances first so each label pair counts one
	// support regardless of how many distances realize it.
	m.wild.init(m.syms.Len(), 1)
	wild, minOccur := &m.wild, int32(opts.MinOccur)
	m.acc.drain(func(a, b uint32, dc int, n int32) {
		if n >= minOccur {
			wild.add(a, b, 0, 1)
		}
	})
	return wild, 1
}

// Support returns the support of a specific label pair at distance d
// (or any distance if d is DistWild) across the forest, using the
// per-tree options. For several probes over the same forest, mine once
// and use SupportOf instead.
func Support(trees []*tree.Tree, l1, l2 string, d Dist, opts Options) int {
	sets := make([]ItemSet, len(trees))
	for i, t := range trees {
		sets[i] = Mine(t, opts)
	}
	return SupportOf(sets, l1, l2, d)
}

// SupportOf counts the pre-mined item sets containing the label pair at
// distance d; DistWild counts sets containing the pair at any concrete
// distance. It does the per-probe work of Support without re-mining, so
// callers probing several pairs over one forest mine each tree once.
func SupportOf(sets []ItemSet, l1, l2 string, d Dist) int {
	k := NewKey(l1, l2, d)
	n := 0
	for _, s := range sets {
		if d.IsWild() {
			if _, ok := s.MinDistOf(l1, l2); ok {
				n++
			}
		} else if _, ok := s[k]; ok {
			n++
		}
	}
	return n
}
