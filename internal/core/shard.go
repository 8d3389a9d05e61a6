package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"treemine/internal/tree"
)

// SupportShard is a mergeable partial result of Multiple_Tree_Mining: the
// per-pair support counts of some subset of a forest, together with the
// shard's own incrementally grown symbol table. Shards are the unit of
// streamed and distributed forest mining — the stream folds every round
// into one shard, distributed workers each mine a partition into their
// own, shards merge pairwise (symbol IDs are remapped through labels, so
// shards built over disjoint label sets combine correctly), and Finalize renders the merged counts into the
// same sorted FrequentPair output MineForest produces. Partial shards
// serialize through internal/store's version-3 format, which is what
// lets a long mining run checkpoint and resume.
//
// All methods are safe for concurrent use; AddTree from many goroutines
// contends on one mutex, so for throughput mine through
// MineForestStreamShardCtx, whose rounds fan out over one shared symbol
// table.
type SupportShard struct {
	mu    sync.Mutex
	opts  ForestOptions
	trees int

	// Counts keyed by IKey over the shard-local symbol table.
	syms *Symbols
	sup  map[IKey]int64
}

// NewSupportShard returns an empty shard accumulating support under opts.
// Every shard that will ever be merged with it must be built with equal
// options.
func NewSupportShard(opts ForestOptions) *SupportShard {
	return &SupportShard{opts: opts, syms: NewSymbols(), sup: make(map[IKey]int64)}
}

// Options returns the mining options the shard accumulates under.
func (sh *SupportShard) Options() ForestOptions { return sh.opts }

// Trees returns the number of trees folded into the shard so far,
// including trees contributed by merged shards.
func (sh *SupportShard) Trees() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.trees
}

// Len returns the number of distinct support entries currently held —
// the quantity that bounds a shard's memory, independent of how many
// trees streamed through it.
func (sh *SupportShard) Len() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.sup)
}

// AddTree mines t under the shard's options and folds its qualifying
// items into the support counts: +1 per item t contains with occurrence
// ≥ MinOccur, de-duplicated per label pair when IgnoreDist is set. New
// labels are interned into the shard's own symbol table as they appear —
// no up-front whole-forest symbol pass is needed, which is what makes
// shards streamable. Like Mine it panics, leaving the shard unchanged,
// when t can reach a distance past MaxPackedDist.
func (sh *SupportShard) AddTree(t *tree.Tree) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	mark := sh.syms.Len()
	sh.syms.InternTree(t)
	m := getMiner(t, sh.opts.Options, sh.syms)
	defer m.release()
	if err := reachErr(t, sh.opts.MaxDist, m.maxJ); err != nil {
		sh.syms.truncate(mark)
		panic(err)
	}
	sh.trees++
	items, minN := mineTreeSupport(m, sh.opts)
	items.drain(func(a, b uint32, dc int, n int32) {
		if n >= minN {
			sh.sup[sh.supportKey(a, b, dc)]++
		}
	})
}

// supportKey packs a support accumulator's (a, b, distance slot) into the
// shard's key: the slot is the distance, or DistWild under IgnoreDist.
func (sh *SupportShard) supportKey(a, b uint32, dc int) IKey {
	if sh.opts.IgnoreDist {
		return NewIKey(a, b, DistWild)
	}
	return NewIKey(a, b, Dist(dc))
}

// Merge folds other's counts and tree tally into sh. The two shards'
// options must be equal; symbol IDs are remapped through their labels
// (cross-table symbol translation), so the shards may have been built
// over different (even disjoint) label sets in any order — Merge is
// commutative and associative in the final counts. other is read under
// its own lock and left unchanged; the two locks are never held
// together, so concurrent AddTree and Merge calls on any shard
// arrangement cannot deadlock.
//
// Merge is the in-memory half of distributed mining: worker processes
// each mine a tree range into a private shard, and the coordinator folds
// them — in any association order — into one master whose canonical
// Snapshot is identical to a single-process run's.
func (sh *SupportShard) Merge(other *SupportShard) error {
	if other.opts != sh.opts {
		return fmt.Errorf("core: merging shards with different options (%+v vs %+v)", other.opts, sh.opts)
	}
	otherTrees, labels, items := other.snapshotLocal()
	return sh.FoldTranslated(otherTrees, labels, items)
}

// FoldTranslated folds support entries coded against a foreign label
// table into sh: trees is added to the tally, and each item's symbol
// indices are translated through labels into sh's own table. It is the
// primitive Merge and the spill/merge streaming paths share — a batch
// folds under one lock acquisition, with the label translation vector
// built once per call. Items referencing labels out of range are
// rejected (the batch may have come from a corrupt file), though entries
// folded before the offending one remain — callers treating a fold error
// as fatal should discard sh. Distances past MaxPackedDist are rejected
// the same way.
func (sh *SupportShard) FoldTranslated(trees int, labels []string, items []ShardItem) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.trees += trees
	trans := make([]uint32, len(labels))
	for i, l := range labels {
		trans[i] = sh.syms.Intern(l)
	}
	for _, it := range items {
		if int(it.A) >= len(labels) || int(it.B) >= len(labels) {
			return fmt.Errorf("core: fold: symbol id out of range (%d labels)", len(labels))
		}
		if it.D > MaxPackedDist {
			return fmt.Errorf("core: fold: distance %s past MaxPackedDist", it.D)
		}
		sh.sup[NewIKey(trans[it.A], trans[it.B], it.D)] += it.N
	}
	return nil
}

// snapshotLocal exports the shard's state without canonicalizing: labels
// in intern order, items in map order coded against them. It is the O(n)
// export Merge uses — the canonical Snapshot sorts twice, which matters
// when merging every round of a streaming run.
func (sh *SupportShard) snapshotLocal() (trees int, labels []string, items []ShardItem) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	items = make([]ShardItem, 0, len(sh.sup))
	for k, n := range sh.sup {
		a, b := k.Syms()
		items = append(items, ShardItem{A: a, B: b, D: k.Dist(), N: n})
	}
	return sh.trees, sh.labels(), items
}

// labels returns the symbol table in intern (symbol ID) order; the
// caller holds sh.mu.
func (sh *SupportShard) labels() []string {
	labels := make([]string, sh.syms.Len())
	for id := range labels {
		labels[id] = sh.syms.Label(uint32(id))
	}
	return labels
}

// DrainSorted exports and clears the shard's current support entries:
// the items come back coded against the shard's own symbol table, sorted
// by (A, B, D), and the count map is reset while the symbol table and
// tree tally stay — so symbol IDs remain stable across successive
// drains. This is the spill primitive: an out-of-core accumulator drains
// the resident counts to a sorted on-disk run whenever they grow past
// its budget, and the union of all drained runs (summed per key) equals
// the counts an undrained shard would hold.
func (sh *SupportShard) DrainSorted() []ShardItem {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	items := make([]ShardItem, 0, len(sh.sup))
	for k, n := range sh.sup {
		a, b := k.Syms()
		items = append(items, ShardItem{A: a, B: b, D: k.Dist(), N: n})
	}
	SortShardItems(items)
	clear(sh.sup)
	return items
}

// LocalLabels returns the shard's label table in intern (symbol ID)
// order — the table DrainSorted items are coded against.
func (sh *SupportShard) LocalLabels() []string {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.labels()
}

// Finalize renders the accumulated counts into the public result: the
// pairs with support ≥ minsup, sorted by decreasing support then key —
// exactly MineForest's output shape. The shard is left intact, so a
// streaming pipeline can checkpoint intermediate results and keep
// mining. minsup ≤ 1 reports every accumulated pair.
func (sh *SupportShard) Finalize(minsup int) []FrequentPair {
	// Snapshot codes labels by lexicographic rank and orders items by
	// key, so a stable sort by support yields SortFrequentPairs' order
	// while comparing only integers.
	_, _, labels, items := sh.Snapshot()
	items = slices.DeleteFunc(items, func(it ShardItem) bool { return int(it.N) < minsup })
	SortShardItemsBySupport(items)
	out := slices.Grow([]FrequentPair(nil), len(items))
	for _, it := range items {
		out = append(out, FrequentPair{Key: Key{A: labels[it.A], B: labels[it.B], D: it.D}, Support: int(it.N)})
	}
	return out
}

// ShardItem is one serialized support entry: two indices into the
// snapshot's label table, a distance (DistWild under IgnoreDist), and
// the tree count.
type ShardItem struct {
	A, B uint32
	D    Dist
	N    int64
}

// Snapshot exports the shard's state for serialization in canonical
// form: its options, tree tally, the label table sorted
// lexicographically, and the support entries re-coded against that
// sorted table, ordered by (A, B, D). Canonicalizing erases intern
// order — which depends on tree arrival order, worker interleaving, and
// merge association — so two shards holding the same logical counts
// snapshot identically no matter how they were assembled. That is the
// invariant distributed mining's differential proof rests on: a master
// merged from any partitioning serializes to the same v3 bytes as a
// single-process run.
func (sh *SupportShard) Snapshot() (opts ForestOptions, trees int, labels []string, items []ShardItem) {
	var local []string
	opts = sh.opts
	trees, local, items = sh.snapshotLocal()
	labels, trans := canonicalLabels(local)
	for i := range items {
		a, b := trans[items[i].A], trans[items[i].B]
		if b < a {
			a, b = b, a
		}
		items[i].A, items[i].B = a, b
	}
	SortShardItems(items)
	return opts, trees, labels, items
}

// canonicalLabels sorts a label table lexicographically and returns the
// translation vector from old IDs to canonical ranks.
func canonicalLabels(local []string) (sorted []string, trans []uint32) {
	sorted = append([]string(nil), local...)
	sort.Strings(sorted)
	rank := make(map[string]uint32, len(sorted))
	for i, l := range sorted {
		rank[l] = uint32(i)
	}
	trans = make([]uint32, len(local))
	for i, l := range local {
		trans[i] = rank[l]
	}
	return sorted, trans
}

// SortShardItems sorts items by (A, B, D) ascending, stably — the
// DrainSorted and Snapshot order, and with rank-coded symbols the v4
// record order.
func SortShardItems(items []ShardItem) { radixSort(items, false) }

// SortShardItemsBySupport stably sorts items by descending count: the
// Finalize listing order, and v4's support permutation.
func SortShardItemsBySupport(items []ShardItem) { radixSort(items, true) }

// radixKey is the unsigned 128-bit key the sort kernel orders by: (A,
// B, D) with D's sign bit flipped so DistWild sorts first, or, by
// support, N with every bit but the sign flipped, so larger counts sort
// first.
func (it *ShardItem) radixKey(bySupport bool) (hi, lo uint64) {
	if bySupport {
		return 0, uint64(it.N) ^ (1<<63 - 1)
	}
	return uint64(it.A)<<32 | uint64(it.B), uint64(it.D) ^ 1<<63
}

// radixSort is the one support-entry sort kernel: a stable LSD radix
// sort over radixKey's 16 byte digits. One histogram pass counts every
// digit at once, and a digit all items share is skipped, so sorting by
// (A, B, D) over a 20,000-label table at packed distances scatters five
// times, not sixteen. Counts are uint32, which halves the histogram's
// cache footprint; 2^32 items would be 96 GiB.
func radixSort(items []ShardItem, bySupport bool) {
	n := len(items)
	if n < 2 {
		return
	}
	var count [16][256]uint32
	for i := range items {
		hi, lo := items[i].radixKey(bySupport)
		for d := 0; d < 8; d++ {
			count[d][byte(lo>>(8*d))]++
			count[d+8][byte(hi>>(8*d))]++
		}
	}
	src, dst := items, make([]ShardItem, n)
	for d := range count {
		c, shift := &count[d], 8*(d%8)
		hi, lo := src[0].radixKey(bySupport)
		if d >= 8 {
			lo = hi
		}
		if int(c[byte(lo>>shift)]) == n {
			continue
		}
		for b, sum := 0, uint32(0); b < 256; b++ {
			c[b], sum = sum, sum+c[b]
		}
		for i := range src {
			hi, lo := src[i].radixKey(bySupport)
			if d >= 8 {
				lo = hi
			}
			b := byte(lo >> shift)
			dst[c[b]] = src[i]
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &items[0] {
		copy(items, src)
	}
}

// RestoreShard rebuilds a shard from a Snapshot-shaped export, validating
// every reference so corrupt serialized input surfaces as an error and
// never as a panic or an invalid shard.
func RestoreShard(opts ForestOptions, trees int, labels []string, items []ShardItem) (*SupportShard, error) {
	if trees < 0 {
		return nil, fmt.Errorf("core: restore shard: negative tree count %d", trees)
	}
	if len(labels) > MaxSymbols {
		return nil, fmt.Errorf("core: restore shard: %d labels exceed the symbol space", len(labels))
	}
	sh := NewSupportShard(opts)
	sh.trees = trees
	for i, l := range labels {
		if id := sh.syms.Intern(l); id != uint32(i) {
			return nil, fmt.Errorf("core: restore shard: duplicate label %q", l)
		}
	}
	for _, it := range items {
		if int(it.A) >= len(labels) || int(it.B) >= len(labels) {
			return nil, fmt.Errorf("core: restore shard: symbol id out of range")
		}
		if it.N < 1 {
			return nil, fmt.Errorf("core: restore shard: non-positive count %d", it.N)
		}
		if opts.IgnoreDist != it.D.IsWild() {
			return nil, fmt.Errorf("core: restore shard: distance %s inconsistent with IgnoreDist=%v", it.D, opts.IgnoreDist)
		}
		if !it.D.IsWild() && (it.D < 0 || it.D > min(opts.MaxDist, MaxPackedDist)) {
			return nil, fmt.Errorf("core: restore shard: distance %s beyond maxdist %s or MaxPackedDist", it.D, opts.MaxDist)
		}
		sh.sup[NewIKey(it.A, it.B, it.D)] += it.N
	}
	return sh, nil
}
