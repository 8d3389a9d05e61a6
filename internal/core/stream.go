package core

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"

	"treemine/internal/faults"
	"treemine/internal/guard"
	"treemine/internal/tree"
)

// TreeIterator yields the trees of a forest one at a time. Next returns
// io.EOF after the last tree; any other error aborts the consumer.
// Iterators let forest mining run over corpora that never fit in memory
// — a Newick stream on disk, a generator, a network feed.
type TreeIterator interface {
	Next() (*tree.Tree, error)
}

// sliceIterator adapts an in-memory forest to the TreeIterator interface.
type sliceIterator struct {
	trees []*tree.Tree
	i     int
}

// NewSliceIterator returns a TreeIterator over an in-memory forest.
func NewSliceIterator(trees []*tree.Tree) TreeIterator {
	return &sliceIterator{trees: trees}
}

func (it *sliceIterator) Next() (*tree.Tree, error) {
	if it.i >= len(it.trees) {
		return nil, io.EOF
	}
	t := it.trees[it.i]
	it.i++
	return t, nil
}

// StreamConfig tunes MineForestStreamShard beyond the plain
// MineForestStream entry point. The zero value is usable: GOMAXPROCS
// workers, the default batch size, no checkpointing, a fresh shard.
type StreamConfig struct {
	// Workers is the number of concurrent mining goroutines; ≤ 0 selects
	// GOMAXPROCS.
	Workers int
	// BatchSize is the number of trees each worker receives per round;
	// Workers × BatchSize trees are resident at a time, which (plus the
	// support shard itself) is the pipeline's whole memory footprint.
	// ≤ 0 selects the default of 64.
	BatchSize int
	// CheckpointEvery invokes Checkpoint after at least this many trees
	// have been folded in since the last checkpoint (and once more at
	// the end of the stream). 0 disables checkpointing.
	CheckpointEvery int
	// Checkpoint receives the master shard between rounds — typically to
	// serialize it through internal/store. The shard is quiescent for
	// the duration of the call. A non-nil error aborts the stream.
	Checkpoint func(*SupportShard) error
	// AfterRound, when non-nil, runs after every mined round while the
	// master shard is quiescent — before any checkpoint due that round.
	// It is the out-of-core hook: a spill accumulator checks the shard's
	// resident entry count here and drains it to disk past its budget. A
	// non-nil error aborts the stream.
	AfterRound func(*SupportShard) error
	// Resume, when non-nil, is the shard to continue into (e.g. one
	// reloaded from a checkpoint file) instead of a fresh one. Its
	// options must equal the mining options.
	Resume *SupportShard
	// SkipTrees discards this many leading trees from the iterator
	// before mining — set it to Resume.Trees() when replaying the same
	// stream a checkpointed run was consuming.
	SkipTrees int
}

const defaultStreamBatch = 64

// MineForestStream is Multiple_Tree_Mining over a tree stream: trees are
// consumed from it in bounded rounds, mined concurrently by workers over
// one shared symbol table, and folded into one support shard. The output
// is exactly MineForest's — same pairs, same counts, same order — but
// peak memory is bounded by workers × batch trees plus the support
// table, rather than by the corpus, so it scales to forests that never
// fit in memory. workers ≤ 0 selects GOMAXPROCS.
func MineForestStream(it TreeIterator, opts ForestOptions, workers int) ([]FrequentPair, error) {
	return MineForestStreamCtx(context.Background(), it, opts, workers)
}

// MineForestStreamCtx is MineForestStream under a context: cancellation
// is observed within one batch of work and surfaces as ctx.Err().
func MineForestStreamCtx(ctx context.Context, it TreeIterator, opts ForestOptions, workers int) ([]FrequentPair, error) {
	sh, err := MineForestStreamShardCtx(ctx, it, opts, StreamConfig{Workers: workers})
	if err != nil {
		return nil, err
	}
	return sh.Finalize(opts.MinSup), nil
}

// MineForestStreamShard is the configurable streaming core: it returns
// the accumulated SupportShard instead of finalizing, supports
// checkpoint callbacks and resuming from a restored shard, and on error
// returns the shard mined so far alongside the error (so a caller can
// checkpoint even a failed run).
func MineForestStreamShard(it TreeIterator, opts ForestOptions, cfg StreamConfig) (*SupportShard, error) {
	return MineForestStreamShardCtx(context.Background(), it, opts, cfg)
}

// MineForestStreamShardCtx is MineForestStreamShard under a context.
// Cancellation is cooperative and round-atomic: the iterator fill loop
// checks ctx per tree and the mining workers per mined tree, but a
// cancelled round is rolled back rather than folded in — so the returned
// shard always covers an exact prefix of the stream, its Trees() count
// names that prefix, and a checkpoint of it resumes (SkipTrees = Trees())
// to results identical to an uninterrupted run. The call returns
// ctx.Err() within one round (≤ workers × batch trees) of cancellation.
//
// A worker panic is contained at the pool boundary: it surfaces as an
// error wrapping guard.ErrPanic naming the offending stream tree index,
// the remaining workers drain, and — like every other mid-stream error —
// the shard mined through the last completed round is still returned.
// Iterator errors are wrapped with the index of the tree that failed.
func MineForestStreamShardCtx(ctx context.Context, it TreeIterator, opts ForestOptions, cfg StreamConfig) (*SupportShard, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = defaultStreamBatch
	}
	master := cfg.Resume
	if master == nil {
		master = NewSupportShard(opts)
	} else if master.Options() != opts {
		return nil, fmt.Errorf("core: resume shard was mined with options %+v, stream wants %+v",
			master.Options(), opts)
	}

	// streamed is the absolute index (within the whole stream) of the
	// next tree the iterator will yield — used to name the offending
	// tree in iterator and worker errors.
	streamed := 0
	for ; streamed < cfg.SkipTrees; streamed++ {
		if err := ctx.Err(); err != nil {
			return master, err
		}
		if _, err := it.Next(); err != nil {
			if err == io.EOF {
				return master, nil
			}
			return master, fmt.Errorf("core: stream: skipping tree %d: %w", streamed, err)
		}
	}

	buf := make([]*tree.Tree, 0, workers*batch)
	sinceCheckpoint := 0
	for {
		buf = buf[:0]
		done := false
		for len(buf) < cap(buf) {
			if err := ctx.Err(); err != nil {
				return master, err
			}
			if err := faults.Hit(faults.StreamNext); err != nil {
				return master, fmt.Errorf("core: stream: tree %d: %w", streamed, err)
			}
			t, err := it.Next()
			if err == io.EOF {
				done = true
				break
			}
			if err != nil {
				return master, fmt.Errorf("core: stream: tree %d: %w", streamed, err)
			}
			streamed++
			if t == nil {
				continue
			}
			buf = append(buf, t)
		}

		if len(buf) > 0 {
			if err := master.mineRound(ctx, buf, streamed-len(buf), workers); err != nil {
				return master, err
			}
			sinceCheckpoint += len(buf)
			// Drop the tree references before any checkpoint GC so the
			// round's trees are collectible — this is what keeps the live
			// heap bounded by one round.
			for i := range buf {
				buf[i] = nil
			}
			if cfg.AfterRound != nil {
				if err := cfg.AfterRound(master); err != nil {
					return master, fmt.Errorf("core: stream: after round at %d trees: %w", master.Trees(), err)
				}
			}
		}

		if cfg.CheckpointEvery > 0 && cfg.Checkpoint != nil && sinceCheckpoint > 0 &&
			(sinceCheckpoint >= cfg.CheckpointEvery || done) {
			if err := faults.Hit(faults.StreamCheckpoint); err != nil {
				return master, fmt.Errorf("core: stream: checkpoint after %d trees: %w", master.Trees(), err)
			}
			if err := cfg.Checkpoint(master); err != nil {
				return master, fmt.Errorf("core: stream: checkpoint after %d trees: %w", master.Trees(), err)
			}
			sinceCheckpoint = 0
		}
		if done {
			return master, nil
		}
	}
}

// mineRound mines one round of trees into sh — the one forest-mining pool
// behind the stream, MineForest, and MineForestParallel. The round's
// labels are interned into sh's symbol table serially; then at most
// workers goroutines mine strided slices of buf, each through a pooled
// miner that reads the shared table lock-free and folds into a
// worker-private accumulator, and the accumulators drain into sh's counts
// in worker order. The accumulators live for one round only, so nothing
// outlives it but sh's counts. Support counts are additive, so the result
// is independent of worker scheduling — streamed output is deterministic.
// Past MaxPackedDist workers count string-keyed items into private maps
// instead, added into sh after the round — so either way a round holds
// O(workers × distinct items), never one item set per tree. base is the
// absolute stream index of buf[0].
//
// A round is atomic: on cancellation or a contained worker panic sh is
// left exactly as it was — counts, tree tally, and symbol table (rolled
// back to its length before the round) — preserving the exact-prefix
// invariant MineForestStreamShardCtx documents.
func (sh *SupportShard) mineRound(ctx context.Context, buf []*tree.Tree, base, workers int) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if workers > len(buf) {
		workers = len(buf)
	}
	opts := sh.opts
	packed := sh.sup != nil
	mark := 0
	var accs []*accum
	var gens []map[Key]int64
	if packed {
		mark = sh.syms.Len()
		for _, t := range buf {
			sh.syms.InternTree(t)
		}
		accs = make([]*accum, workers)
	} else {
		gens = make([]map[Key]int64, workers)
	}
	errs := make([]error, workers)
	work := func(w int) {
		var m *miner
		if packed {
			accs[w] = new(accum)
			accs[w].init(sh.syms.Len(), supportSlots(opts))
			m = minerPool.Get().(*miner)
		} else {
			gens[w] = make(map[Key]int64)
		}
		for i := w; i < len(buf); i += workers {
			if err := ctx.Err(); err != nil {
				errs[w] = err
				break
			}
			err := guard.Run(func() error {
				if err := faults.Hit(faults.MineWorker); err != nil {
					return err
				}
				if !packed {
					for k := range supportItems(buf[i], opts) {
						gens[w][k]++
					}
					return nil
				}
				m.reset(buf[i], opts.Options, sh.syms)
				items, minN := mineTreeSupport(m, opts)
				sup := accs[w]
				items.drain(func(a, b uint32, dc int, n int32) {
					if n >= minN {
						sup.add(a, b, dc, 1)
					}
				})
				return nil
			})
			if err != nil {
				errs[w] = fmt.Errorf("core: mining tree %d: %w", base+i, err)
				// A panicking miner may hold a half-updated arena; drop
				// it instead of poisoning the pool.
				m = nil
				break
			}
		}
		if m != nil {
			m.release()
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	wg.Wait()
	if err := guard.First(errs); err != nil {
		if packed {
			sh.syms.truncate(mark)
		}
		return err
	}

	sh.trees += len(buf)
	for _, gen := range gens {
		for k, n := range gen {
			sh.gsup[k] += n
		}
	}
	if len(accs) > 0 {
		// Sum the privates densely first, so each distinct item costs
		// one map insert rather than one per worker holding it.
		for _, ac := range accs[1:] {
			ac.drain(accs[0].add)
		}
		if len(sh.sup) == 0 {
			// A fresh shard (every MineForest call) takes the round's
			// items in one allocation instead of growing its map.
			sh.sup = make(map[IKey]int64, accs[0].size())
		}
		accs[0].drain(func(a, b uint32, dc int, n int32) {
			sh.sup[sh.supportKey(a, b, dc)] += int64(n)
		})
	}
	return nil
}
