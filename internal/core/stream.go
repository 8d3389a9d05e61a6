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
	// BatchSize is the number of trees each worker receives per round.
	// At most two rounds of Workers × BatchSize trees are resident at a
	// time — the one mining and the one read ahead — which (plus the
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
// peak memory is bounded by two rounds of workers × batch trees plus
// the support table, rather than by the corpus, so it scales to forests
// that never fit in memory. workers ≤ 0 selects GOMAXPROCS.
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
// Cancellation is cooperative and round-atomic: the reader checks ctx
// per tree and the mining workers per mined tree, but a cancelled round
// is rolled back rather than folded in — so the returned shard always
// covers an exact prefix of the stream, its Trees() count names that
// prefix, and a checkpoint of it resumes (SkipTrees = Trees()) to
// results identical to an uninterrupted run. The call returns ctx.Err()
// within one round (≤ workers × batch trees) of cancellation.
//
// Reading overlaps mining: one reader goroutine fills the next round
// from it while the current round mines, so at most two rounds are
// resident. The iterator is called from one goroutine at a time and
// never after the call returns — every return first stops the reader
// and waits for it, including for a Next already in flight, so a source
// blocked on its next tree (a stdin pipe) delays an error return until
// that tree or EOF arrives. An iterator error or cancellation met while
// reading ahead surfaces only after the round before it has been folded
// and its AfterRound and Checkpoint have run; the partial round is
// discarded.
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

	rctx, stop := context.WithCancel(ctx)
	rounds := make(chan streamRound)
	go readRounds(rctx, it, cfg.SkipTrees, workers*batch, rounds)
	defer func() {
		// Stop the reader and wait until it has closed rounds, so it
		// never touches the iterator after this call returns.
		stop()
		for range rounds {
		}
	}()

	sinceCheckpoint := 0
	for {
		r, ok := <-rounds
		if !ok {
			// The reader only gives up without a final round when it
			// saw ctx cancelled.
			return master, ctx.Err()
		}
		if r.panicked != nil {
			panic(r.panicked)
		}
		if r.err != nil {
			return master, r.err
		}
		if len(r.trees) > 0 {
			if err := master.mineRound(ctx, r.trees, r.base, workers); err != nil {
				return master, err
			}
			sinceCheckpoint += len(r.trees)
			// Drop the tree references before any checkpoint GC so the
			// round's trees are collectible — this is what keeps the live
			// heap at a checkpoint down to the round being read ahead.
			r.trees = nil
			if cfg.AfterRound != nil {
				if err := cfg.AfterRound(master); err != nil {
					return master, fmt.Errorf("core: stream: after round at %d trees: %w", master.Trees(), err)
				}
			}
		}

		if cfg.CheckpointEvery > 0 && cfg.Checkpoint != nil && sinceCheckpoint > 0 &&
			(sinceCheckpoint >= cfg.CheckpointEvery || r.done) {
			if err := faults.Hit(faults.StreamCheckpoint); err != nil {
				return master, fmt.Errorf("core: stream: checkpoint after %d trees: %w", master.Trees(), err)
			}
			if err := cfg.Checkpoint(master); err != nil {
				return master, fmt.Errorf("core: stream: checkpoint after %d trees: %w", master.Trees(), err)
			}
			sinceCheckpoint = 0
		}
		if r.done {
			return master, nil
		}
	}
}

// streamRound is what the reader hands the miner: up to one round of
// trees in stream order, base the stream index it names trees[0] by,
// and how the stream ended after them, if it did — done at EOF, err on
// an iterator failure or cancellation (whose partial round is dropped),
// panicked with the value of a panic raised by the iterator.
type streamRound struct {
	trees    []*tree.Tree
	base     int
	done     bool
	err      error
	panicked any
}

// readRounds is the stream's reader goroutine: it discards the first
// skip trees of the iterator, then sends rounds of up to size trees on
// out until a round ends the stream or ctx is cancelled, and closes out
// on return.
// Sends block until the miner takes the round, so the reader runs at
// most one round ahead. Only this goroutine calls the iterator or
// tracks the stream index. An iterator panic is handed over too and
// re-raised on the caller's goroutine, where the caller can recover it.
func readRounds(ctx context.Context, it TreeIterator, skip, size int, out chan<- streamRound) {
	defer close(out)
	send := func(r streamRound) bool {
		select {
		case out <- r:
			return true
		case <-ctx.Done():
			return false
		}
	}
	defer func() {
		if p := recover(); p != nil {
			send(streamRound{panicked: p})
		}
	}()

	// streamed is the absolute index (within the whole stream) of the
	// next tree the iterator will yield — used to name the offending
	// tree in iterator and worker errors.
	streamed := 0
	for ; streamed < skip; streamed++ {
		if err := ctx.Err(); err != nil {
			send(streamRound{err: err})
			return
		}
		if _, err := it.Next(); err != nil {
			if err == io.EOF {
				send(streamRound{done: true})
			} else {
				send(streamRound{err: fmt.Errorf("core: stream: skipping tree %d: %w", streamed, err)})
			}
			return
		}
	}

	for {
		r := streamRound{trees: make([]*tree.Tree, 0, size)}
		for len(r.trees) < size {
			if err := ctx.Err(); err != nil {
				r = streamRound{err: err}
				break
			}
			if err := faults.Hit(faults.StreamNext); err != nil {
				r = streamRound{err: fmt.Errorf("core: stream: tree %d: %w", streamed, err)}
				break
			}
			t, err := it.Next()
			if err == io.EOF {
				r.done = true
				break
			}
			if err != nil {
				r = streamRound{err: fmt.Errorf("core: stream: tree %d: %w", streamed, err)}
				break
			}
			streamed++
			if t != nil {
				r.trees = append(r.trees, t)
			}
		}
		r.base = streamed - len(r.trees)
		if !send(r) || r.done || r.err != nil {
			return
		}
	}
}

// mineRound mines one round of trees into sh — the one forest-mining pool
// behind the stream, MineForest, and MineForestParallel. The round's
// labels are interned into sh's symbol table serially; then at most
// workers goroutines mine strided slices of buf, each through a pooled
// miner that reads the shared table lock-free and folds each tree's
// items cell to cell into a worker-private accumulator of the same
// layout; the accumulators then fold into the first, which drains into
// sh's counts. The accumulators live for one round only, so a round
// holds O(workers × distinct items), never one item set per tree, and
// nothing outlives it but sh's counts. Support counts are additive, so
// the result is independent of worker scheduling — streamed output is
// deterministic. buf is never empty; base is the absolute stream index
// of buf[0].
//
// A round is atomic: on cancellation, a contained worker panic, or a
// tree that can reach a distance past MaxPackedDist (an error naming the
// tree), sh is left exactly as it was — counts, tree tally, and symbol
// table (rolled back to its length before the round) — preserving the
// exact-prefix invariant MineForestStreamShardCtx documents.
func (sh *SupportShard) mineRound(ctx context.Context, buf []*tree.Tree, base, workers int) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if workers > len(buf) {
		workers = len(buf)
	}
	opts := sh.opts
	mark := sh.syms.Len()
	for _, t := range buf {
		sh.syms.InternTree(t)
	}
	accs := make([]*accum, workers)
	errs := make([]error, workers)
	work := func(w int) {
		accs[w] = new(accum)
		accs[w].init(sh.syms.Len(), supportSlots(opts))
		m := minerPool.Get().(*miner)
		for i := w; i < len(buf); i += workers {
			if err := ctx.Err(); err != nil {
				errs[w] = err
				break
			}
			err := guard.Run(func() error {
				if err := faults.Hit(faults.MineWorker); err != nil {
					return err
				}
				m.reset(buf[i], opts.Options, sh.syms)
				if err := reachErr(buf[i], opts.MaxDist, m.maxJ); err != nil {
					return err
				}
				items, minN := mineTreeSupport(m, opts)
				accs[w].fold(items, minN, true)
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
		sh.syms.truncate(mark)
		return err
	}

	sh.trees += len(buf)
	// Sum the privates cell to cell first, so each distinct item costs
	// one map insert rather than one per worker holding it.
	for _, ac := range accs[1:] {
		accs[0].fold(ac, 1, false)
	}
	if len(sh.sup) == 0 {
		// A fresh shard (every MineForest call) takes the round's items
		// in one allocation instead of growing its map.
		sh.sup = make(map[IKey]int64, accs[0].size())
	}
	accs[0].drain(func(a, b uint32, dc int, n int32) {
		sh.sup[sh.supportKey(a, b, dc)] += int64(n)
	})
	return nil
}
