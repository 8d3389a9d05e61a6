package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"treemine/internal/faults"
	"treemine/internal/guard"
	"treemine/internal/tree"
)

// Chaos suite: fault-injection and cancellation tests for the parallel
// and streaming entry points. Every test here runs under `make chaos`
// with -race; the names match the `make race` regex
// (Parallel|Forest|Shard|Stream|Differential) so the standing race gate
// covers them too.

// cancelAfterIterator wraps an iterator and cancels the context after
// yielding k trees — a deterministic "user hits Ctrl-C mid-stream".
type cancelAfterIterator struct {
	inner   TreeIterator
	cancel  context.CancelFunc
	k, seen int
}

func (c *cancelAfterIterator) Next() (*tree.Tree, error) {
	t, err := c.inner.Next()
	if err == nil {
		c.seen++
		if c.seen == c.k {
			c.cancel()
		}
	}
	return t, err
}

// errAtIterator fails with err at tree index k (0-based), yielding the
// underlying trees before that.
type errAtIterator struct {
	inner TreeIterator
	k, i  int
	err   error
}

func (e *errAtIterator) Next() (*tree.Tree, error) {
	if e.i == e.k {
		return nil, e.err
	}
	e.i++
	return e.inner.Next()
}

// waitNoExtraGoroutines retries until the goroutine count returns to
// the baseline (drained pools unwind asynchronously after Wait).
func waitNoExtraGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d > baseline %d\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamShardCancelCheckpointResumeDifferential is the headline
// acceptance test: cancelling MineForestStreamShardCtx mid-stream
// returns context.Canceled promptly, the shard it returns covers an
// exact prefix of the stream, and checkpointing that shard then
// resuming with SkipTrees = Trees() finishes to results identical to an
// uninterrupted run.
func TestStreamShardCancelCheckpointResumeDifferential(t *testing.T) {
	const n, seed, size, alpha = 400, 19, 30, 8
	opts := DefaultForestOptions()
	want, err := MineForestStream(newGenIterator(seed, n, size, alpha), opts, 3)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	it := &cancelAfterIterator{inner: newGenIterator(seed, n, size, alpha), cancel: cancel, k: 150}
	partial, err := MineForestStreamShardCtx(ctx, it, opts, StreamConfig{Workers: 3, BatchSize: 16})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled stream error = %v, want context.Canceled", err)
	}
	if partial == nil {
		t.Fatal("cancelled stream returned no shard to checkpoint")
	}
	p := partial.Trees()
	// Round-atomic cancellation: the prefix can be shorter than the
	// point of cancellation (the in-flight round is discarded), but
	// never longer than one full round past it.
	if p > 150 {
		t.Fatalf("shard covers %d trees, beyond the cancellation point 150", p)
	}

	// Checkpoint = Snapshot/Restore round trip (what the store file does).
	o, trees, labels, items := partial.Snapshot()
	restored, err := RestoreShard(o, trees, labels, items)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := MineForestStreamShardCtx(context.Background(),
		newGenIterator(seed, n, size, alpha), opts,
		StreamConfig{Workers: 3, BatchSize: 16, Resume: restored, SkipTrees: restored.Trees()})
	if err != nil {
		t.Fatal(err)
	}
	if sh.Trees() != n {
		t.Fatalf("resumed shard holds %d trees, want %d", sh.Trees(), n)
	}
	if got := sh.Finalize(opts.MinSup); !reflect.DeepEqual(got, want) {
		t.Fatalf("resume after cancel diverged: %d vs %d pairs", len(got), len(want))
	}
}

// TestLevelVecCancelledStreamPrefixDifferential pins the §48 blocked
// accumulation path under a failed round: every tree of this corpus
// drains through the dense cache-blocked accumulator (the small alphabet
// keeps the miner in dense mode), and the partial shard a cancelled or
// panicking MineForestStreamShardCtx returns must still be the EXACT
// state of a stream prefix — finalizing it equals batch-mining the same
// prefix tree-for-tree, and its canonical Snapshot, labels included,
// equals that of a shard mined on just the prefix.
//
// The cases cover where the failure lands: a cancellation seen by the
// fill loop (the round never starts), one seen by the workers of a full
// round, and an injected worker panic mid-round. In the last two the
// alphabet grows along the stream, so the failed round interns labels
// no earlier round had and only a rollback of the shared symbol table
// keeps them out of the snapshot.
func TestLevelVecCancelledStreamPrefixDifferential(t *testing.T) {
	const n, seed, size, alpha = 500, 48, 60, 12
	opts := DefaultForestOptions()

	// Sanity: this shape really exercises the blocked path.
	probe := newGenIterator(seed, n, size, alpha)
	tr0, err := probe.Next()
	if err != nil {
		t.Fatal(err)
	}
	syms := NewSymbols()
	syms.InternTree(tr0)
	m := getMiner(tr0, opts.Options, syms)
	m.acc.init(syms.Len(), m.nd)
	if m.acc.dense == nil {
		m.acc.discard()
		m.release()
		t.Fatal("probe tree not in dense mode; corpus would miss the blocked path")
	}
	m.acc.discard()
	m.release()

	// Rounds are 3 workers × 16 trees = 48 trees; 192 closes round 4.
	for _, tc := range []struct {
		name    string
		grow    int   // alphabet growth period (0: fixed alphabet)
		limit   int   // the failure lands at or before this tree
		cancel  bool  // cancel after limit trees, else panic a worker
		wantErr error // what the stream must return
	}{
		{"cancel-in-fill", 0, 200, true, context.Canceled},
		{"cancel-in-round", 4, 192, true, context.Canceled},
		{"core-mine-worker=panic", 4, 160, false, guard.ErrPanic},
	} {
		t.Run(tc.name, func(t *testing.T) {
			faults.Reset()
			t.Cleanup(faults.Reset)
			gen := func() TreeIterator {
				g := newGenIterator(seed, n, size, alpha)
				g.grow = tc.grow
				return g
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			it := gen()
			if tc.cancel {
				it = &cancelAfterIterator{inner: it, cancel: cancel, k: tc.limit}
			} else {
				faults.Enable(faults.MineWorker, faults.Spec{Mode: faults.ModePanic, After: tc.limit, Count: 1})
			}
			partial, err := MineForestStreamShardCtx(ctx, it, opts, StreamConfig{Workers: 3, BatchSize: 16})
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("failed stream error = %v, want %v", err, tc.wantErr)
			}
			faults.Reset()
			p := partial.Trees()
			if p == 0 || p > tc.limit {
				t.Fatalf("shard covers %d trees, want a nonempty prefix ≤ the failure point %d", p, tc.limit)
			}

			fresh := gen()
			forest := make([]*tree.Tree, p)
			for i := range forest {
				if forest[i], err = fresh.Next(); err != nil {
					t.Fatal(err)
				}
			}
			want := MineForest(forest, opts)
			if got := partial.Finalize(opts.MinSup); !reflect.DeepEqual(got, want) {
				t.Fatalf("failed shard diverged from its %d-tree prefix: %d vs %d pairs", p, len(got), len(want))
			}
			ref := NewSupportShard(opts)
			for _, tr := range forest {
				ref.AddTree(tr)
			}
			_, gotTrees, gotLabels, gotItems := partial.Snapshot()
			_, wantTrees, wantLabels, wantItems := ref.Snapshot()
			if gotTrees != wantTrees || !reflect.DeepEqual(gotLabels, wantLabels) || !reflect.DeepEqual(gotItems, wantItems) {
				t.Fatalf("failed shard's snapshot differs from its %d-tree prefix's: %d vs %d trees, %d vs %d labels, %d vs %d items",
					p, gotTrees, wantTrees, len(gotLabels), len(wantLabels), len(gotItems), len(wantItems))
			}
		})
	}
}

// TestStreamIteratorErrorNamesTreeAndResumes injects an iterator
// failure at tree k: the error must name k, the returned shard must
// cover exactly the rounds before the failing one (the reader meets the
// failure while reading ahead, yet every earlier round is still mined
// and handed to AfterRound), the last checkpoint must still load, and
// resuming from it must finish to the uninterrupted result.
func TestStreamIteratorErrorNamesTreeAndResumes(t *testing.T) {
	const n, seed, size, alpha = 300, 23, 30, 8
	const failAt = 137
	const round = 2 * 16 // Workers × BatchSize
	opts := DefaultForestOptions()
	want, err := MineForestStream(newGenIterator(seed, n, size, alpha), opts, 2)
	if err != nil {
		t.Fatal(err)
	}

	var lastCkpt *SupportShard
	rounds := 0
	boom := errors.New("disk detached")
	it := &errAtIterator{inner: newGenIterator(seed, n, size, alpha), k: failAt, err: boom}
	partial, err := MineForestStreamShardCtx(context.Background(), it, opts, StreamConfig{
		Workers:         2,
		BatchSize:       16,
		CheckpointEvery: 50,
		AfterRound: func(*SupportShard) error {
			rounds++
			return nil
		},
		Checkpoint: func(sh *SupportShard) error {
			o, trees, labels, items := sh.Snapshot()
			restored, rerr := RestoreShard(o, trees, labels, items)
			if rerr != nil {
				return rerr
			}
			lastCkpt = restored
			return nil
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("iterator failure error = %v, want wrapped %v", err, boom)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("tree %d", failAt)) {
		t.Fatalf("error %q does not name the failing tree %d", err, failAt)
	}
	if got, wantTrees := partial.Trees(), failAt/round*round; got != wantTrees {
		t.Fatalf("failed stream's shard covers %d trees, want the %d of the rounds before tree %d", got, wantTrees, failAt)
	}
	if rounds != failAt/round {
		t.Fatalf("AfterRound ran %d times, want once per mined round (%d)", rounds, failAt/round)
	}
	if lastCkpt == nil {
		t.Fatal("no checkpoint was taken before the failure")
	}
	if lastCkpt.Trees() == 0 || lastCkpt.Trees() >= failAt {
		t.Fatalf("checkpoint covers %d trees, want a nonempty prefix below %d", lastCkpt.Trees(), failAt)
	}

	sh, err := MineForestStreamShardCtx(context.Background(),
		newGenIterator(seed, n, size, alpha), opts,
		StreamConfig{Workers: 2, BatchSize: 16, Resume: lastCkpt, SkipTrees: lastCkpt.Trees()})
	if err != nil {
		t.Fatal(err)
	}
	if got := sh.Finalize(opts.MinSup); !reflect.DeepEqual(got, want) {
		t.Fatalf("resume after iterator failure diverged: %d vs %d pairs", len(got), len(want))
	}
}

// watchedIterator wraps a stream source the way its owner sees it: a
// Next that overlaps another one, or that comes after close (called as
// soon as the stream returns), is a test error. When reached is set it
// is closed once the first at trees have been served.
type watchedIterator struct {
	t       *testing.T
	inner   TreeIterator
	at      int
	reached chan struct{}

	mu           sync.Mutex
	busy, closed bool
	served       int
}

func (w *watchedIterator) Next() (*tree.Tree, error) {
	w.mu.Lock()
	if w.closed {
		w.t.Error("iterator Next called after the stream returned")
	}
	if w.busy {
		w.t.Error("iterator Next called from two goroutines at once")
	}
	w.busy = true
	w.mu.Unlock()
	tr, err := w.inner.Next()
	w.mu.Lock()
	w.busy = false
	if err == nil {
		w.served++
		if w.served == w.at && w.reached != nil {
			close(w.reached)
		}
	}
	w.mu.Unlock()
	return tr, err
}

func (w *watchedIterator) close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.busy {
		w.t.Error("iterator Next still in flight when the stream returned")
	}
	w.closed = true
}

// waitReaderGone waits until no goroutine is running the stream's
// reader. The reader closes its channel as its last act and the stream
// waits for that before returning, so the goroutine can at most be
// unwinding: the wait yields rather than sleeps and fails past a
// deadline.
func waitReaderGone(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(5 * time.Second)
	for {
		stacks := buf[:runtime.Stack(buf, true)]
		if !bytes.Contains(stacks, []byte("core.readRounds(")) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream reader outlived the call:\n%s", stacks)
		}
		runtime.Gosched()
	}
}

// TestStreamIteratorNeverUsedAfterReturn pins the iterator contract of
// the read-ahead stream on every exit: the iterator is called from one
// goroutine at a time, never after MineForestStreamShardCtx returns, and
// no reader goroutine outlives the call — so a caller may close its
// source as soon as the call returns.
func TestStreamIteratorNeverUsedAfterReturn(t *testing.T) {
	const n, seed, size, alpha = 200, 61, 25, 8
	const workers, batch = 2, 16 // rounds of 32 trees
	boom := errors.New("boom")
	for _, tc := range []struct {
		name    string
		arm     func(cancel context.CancelFunc, it TreeIterator, cfg *StreamConfig) TreeIterator
		wantErr error
	}{
		{"success", nil, nil},
		{"iterator-error", func(_ context.CancelFunc, it TreeIterator, _ *StreamConfig) TreeIterator {
			return &errAtIterator{inner: it, k: 70, err: boom}
		}, boom},
		{"cancel-mid-round", func(cancel context.CancelFunc, it TreeIterator, _ *StreamConfig) TreeIterator {
			// Tree 40 is read while the first round mines.
			return &cancelAfterIterator{inner: it, cancel: cancel, k: 40}
		}, context.Canceled},
		{"core-mine-worker=panic", func(_ context.CancelFunc, it TreeIterator, _ *StreamConfig) TreeIterator {
			faults.Enable(faults.MineWorker, faults.Spec{Mode: faults.ModePanic, After: 40, Count: 1})
			return it
		}, guard.ErrPanic},
		{"after-round-error", func(_ context.CancelFunc, it TreeIterator, cfg *StreamConfig) TreeIterator {
			cfg.AfterRound = func(*SupportShard) error { return boom }
			return it
		}, boom},
		{"checkpoint-error", func(_ context.CancelFunc, it TreeIterator, cfg *StreamConfig) TreeIterator {
			cfg.CheckpointEvery = 1
			cfg.Checkpoint = func(*SupportShard) error { return boom }
			return it
		}, boom},
	} {
		t.Run(tc.name, func(t *testing.T) {
			faults.Reset()
			t.Cleanup(faults.Reset)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg := StreamConfig{Workers: workers, BatchSize: batch}
			var it TreeIterator = newGenIterator(seed, n, size, alpha)
			if tc.arm != nil {
				it = tc.arm(cancel, it, &cfg)
			}
			w := &watchedIterator{t: t, inner: it}
			sh, err := MineForestStreamShardCtx(ctx, w, DefaultForestOptions(), cfg)
			w.close()
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("stream error = %v, want %v", err, tc.wantErr)
			}
			if tc.wantErr == nil && sh.Trees() != n {
				t.Fatalf("stream mined %d trees, want %d", sh.Trees(), n)
			}
			waitReaderGone(t)
		})
	}
}

// panicAtIterator panics at tree index k (0-based).
type panicAtIterator struct {
	inner TreeIterator
	k, i  int
}

func (p *panicAtIterator) Next() (*tree.Tree, error) {
	if p.i == p.k {
		panic("source exploded")
	}
	p.i++
	return p.inner.Next()
}

// TestStreamIteratorPanicReachesCaller: a panic inside the iterator,
// raised on the reader goroutine, is re-raised on the caller's
// goroutine with its value, after the reader has stopped.
func TestStreamIteratorPanicReachesCaller(t *testing.T) {
	w := &watchedIterator{t: t, inner: newGenIterator(71, 100, 20, 6)}
	got := func() (p any) {
		defer func() { p = recover() }()
		MineForestStreamShardCtx(context.Background(), &panicAtIterator{inner: w, k: 40}, DefaultForestOptions(), StreamConfig{Workers: 2, BatchSize: 8})
		return nil
	}()
	w.close()
	if got != "source exploded" {
		t.Fatalf("recovered %v, want the iterator's panic", got)
	}
	waitReaderGone(t)
}

// TestStreamReadAheadOverlapsRound: the reader fills the next round
// while the current one is still being handled. The first AfterRound
// waits, with a bound, until the iterator has served the second round's
// last tree — which a stream that reads only between rounds never does.
func TestStreamReadAheadOverlapsRound(t *testing.T) {
	const workers, batch = 2, 8
	const round = workers * batch
	w := &watchedIterator{t: t, inner: newGenIterator(67, 3*round, 20, 6), at: 2 * round, reached: make(chan struct{})}
	calls := 0
	sh, err := MineForestStreamShardCtx(context.Background(), w, DefaultForestOptions(), StreamConfig{
		Workers:   workers,
		BatchSize: batch,
		AfterRound: func(*SupportShard) error {
			calls++
			if calls > 1 {
				return nil
			}
			select {
			case <-w.reached:
				return nil
			case <-time.After(5 * time.Second):
				return errors.New("the second round was not read while the first was handled")
			}
		},
	})
	w.close()
	if err != nil {
		t.Fatal(err)
	}
	if sh.Trees() != 3*round || calls != 3 {
		t.Fatalf("stream mined %d trees in %d rounds, want %d in 3", sh.Trees(), calls, 3*round)
	}
}

// TestParallelEntryPointsContainWorkerPanics injects a panic into the
// worker of every parallel entry point: each must return an error
// wrapping guard.ErrPanic (naming the work unit), not crash, and leak
// no goroutines.
func TestParallelEntryPointsContainWorkerPanics(t *testing.T) {
	faults.Reset()
	t.Cleanup(faults.Reset)
	forest := shardChaosForest(31, 40, 25)
	opts := DefaultForestOptions()

	cases := []struct {
		name  string
		point string
		call  func() error
	}{
		{"MineForestParallelCtx", faults.MineWorker, func() error {
			_, err := MineForestParallelCtx(context.Background(), forest, opts, 4)
			return err
		}},
		{"MineForestStreamCtx", faults.MineWorker, func() error {
			_, err := MineForestStreamCtx(context.Background(), NewSliceIterator(forest), opts, 4)
			return err
		}},
		{"BuildProfilesCtx", faults.ProfileWorker, func() error {
			_, err := BuildProfilesCtx(context.Background(), forest, VariantDistOccur, opts.Options, 4)
			return err
		}},
		{"TDistMatrixParallelCtx", faults.MatrixWorker, func() error {
			_, err := TDistMatrixParallelCtx(context.Background(), forest, VariantDistOccur, opts.Options, 4)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			faults.Reset()
			faults.Enable(tc.point, faults.Spec{Mode: faults.ModePanic, After: 7, Count: 1})
			err := tc.call()
			if err == nil {
				t.Fatalf("%s swallowed an injected worker panic", tc.name)
			}
			if !errors.Is(err, guard.ErrPanic) {
				t.Fatalf("%s error = %v, want wrapped guard.ErrPanic", tc.name, err)
			}
			waitNoExtraGoroutines(t, base)
		})
	}
}

// shardChaosForest builds a deterministic forest via the generator
// iterator (materialized; small enough for the panic-containment runs).
func shardChaosForest(seed int64, n, size int) []*tree.Tree {
	it := newGenIterator(seed, n, size, 8)
	out := make([]*tree.Tree, 0, n)
	for {
		tr, err := it.Next()
		if err == io.EOF {
			return out
		}
		out = append(out, tr)
	}
}

// TestStreamWorkerCountEdgesUnderCancellation sweeps the degenerate
// pool shapes (a single worker; more workers than the batch holds)
// against the cancellation modes: already-cancelled context, expired
// deadline, and cancel-after-first-batch. Every combination must return
// the context's error, never hang, and hand back a prefix shard.
func TestStreamWorkerCountEdgesUnderCancellation(t *testing.T) {
	const n, seed, size, alpha = 200, 29, 25, 8
	opts := DefaultForestOptions()
	for _, workers := range []int{1, 16} {
		batch := 8 // workers=16 > batch=8: more workers than work per round
		for _, mode := range []string{"immediate", "deadline", "after-first-batch"} {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, mode), func(t *testing.T) {
				var ctx context.Context
				var cancel context.CancelFunc
				it := TreeIterator(newGenIterator(seed, n, size, alpha))
				wantErr := context.Canceled
				switch mode {
				case "immediate":
					ctx, cancel = context.WithCancel(context.Background())
					cancel()
				case "deadline":
					ctx, cancel = context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
					wantErr = context.DeadlineExceeded
				case "after-first-batch":
					ctx, cancel = context.WithCancel(context.Background())
					it = &cancelAfterIterator{inner: it, cancel: cancel, k: workers*batch + 1}
				}
				defer cancel()
				sh, err := MineForestStreamShardCtx(ctx, it, opts,
					StreamConfig{Workers: workers, BatchSize: batch})
				if !errors.Is(err, wantErr) {
					t.Fatalf("error = %v, want %v", err, wantErr)
				}
				if sh == nil {
					t.Fatal("no shard returned")
				}
				if mode != "after-first-batch" && sh.Trees() != 0 {
					t.Fatalf("pre-cancelled stream mined %d trees", sh.Trees())
				}
				// Whatever prefix came back must resume to the full result.
				o, trees, labels, items := sh.Snapshot()
				restored, rerr := RestoreShard(o, trees, labels, items)
				if rerr != nil {
					t.Fatal(rerr)
				}
				full, ferr := MineForestStreamShardCtx(context.Background(),
					newGenIterator(seed, n, size, alpha), opts,
					StreamConfig{Workers: workers, BatchSize: batch, Resume: restored, SkipTrees: restored.Trees()})
				if ferr != nil {
					t.Fatal(ferr)
				}
				if full.Trees() != n {
					t.Fatalf("resumed to %d trees, want %d", full.Trees(), n)
				}
			})
		}
	}
}

// TestParallelCancelledReturnsContextError: the batch (non-streaming)
// parallel entry points also observe cancellation between trees.
func TestParallelCancelledReturnsContextError(t *testing.T) {
	forest := shardChaosForest(37, 30, 25)
	opts := DefaultForestOptions()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MineForestParallelCtx(ctx, forest, opts, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("MineForestParallelCtx error = %v, want Canceled", err)
	}
	if _, err := BuildProfilesCtx(ctx, forest, VariantDistOccur, opts.Options, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("BuildProfilesCtx error = %v, want Canceled", err)
	}
	if _, err := TDistMatrixParallelCtx(ctx, forest, VariantDistOccur, opts.Options, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("TDistMatrixParallelCtx error = %v, want Canceled", err)
	}
}

// TestStreamCheckpointFaultInjection drives the checkpoint failpoint:
// an injected checkpoint failure aborts the stream with a wrapped
// error, and after the failpoint disarms the same run succeeds.
func TestStreamCheckpointFaultInjection(t *testing.T) {
	faults.Reset()
	t.Cleanup(faults.Reset)
	opts := DefaultForestOptions()
	faults.Enable(faults.StreamCheckpoint, faults.Spec{Mode: faults.ModeError, Count: 1})
	_, err := MineForestStreamShardCtx(context.Background(),
		newGenIterator(3, 100, 20, 5), opts,
		StreamConfig{Workers: 2, BatchSize: 10, CheckpointEvery: 30,
			Checkpoint: func(*SupportShard) error { return nil }})
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("checkpoint fault error = %v, want injected", err)
	}
	if !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("error %q does not name the checkpoint stage", err)
	}

	sh, err := MineForestStreamShardCtx(context.Background(),
		newGenIterator(3, 100, 20, 5), opts,
		StreamConfig{Workers: 2, BatchSize: 10, CheckpointEvery: 30,
			Checkpoint: func(*SupportShard) error { return nil }})
	if err != nil || sh.Trees() != 100 {
		t.Fatalf("post-fault run: %v, trees %d", err, sh.Trees())
	}
}
