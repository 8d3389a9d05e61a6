package core

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"treemine/internal/tree"
)

// TestSupportShardMatchesMineForest folds a forest into one shard
// serially and checks the finalized output against MineForest, in both
// key modes and under IgnoreDist.
func TestSupportShardMatchesMineForest(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	forest := randForest(rng, 20, 40, 5)
	for _, maxD := range []Dist{D(3), MaxPackedDist + 3} {
		for _, ignore := range []bool{false, true} {
			opts := ForestOptions{
				Options:    Options{MaxDist: maxD, MinOccur: 1},
				MinSup:     2,
				IgnoreDist: ignore,
			}
			sh := buildShard(forest, opts)
			if got, want := sh.Finalize(opts.MinSup), MineForest(forest, opts); !reflect.DeepEqual(got, want) {
				t.Fatalf("maxD=%v ignore=%v: shard %v != MineForest %v", maxD, ignore, got, want)
			}
			if sh.Trees() != len(forest) {
				t.Fatalf("Trees() = %d, want %d", sh.Trees(), len(forest))
			}
			if sh.Len() == 0 {
				t.Fatal("Len() = 0 on a mined shard")
			}
		}
	}
}

// TestSupportShardMergeRejectsMismatchedOptions pins the guard against
// combining shards mined under different parameters.
func TestSupportShardMergeRejectsMismatchedOptions(t *testing.T) {
	a := NewSupportShard(ForestOptions{Options: Options{MaxDist: D(3), MinOccur: 1}, MinSup: 2})
	b := NewSupportShard(ForestOptions{Options: Options{MaxDist: D(5), MinOccur: 1}, MinSup: 2})
	if err := a.Merge(b); err == nil {
		t.Fatal("merge across different options accepted")
	}
}

// TestSupportShardConcurrentAddTree hammers one shard with AddTree from
// many goroutines — the mutex must serialize symbol interning and count
// updates so the result is exactly the serial one. Run under -race this
// is the shard half of the `make race` gate.
func TestSupportShardConcurrentAddTree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	forest := randForest(rng, 64, 40, 6)
	opts := ForestOptions{Options: Options{MaxDist: D(3), MinOccur: 1}, MinSup: 2}
	want := MineForest(forest, opts)

	sh := NewSupportShard(opts)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(forest); i += workers {
				sh.AddTree(forest[i])
			}
		}(w)
	}
	wg.Wait()
	if got := sh.Finalize(opts.MinSup); !reflect.DeepEqual(got, want) {
		t.Fatalf("concurrent AddTree diverged: %d vs %d pairs", len(got), len(want))
	}
	if sh.Trees() != len(forest) {
		t.Fatalf("Trees() = %d, want %d", sh.Trees(), len(forest))
	}
}

// TestSupportShardConcurrentMergeAndAddTree interleaves Merge into a
// master shard with direct AddTree calls on it from other goroutines —
// the mixed write pattern a streaming checkpoint pipeline produces.
func TestSupportShardConcurrentMergeAndAddTree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	forest := randForest(rng, 60, 35, 5)
	opts := ForestOptions{Options: Options{MaxDist: D(3), MinOccur: 1}, MinSup: 2}
	want := MineForest(forest, opts)

	// First 20 trees go in directly; the rest arrive as 8 merged shards.
	master := NewSupportShard(opts)
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			master.AddTree(forest[i])
		}(i)
	}
	rest := forest[20:]
	const parts = 8
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			sh := NewSupportShard(opts)
			for i := p; i < len(rest); i += parts {
				sh.AddTree(rest[i])
			}
			if err := master.Merge(sh); err != nil {
				t.Error(err)
			}
		}(p)
	}
	wg.Wait()
	if got := master.Finalize(opts.MinSup); !reflect.DeepEqual(got, want) {
		t.Fatalf("concurrent merge+add diverged: %d vs %d pairs", len(got), len(want))
	}
	if master.Trees() != len(forest) {
		t.Fatalf("Trees() = %d, want %d", master.Trees(), len(forest))
	}
}

// genIterator deterministically generates trees on demand — a corpus
// that never exists in memory as a whole, for the bounded-memory and
// streaming tests.
type genIterator struct {
	rng   *rand.Rand
	n, i  int
	size  int
	alpha int
	grow  int // when > 0, the alphabet gains one label every grow trees
}

func newGenIterator(seed int64, n, size, alpha int) *genIterator {
	return &genIterator{rng: rand.New(rand.NewSource(seed)), n: n, size: size, alpha: alpha}
}

func (g *genIterator) Next() (*tree.Tree, error) {
	if g.i >= g.n {
		return nil, io.EOF
	}
	alpha := g.alpha
	if g.grow > 0 {
		alpha += g.i / g.grow
	}
	g.i++
	return randAlphaTree(g.rng, g.size, alpha), nil
}

// TestMineForestStreamGenerator checks the streamed miner over a
// generated corpus against materialize-then-MineForest, at the scale the
// acceptance gate names (≥ 5000 trees when not -short).
func TestMineForestStreamGenerator(t *testing.T) {
	n := 5000
	if testing.Short() {
		n = 600
	}
	const seed, size, alpha = 99, 60, 40
	opts := DefaultForestOptions()

	streamFP, err := MineForestStream(newGenIterator(seed, n, size, alpha), opts, 4)
	if err != nil {
		t.Fatal(err)
	}

	it := newGenIterator(seed, n, size, alpha)
	forest := make([]*tree.Tree, 0, n)
	for {
		tr, err := it.Next()
		if err != nil {
			break
		}
		forest = append(forest, tr)
	}
	want := MineForest(forest, opts)
	if !reflect.DeepEqual(streamFP, want) {
		t.Fatalf("stream over %d generated trees: %d pairs != %d pairs", n, len(streamFP), len(want))
	}
}

// liveHeap returns the live heap after a full GC.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestMineForestStreamBoundedMemory is the acceptance gate for the
// streaming pipeline's memory claim: over a ≥5000-tree forest the
// streamed miner's peak live heap (sampled at checkpoints, after the
// round's trees are released) must stay well below the heap the
// materialized forest itself occupies, while the output stays byte-
// identical to MineForest's. The measured ratio is logged and recorded
// in BENCH_2.json.
func TestMineForestStreamBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("memory-bound measurement needs the full 5000-tree run")
	}
	const n, seed, size, alpha = 5000, 41, 100, 50
	opts := DefaultForestOptions()

	base := liveHeap()
	var peak uint64
	cfg := StreamConfig{
		Workers:         4,
		BatchSize:       32,
		CheckpointEvery: 500,
		Checkpoint: func(*SupportShard) error {
			if h := liveHeap(); h > peak {
				peak = h
			}
			return nil
		},
	}
	sh, err := MineForestStreamShard(newGenIterator(seed, n, size, alpha), opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	streamFP := sh.Finalize(opts.MinSup)
	streamPeak := int64(peak) - int64(base)
	if streamPeak < 0 {
		streamPeak = 0
	}

	// Now materialize the same corpus and measure what the in-memory
	// approach must hold live before mining even starts.
	it := newGenIterator(seed, n, size, alpha)
	forest := make([]*tree.Tree, 0, n)
	for {
		tr, err := it.Next()
		if err != nil {
			break
		}
		forest = append(forest, tr)
	}
	forestHeap := int64(liveHeap()) - int64(base)
	want := MineForest(forest, opts)
	runtime.KeepAlive(forest)

	if !reflect.DeepEqual(streamFP, want) {
		t.Fatalf("streamed output differs from MineForest: %d vs %d pairs", len(streamFP), len(want))
	}
	if forestHeap <= 0 {
		t.Fatalf("implausible forest heap measurement %d", forestHeap)
	}
	ratio := float64(streamPeak) / float64(forestHeap)
	t.Logf("stream peak live heap %d B, materialized forest %d B, ratio %.3f", streamPeak, forestHeap, ratio)
	if ratio > 0.5 {
		t.Fatalf("stream peak live heap %.3f of the materialized forest; want ≤ 0.5 (bounded by shard size)", ratio)
	}
}

// TestMineForestStreamCheckpointResume cuts a stream off midway,
// round-trips the partial shard through Snapshot/Restore (what the store
// checkpoint file does), and finishes on a fresh iterator with SkipTrees
// — the result must equal the uninterrupted run.
func TestMineForestStreamCheckpointResume(t *testing.T) {
	const n, seed, size, alpha = 300, 13, 30, 6
	opts := DefaultForestOptions()
	want, err := MineForestStream(newGenIterator(seed, n, size, alpha), opts, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: consume only the first 140 trees.
	firstHalf := newGenIterator(seed, 140, size, alpha)
	partial, err := MineForestStreamShard(firstHalf, opts, StreamConfig{Workers: 2, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if partial.Trees() != 140 {
		t.Fatalf("partial shard holds %d trees, want 140", partial.Trees())
	}
	o, trees, labels, items := partial.Snapshot()
	restored, err := RestoreShard(o, trees, labels, items)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 2: replay the whole stream, skipping what phase 1 mined.
	sh, err := MineForestStreamShard(newGenIterator(seed, n, size, alpha), opts, StreamConfig{
		Workers:   2,
		BatchSize: 16,
		Resume:    restored,
		SkipTrees: restored.Trees(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sh.Trees() != n {
		t.Fatalf("resumed shard holds %d trees, want %d", sh.Trees(), n)
	}
	if got := sh.Finalize(opts.MinSup); !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed run differs: %d vs %d pairs", len(got), len(want))
	}
}

// TestMineForestStreamResumeOptionsMismatch pins the guard that a resume
// shard mined under different options is rejected up front.
func TestMineForestStreamResumeOptionsMismatch(t *testing.T) {
	shard := NewSupportShard(ForestOptions{Options: Options{MaxDist: D(5), MinOccur: 1}, MinSup: 2})
	_, err := MineForestStreamShard(NewSliceIterator(nil), DefaultForestOptions(), StreamConfig{Resume: shard})
	if err == nil {
		t.Fatal("mismatched resume options accepted")
	}
}

// TestStreamCheckpointCadence counts checkpoint callbacks: one per
// CheckpointEvery trees plus the final flush, and the error path aborts
// the stream.
func TestStreamCheckpointCadence(t *testing.T) {
	const n = 100
	opts := DefaultForestOptions()
	calls := 0
	_, err := MineForestStreamShard(newGenIterator(3, n, 20, 5), opts, StreamConfig{
		Workers:         1,
		BatchSize:       10,
		CheckpointEvery: 30,
		Checkpoint:      func(sh *SupportShard) error { calls++; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rounds of 10 trees, checkpoint every ≥30: at 30, 60, 90, and the
	// final 100.
	if calls != 4 {
		t.Fatalf("checkpoint calls = %d, want 4", calls)
	}

	wantErr := fmt.Errorf("disk full")
	_, err = MineForestStreamShard(newGenIterator(3, n, 20, 5), opts, StreamConfig{
		Workers:         1,
		BatchSize:       10,
		CheckpointEvery: 30,
		Checkpoint:      func(sh *SupportShard) error { return wantErr },
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("checkpoint error not propagated: %v", err)
	}
}
