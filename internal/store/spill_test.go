package store

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"treemine/internal/core"
	"treemine/internal/faults"
	"treemine/internal/tree"
	"treemine/internal/treegen"
)

// spillMine runs the streaming miner over forest with an out-of-core
// accumulator budgeted at maxEntries resident pairs, finishing to a
// shard file in dir, and returns that path plus the segment count
// written before Finish.
func spillMine(t *testing.T, forest []*tree.Tree, opts core.ForestOptions, maxEntries int, dir string) (string, int) {
	t.Helper()
	sh := core.NewSupportShard(opts)
	acc, err := NewSpillAccumulator(sh, maxEntries, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.MineForestStreamShard(core.NewSliceIterator(forest), opts, core.StreamConfig{
		Resume:     sh,
		BatchSize:  2,
		AfterRound: acc.AfterRound,
	}); err != nil {
		t.Fatal(err)
	}
	segs := acc.Segments()
	out := filepath.Join(dir, "worker.shard")
	if err := acc.Finish(out); err != nil {
		t.Fatal(err)
	}
	return out, segs
}

// shardBytes is the canonical v3 serialization — the byte-identity
// yardstick for every distributed path.
func shardBytes(t *testing.T, sh *core.SupportShard) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveShard(&buf, sh); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSpillRoundTrip: a run squeezed through a tiny resident budget —
// forcing many spill segments — folds back into a master whose v3
// bytes are identical to a fully-resident mine of the same forest.
func TestSpillRoundTrip(t *testing.T) {
	forest := shardForest(11, 20, 40)
	opts := core.DefaultForestOptions()
	dir := t.TempDir()

	path, segs := spillMine(t, forest, opts, 8, dir)
	if segs == 0 {
		t.Fatal("budget of 8 entries never spilled — test exercises nothing")
	}

	master := core.NewSupportShard(opts)
	trees, err := FoldShardFile(master, path)
	if err != nil {
		t.Fatal(err)
	}
	if trees != len(forest) {
		t.Fatalf("folded %d trees, mined %d", trees, len(forest))
	}

	want := mineShard(forest, opts)
	if got, exp := shardBytes(t, master), shardBytes(t, want); !bytes.Equal(got, exp) {
		t.Fatal("spilled run folds to different bytes than a resident mine")
	}
	if got, exp := master.Finalize(opts.MinSup), want.Finalize(opts.MinSup); !reflect.DeepEqual(got, exp) {
		t.Fatal("spilled run finalizes differently than a resident mine")
	}
}

// deepChains returns n two-armed chain trees over shardForest's alphabet
// whose leaf pairs sit at cousin distances 8, 9, … — D(16) upward, past
// the old 4-bit IKey distance field's D(14).
func deepChains(n int) []*tree.Tree {
	labels := treegen.Alphabet(6)
	out := make([]*tree.Tree, n)
	for i := range out {
		b := tree.NewBuilder()
		r := b.RootUnlabeled()
		for arm := 0; arm < 2; arm++ {
			p := r
			for k := 1; k < 9+i; k++ {
				p = b.ChildUnlabeled(p)
			}
			b.Child(p, labels[(2*i+arm)%len(labels)])
		}
		out[i] = b.MustBuild()
	}
	return out
}

// TestSpillPastOldPackedDist: at maxdist D(16) and D(22), past the old
// 4-bit distance field, a run spilled over several segments folds back
// into a master whose v3 bytes equal a fully resident mine's.
func TestSpillPastOldPackedDist(t *testing.T) {
	forest := append(shardForest(31, 20, 40), deepChains(4)...)
	for _, maxD := range []core.Dist{core.D(16), core.D(22)} {
		opts := core.ForestOptions{Options: core.Options{MaxDist: maxD, MinOccur: 1}, MinSup: 2}
		want := mineShard(forest, opts)
		deep := 0
		for _, p := range want.Finalize(1) {
			if p.Key.D > core.D(14) {
				deep++
			}
		}
		if deep == 0 {
			t.Fatalf("maxD=%s: fixture mined no items past D(14)", maxD)
		}

		path, segs := spillMine(t, forest, opts, 8, t.TempDir())
		if segs < 2 {
			t.Fatalf("maxD=%s: %d spill segments, want several", maxD, segs)
		}
		master := core.NewSupportShard(opts)
		if _, err := FoldShardFile(master, path); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(shardBytes(t, master), shardBytes(t, want)) {
			t.Fatalf("maxD=%s: spilled run folds to different bytes than a resident mine", maxD)
		}
	}
}

// TestSpillNoSegmentsWritesPlainShard: a budget the run never exceeds
// produces a plain v3 checkpoint, loadable by LoadShard directly.
func TestSpillNoSegmentsWritesPlainShard(t *testing.T) {
	forest := shardForest(12, 6, 25)
	opts := core.DefaultForestOptions()
	dir := t.TempDir()

	path, segs := spillMine(t, forest, opts, 1<<20, dir)
	if segs != 0 {
		t.Fatalf("huge budget spilled %d segments", segs)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sh, err := LoadShard(f)
	if err != nil {
		t.Fatalf("unspilled Finish output is not a v3 shard: %v", err)
	}
	want := mineShard(forest, opts)
	if !bytes.Equal(shardBytes(t, sh), shardBytes(t, want)) {
		t.Fatal("unspilled Finish output differs from a direct mine")
	}
}

// TestSpilledShardReader: the streaming reader yields the merged
// records sorted by (A, B, D) with no duplicate keys, and the header
// carries options, trees, and labels.
func TestSpilledShardReader(t *testing.T) {
	forest := shardForest(13, 15, 35)
	opts := core.DefaultForestOptions()
	path, segs := spillMine(t, forest, opts, 8, t.TempDir())
	if segs == 0 {
		t.Fatal("run never spilled")
	}

	r, err := OpenSpilledShard(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Opts != opts {
		t.Fatalf("header options %+v, want %+v", r.Opts, opts)
	}
	if r.Trees != len(forest) {
		t.Fatalf("header trees %d, want %d", r.Trees, len(forest))
	}
	if len(r.Labels) == 0 {
		t.Fatal("header has no labels")
	}
	var prev core.ShardItem
	first := true
	n := 0
	for {
		it, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !first && !spillItemLess(prev, it) {
			t.Fatalf("records out of order or duplicated: %+v then %+v", prev, it)
		}
		if err := validateSpillItem(it, r.Opts, len(r.Labels)); err != nil {
			t.Fatalf("record %d: %v", n, err)
		}
		prev, first = it, false
		n++
	}
	if n == 0 {
		t.Fatal("spilled shard has no records")
	}
}

// TestMergeRuns: the k-way merge sums equal keys across runs and emits
// strictly increasing keys.
func TestMergeRuns(t *testing.T) {
	mk := func(items ...core.ShardItem) func() (core.ShardItem, error) {
		i := 0
		return func() (core.ShardItem, error) {
			if i >= len(items) {
				return core.ShardItem{}, io.EOF
			}
			it := items[i]
			i++
			return it, nil
		}
	}
	item := func(a, b uint32, d core.Dist, n int64) core.ShardItem {
		return core.ShardItem{A: a, B: b, D: d, N: n}
	}
	runs := []func() (core.ShardItem, error){
		mk(item(0, 1, 2, 5), item(0, 2, 1, 1), item(3, 3, 0, 7)),
		mk(item(0, 1, 2, 3), item(3, 3, 0, 1)),
		mk(item(0, 1, 1, 2), item(0, 1, 2, 10), item(9, 9, 4, 1)),
		mk(), // empty run
	}
	var got []core.ShardItem
	if err := mergeRuns(runs, func(it core.ShardItem) error {
		got = append(got, it)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []core.ShardItem{
		item(0, 1, 1, 2),
		item(0, 1, 2, 18),
		item(0, 2, 1, 1),
		item(3, 3, 0, 8),
		item(9, 9, 4, 1),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge produced %+v, want %+v", got, want)
	}
}

// TestFoldShardFileTorn: corrupting any region of a spilled shard —
// flipped record bytes, a truncated tail, garbage past the checksum —
// is detected before a single record reaches the master.
func TestFoldShardFileTorn(t *testing.T) {
	forest := shardForest(14, 15, 35)
	opts := core.DefaultForestOptions()
	path, _ := spillMine(t, forest, opts, 8, t.TempDir())
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := map[string][]byte{
		"flipped record": append([]byte{}, orig...),
		"truncated":      orig[:len(orig)-9],
		"trailing junk":  append(append([]byte{}, orig...), 0xFF),
	}
	corrupt["flipped record"][len(orig)-20] ^= 0x40

	for name, data := range corrupt {
		t.Run(name, func(t *testing.T) {
			bad := filepath.Join(t.TempDir(), "bad.shard")
			if err := os.WriteFile(bad, data, 0o644); err != nil {
				t.Fatal(err)
			}
			master := core.NewSupportShard(opts)
			if _, err := FoldShardFile(master, bad); err == nil {
				t.Fatal("fold accepted a corrupted spilled shard")
			}
			if master.Len() != 0 || master.Trees() != 0 {
				t.Fatal("corrupted fold tainted the master")
			}
		})
	}
}

// TestFoldShardFileOptionsMismatch: a spilled shard mined under
// different options is refused.
func TestFoldShardFileOptionsMismatch(t *testing.T) {
	forest := shardForest(15, 10, 30)
	opts := core.DefaultForestOptions()
	path, _ := spillMine(t, forest, opts, 8, t.TempDir())

	other := opts
	other.MinOccur = 2
	master := core.NewSupportShard(other)
	if _, err := FoldShardFile(master, path); err == nil {
		t.Fatal("fold accepted a shard mined under different options")
	}
}

// TestFoldShardFileV3: the fold path sniffs and merges plain v3
// checkpoints too — the unspilled worker case.
func TestFoldShardFileV3(t *testing.T) {
	forest := shardForest(16, 10, 30)
	opts := core.DefaultForestOptions()
	sh := mineShard(forest, opts)
	path := filepath.Join(t.TempDir(), "plain.shard")
	if err := AtomicWrite(path, func(w io.Writer) error { return SaveShard(w, sh) }); err != nil {
		t.Fatal(err)
	}
	master := core.NewSupportShard(opts)
	trees, err := FoldShardFile(master, path)
	if err != nil {
		t.Fatal(err)
	}
	if trees != len(forest) {
		t.Fatalf("fold reported %d trees, want %d", trees, len(forest))
	}
	if !bytes.Equal(shardBytes(t, master), shardBytes(t, sh)) {
		t.Fatal("v3 fold differs from the source shard")
	}
}

// TestSpillWriteFailpoint: an armed spill-write failpoint aborts the
// run with the injected error — the disk-failure path a worker must
// surface rather than half-write.
func TestSpillWriteFailpoint(t *testing.T) {
	defer faults.Reset()
	faults.Enable(faults.SpillWrite, faults.Spec{Mode: faults.ModeError})

	forest := shardForest(17, 15, 35)
	opts := core.DefaultForestOptions()
	sh := core.NewSupportShard(opts)
	acc, err := NewSpillAccumulator(sh, 8, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.MineForestStreamShard(core.NewSliceIterator(forest), opts, core.StreamConfig{
		Resume:     sh,
		BatchSize:  2,
		AfterRound: acc.AfterRound,
	})
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("stream error = %v, want injected spill failure", err)
	}
}

// TestNewSpillAccumulatorRejects: nonsense budgets are refused up front.
func TestNewSpillAccumulatorRejects(t *testing.T) {
	if _, err := NewSpillAccumulator(core.NewSupportShard(core.DefaultForestOptions()), 0, t.TempDir()); err == nil {
		t.Fatal("accepted a zero budget")
	}
}
