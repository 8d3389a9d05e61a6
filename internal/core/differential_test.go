package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"treemine/internal/tree"
)

// naiveForestOracle computes frequent pairs from first principles: the
// brute-force per-tree miner (NaiveMine, LCA per node pair) feeds a
// plain string-keyed support map. Every production forest miner —
// serial, parallel, streamed — is differentially pinned against it.
func naiveForestOracle(trees []*tree.Tree, opts ForestOptions) []FrequentPair {
	support := make(map[Key]int)
	for _, t := range trees {
		items := NaiveMine(t, opts.Options)
		if opts.IgnoreDist {
			items = items.IgnoreDist()
		}
		for k := range items {
			support[k]++
		}
	}
	var out []FrequentPair
	for k, s := range support {
		if s >= opts.MinSup {
			out = append(out, FrequentPair{Key: k, Support: s})
		}
	}
	SortFrequentPairs(out)
	return out
}

// randDifferentialForest builds a forest stressing the edge cases the
// miners must agree on: duplicate labels (tiny alphabets), single-node
// trees, unlabeled roots, and the empty forest (nt may be 0).
func randDifferentialForest(rng *rand.Rand, nt, size, alpha int) []*tree.Tree {
	out := make([]*tree.Tree, nt)
	for i := range out {
		switch rng.Intn(8) {
		case 0: // single labeled node
			b := tree.NewBuilder()
			b.Root("l0")
			out[i] = b.MustBuild()
		case 1: // single unlabeled node
			b := tree.NewBuilder()
			b.RootUnlabeled()
			out[i] = b.MustBuild()
		default:
			out[i] = randAlphaTree(rng, rng.Intn(size)+1, alpha)
		}
	}
	return out
}

// streamVariants runs MineForestStream over the same forest at several
// worker counts and batch sizes (including batch 1, which exercises a
// merge per tree) and reports the first divergence from want.
func streamVariants(t *testing.T, forest []*tree.Tree, opts ForestOptions, want []FrequentPair) bool {
	t.Helper()
	cases := []StreamConfig{
		{Workers: 1, BatchSize: 1},
		{Workers: 2, BatchSize: 3},
		{Workers: 4, BatchSize: 64},
	}
	for _, cfg := range cases {
		sh, err := MineForestStreamShard(NewSliceIterator(forest), opts, cfg)
		if err != nil {
			t.Logf("stream cfg=%+v: %v", cfg, err)
			return false
		}
		if got := sh.Finalize(opts.MinSup); !reflect.DeepEqual(got, want) {
			t.Logf("stream cfg=%+v: %v != %v", cfg, got, want)
			return false
		}
		if sh.Trees() != len(forest) {
			t.Logf("stream cfg=%+v: Trees() = %d, want %d", cfg, sh.Trees(), len(forest))
			return false
		}
	}
	return true
}

// TestForestMinersDifferential is the harness pinning every forest miner
// to the naive oracle: MineForestStream ≡ MineForestParallel ≡
// MineForest ≡ per-tree NaiveMine support counting, across random
// forests whose MaxDist sweeps D(14), the old 4-bit IKey distance
// field's bound (~a quarter of the runs mine past it),
// with varying MinSup, MinOccur, IgnoreDist, duplicate labels,
// single-node trees, and empty forests.
func TestForestMinersDifferential(t *testing.T) {
	f := func(seed int64, nt, size, alpha, maxD, minSup, minOcc, workers uint8, ignore bool) bool {
		rng := rand.New(rand.NewSource(seed))
		forest := randDifferentialForest(rng, int(nt)%7, int(size)%40+1, int(alpha)%6+1)
		opts := ForestOptions{
			Options: Options{
				MaxDist:  Dist(int(maxD) % 20),
				MinOccur: int(minOcc)%3 + 1,
			},
			MinSup:     int(minSup)%4 + 1,
			IgnoreDist: ignore,
		}
		want := naiveForestOracle(forest, opts)
		if got := MineForest(forest, opts); !reflect.DeepEqual(got, want) {
			t.Logf("opts=%+v: MineForest %v != oracle %v", opts, got, want)
			return false
		}
		if got := MineForestParallel(forest, opts, int(workers)%5); !reflect.DeepEqual(got, want) {
			t.Logf("opts=%+v: MineForestParallel %v != oracle %v", opts, got, want)
			return false
		}
		return streamVariants(t, forest, opts, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// buildShard folds the trees into a fresh shard serially.
func buildShard(trees []*tree.Tree, opts ForestOptions) *SupportShard {
	sh := NewSupportShard(opts)
	for _, t := range trees {
		sh.AddTree(t)
	}
	return sh
}

// TestShardMergeCommutesAndAssociates checks the algebra streaming
// correctness rests on: splitting a forest into shards and merging them
// in any association — Merge(a,b), Merge(b,a), left-leaning, right-
// leaning, and a random merge tree — always finalizes to the forest's
// MineForest result.
func TestShardMergeCommutesAndAssociates(t *testing.T) {
	f := func(seed int64, nt, size, alpha, maxD, cut1, cut2 uint8, ignore bool) bool {
		rng := rand.New(rand.NewSource(seed))
		forest := randDifferentialForest(rng, int(nt)%9+3, int(size)%30+1, int(alpha)%5+1)
		opts := ForestOptions{
			Options:    Options{MaxDist: Dist(int(maxD) % 18), MinOccur: 1},
			MinSup:     1, // keep every pair visible so merges are fully compared
			IgnoreDist: ignore,
		}
		// Split into three contiguous (possibly empty) parts.
		i := int(cut1) % (len(forest) + 1)
		j := int(cut2) % (len(forest) + 1)
		if j < i {
			i, j = j, i
		}
		parts := [][]*tree.Tree{forest[:i], forest[i:j], forest[j:]}
		want := MineForest(forest, opts)

		finalize := func(sh *SupportShard) []FrequentPair { return sh.Finalize(opts.MinSup) }
		merged := func(order ...int) *SupportShard {
			sh := buildShard(parts[order[0]], opts)
			for _, p := range order[1:] {
				if err := sh.Merge(buildShard(parts[p], opts)); err != nil {
					t.Fatal(err)
				}
			}
			return sh
		}
		// Commutativity over two shards.
		ab := buildShard(parts[0], opts)
		if err := ab.Merge(buildShard(append(append([]*tree.Tree{}, parts[1]...), parts[2]...), opts)); err != nil {
			t.Fatal(err)
		}
		rest := buildShard(append(append([]*tree.Tree{}, parts[1]...), parts[2]...), opts)
		if err := rest.Merge(buildShard(parts[0], opts)); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(finalize(ab), finalize(rest)) {
			t.Logf("opts=%+v: Merge(a,b) != Merge(b,a)", opts)
			return false
		}
		// Every association and order over three shards.
		for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}, {1, 0, 2}, {2, 0, 1}} {
			if got := finalize(merged(order...)); !reflect.DeepEqual(got, want) {
				t.Logf("opts=%+v order=%v: %v != %v", opts, order, got, want)
				return false
			}
		}
		// Right-leaning merge tree: a + (b + c).
		bc := buildShard(parts[1], opts)
		if err := bc.Merge(buildShard(parts[2], opts)); err != nil {
			t.Fatal(err)
		}
		a := buildShard(parts[0], opts)
		if err := a.Merge(bc); err != nil {
			t.Fatal(err)
		}
		if got := finalize(a); !reflect.DeepEqual(got, want) {
			t.Logf("opts=%+v: a+(b+c) %v != %v", opts, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestShardSnapshotRestoreRoundTrip pins the serialization contract the
// store's v3 format builds on: Restore(Snapshot(sh)) finalizes
// identically, at the default maxdist and past D(14).
func TestShardSnapshotRestoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, maxD := range []Dist{D(3), D(18)} {
		for _, ignore := range []bool{false, true} {
			opts := ForestOptions{
				Options:    Options{MaxDist: maxD, MinOccur: 1},
				MinSup:     2,
				IgnoreDist: ignore,
			}
			sh := buildShard(randForest(rng, 8, 30, 4), opts)
			o, trees, labels, items := sh.Snapshot()
			back, err := RestoreShard(o, trees, labels, items)
			if err != nil {
				t.Fatalf("maxD=%v ignore=%v: restore: %v", maxD, ignore, err)
			}
			if back.Trees() != sh.Trees() {
				t.Fatalf("maxD=%v ignore=%v: trees %d != %d", maxD, ignore, back.Trees(), sh.Trees())
			}
			if got, want := back.Finalize(1), sh.Finalize(1); !reflect.DeepEqual(got, want) {
				t.Fatalf("maxD=%v ignore=%v: restored shard differs: %v != %v", maxD, ignore, got, want)
			}
		}
	}
}

// TestRestoreShardRejectsCorruptInput enumerates the invalid snapshots a
// corrupt checkpoint file could decode into; every one must error, never
// panic.
func TestRestoreShardRejectsCorruptInput(t *testing.T) {
	opts := ForestOptions{Options: Options{MaxDist: D(3), MinOccur: 1}, MinSup: 2}
	labels := []string{"a", "b"}
	cases := []struct {
		name   string
		opts   ForestOptions
		trees  int
		labels []string
		items  []ShardItem
	}{
		{"negative trees", opts, -1, labels, nil},
		{"symbol out of range", opts, 1, labels, []ShardItem{{A: 0, B: 7, D: 0, N: 1}}},
		{"zero count", opts, 1, labels, []ShardItem{{A: 0, B: 1, D: 0, N: 0}}},
		{"negative count", opts, 1, labels, []ShardItem{{A: 0, B: 1, D: 0, N: -4}}},
		{"distance beyond maxdist", opts, 1, labels, []ShardItem{{A: 0, B: 1, D: 9, N: 1}}},
		{
			"distance beyond MaxPackedDist",
			ForestOptions{Options: Options{MaxDist: D(5000), MinOccur: 1}, MinSup: 2},
			1, labels, []ShardItem{{A: 0, B: 1, D: MaxPackedDist + 1, N: 1}},
		},
		{"negative distance", opts, 1, labels, []ShardItem{{A: 0, B: 1, D: -3, N: 1}}},
		{"wild distance without ignoredist", opts, 1, labels, []ShardItem{{A: 0, B: 1, D: DistWild, N: 1}}},
		{"duplicate label", opts, 1, []string{"a", "a"}, nil},
		{
			"concrete distance under ignoredist",
			ForestOptions{Options: opts.Options, MinSup: 2, IgnoreDist: true},
			1, labels, []ShardItem{{A: 0, B: 1, D: 0, N: 1}},
		},
	}
	for _, tc := range cases {
		if _, err := RestoreShard(tc.opts, tc.trees, tc.labels, tc.items); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The valid baseline the cases deviate from must be accepted.
	if _, err := RestoreShard(opts, 1, labels, []ShardItem{{A: 0, B: 1, D: 0, N: 1}}); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
}
