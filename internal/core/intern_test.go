package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/metrics"
	"testing"
	"testing/quick"
	"time"

	"treemine/internal/tree"
)

// mineStringReference is the pre-refactor Mine: enumerate pairs, build
// string keys one at a time, filter by MinOccur. The interned path must
// be byte-identical to it after boundary conversion.
func mineStringReference(t *tree.Tree, opts Options) ItemSet {
	items := make(ItemSet)
	for _, p := range MinePairs(t, opts) {
		items[NewKey(t.MustLabel(p.U), t.MustLabel(p.V), p.D)]++
	}
	return items.FilterMinOccur(opts.MinOccur)
}

// randAlphaTree builds a random tree over the first alpha labels l0..l<n>,
// with ~20% unlabeled nodes. A bigger alphabet exercises different
// accumulator shapes than randLabeledTree's four labels.
func randAlphaTree(rng *rand.Rand, n, alpha int) *tree.Tree {
	lbl := func() string { return fmt.Sprintf("l%d", rng.Intn(alpha)) }
	b := tree.NewBuilder()
	if rng.Intn(2) == 0 {
		b.RootUnlabeled()
	} else {
		b.Root(lbl())
	}
	for i := 1; i < n; i++ {
		p := tree.NodeID(rng.Intn(i))
		if rng.Intn(5) == 0 {
			b.ChildUnlabeled(p)
		} else {
			b.Child(p, lbl())
		}
	}
	return b.MustBuild()
}

// TestMineInternedMatchesStringPathAndOracle is the headline property
// test for the interned core: across random trees, alphabet sizes,
// maxdist values (including ones past D(14), the old 4-bit distance
// field), and minoccur values, Mine must agree with the pre-refactor
// string path and with the brute-force oracle.
func TestMineInternedMatchesStringPathAndOracle(t *testing.T) {
	f := func(seed int64, size, alpha, maxD, minOcc uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(size)%60 + 1
		a := int(alpha)%12 + 1
		opts := Options{
			// 0..19 halves: roughly a third of the runs exceed D(14),
			// past what the old 4-bit distance field could carry.
			MaxDist:  Dist(int(maxD) % 20),
			MinOccur: int(minOcc)%3 + 1,
		}
		tr := randAlphaTree(rng, n, a)
		got := Mine(tr, opts)
		if want := mineStringReference(tr, opts); !reflect.DeepEqual(got, want) {
			t.Logf("n=%d a=%d opts=%+v: interned %v != string path %v", n, a, opts, got.Items(), want.Items())
			return false
		}
		if slow := NaiveMine(tr, opts); !reflect.DeepEqual(got, slow) {
			t.Logf("n=%d a=%d opts=%+v: interned %v != naive %v", n, a, opts, got.Items(), slow.Items())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMineCountsInternedMatchesMine re-checks the counting miner on the
// wider alphabet/maxdist space, including maxdist past D(14).
func TestMineCountsInternedMatchesMine(t *testing.T) {
	f := func(seed int64, size, alpha, maxD uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randAlphaTree(rng, int(size)%60+1, int(alpha)%12+1)
		opts := Options{MaxDist: Dist(int(maxD) % 20), MinOccur: 1}
		got := MineCounts(tr, opts)
		want := Mine(tr, opts)
		if !reflect.DeepEqual(got, want) {
			t.Logf("opts=%+v: MineCounts %v != Mine %v", opts, got.Items(), want.Items())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMineMapModeAccumulator forces the dense accumulator over its cell
// budget (alphabet² × distances > maxDenseCells) so the interned path
// runs in map mode end to end, then checks against the oracle.
func TestMineMapModeAccumulator(t *testing.T) {
	// 1100 distinct labels, maxdist 0 → 1100²·1 cells > 1<<20.
	b := tree.NewBuilder()
	r := b.RootUnlabeled()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1500; i++ {
		b.Child(r, fmt.Sprintf("l%d", rng.Intn(1100)))
	}
	tr := b.MustBuild()
	opts := Options{MaxDist: D(0), MinOccur: 1}
	got := Mine(tr, opts)
	if want := NaiveMine(tr, opts); !reflect.DeepEqual(got, want) {
		t.Fatalf("map-mode Mine: %d items, naive %d items, sets differ", len(got), len(want))
	}
}

// randForest builds a small forest sharing one alphabet so pairs recur
// across trees and support counting has work to do.
func randForest(rng *rand.Rand, trees, size, alpha int) []*tree.Tree {
	out := make([]*tree.Tree, trees)
	for i := range out {
		out[i] = randAlphaTree(rng, rng.Intn(size)+1, alpha)
	}
	return out
}

// TestMineForestInternedMatchesGeneric checks the interned forest miner
// (and its parallel variant, at several worker counts) against the
// first-principles forest oracle across random forests, with and without
// IgnoreDist.
func TestMineForestInternedMatchesGeneric(t *testing.T) {
	f := func(seed int64, nt, size, alpha, maxD, minSup uint8, ignore bool) bool {
		rng := rand.New(rand.NewSource(seed))
		forest := randForest(rng, int(nt)%6+1, int(size)%40+1, int(alpha)%8+1)
		opts := ForestOptions{
			Options:    Options{MaxDist: Dist(int(maxD) % 8), MinOccur: 1},
			MinSup:     int(minSup)%3 + 1,
			IgnoreDist: ignore,
		}
		want := naiveForestOracle(forest, opts)
		if got := MineForest(forest, opts); !reflect.DeepEqual(got, want) {
			t.Logf("opts=%+v: MineForest %v != oracle %v", opts, got, want)
			return false
		}
		for _, workers := range []int{2, 3} {
			if got := MineForestParallel(forest, opts, workers); !reflect.DeepEqual(got, want) {
				t.Logf("opts=%+v workers=%d: parallel %v != oracle %v", opts, workers, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestMineForestFallbackPastPackedDist pins the behavior past D(14),
// the old 4-bit distance field, where forest mining once took a
// string-keyed fallback: both forest miners must agree with the
// first-principles oracle there.
func TestMineForestFallbackPastPackedDist(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	forest := randForest(rng, 5, 40, 5)
	opts := ForestOptions{
		Options: Options{MaxDist: D(20), MinOccur: 1},
		MinSup:  2,
	}
	want := naiveForestOracle(forest, opts)
	if got := MineForest(forest, opts); !reflect.DeepEqual(got, want) {
		t.Fatalf("MineForest fallback: %v != %v", got, want)
	}
	if got := MineForestParallel(forest, opts, 3); !reflect.DeepEqual(got, want) {
		t.Fatalf("MineForestParallel fallback: %v != %v", got, want)
	}
}

// TestMineForestFallbackRoundMemory checks that a round past D(14) holds
// O(workers × distinct items) — the workers' private accumulators —
// rather than one item set per tree of the round. It mines
// one tree repeated n times as a single round (so every tree's item set
// is the same and the distinct items are one tree's), samples the heap
// each GC cycle marks live while the round runs, and requires the peak
// growth to stay far below what retaining an eighth of the per-tree item
// sets would cost.
func TestMineForestFallbackRoundMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("live-heap sampling skipped in -short mode")
	}
	const n, workers = 1500, 2
	tr := randAlphaTree(rand.New(rand.NewSource(5)), 60, 1000)
	opts := ForestOptions{
		Options: Options{MaxDist: D(20), MinOccur: 1},
		MinSup:  2,
	}
	forest := make([]*tree.Tree, n)
	for i := range forest {
		forest[i] = tr
	}
	// live reads the heap marked live by the most recent GC cycle.
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	live := func() uint64 {
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	// settle runs two GC cycles: the first only moves sync.Pool contents
	// (pooled miners left by earlier tests) to the victim cache and the
	// second frees them, so they cannot die mid-measurement and skew a
	// baseline.
	settle := func() { runtime.GC(); runtime.GC() }
	settle()
	base := live()
	set := Mine(tr, opts.Options)
	runtime.GC()
	perSet := live() - base
	runtime.KeepAlive(set)
	if perSet <= 0 || perSet > 1<<30 {
		t.Fatalf("could not size one item set (%d bytes)", int64(perSet))
	}

	settle()
	base = live()
	peak := base
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if h := live(); h > peak {
				peak = h
			}
			time.Sleep(time.Millisecond)
		}
	}()
	got := MineForestParallel(forest, opts, workers)
	close(stop)
	<-sampled

	one := naiveForestOracle([]*tree.Tree{tr}, ForestOptions{Options: opts.Options, MinSup: 1})
	for i := range one {
		one[i].Support = n
	}
	if !reflect.DeepEqual(got, one) {
		t.Fatalf("result differs from the oracle: %d vs %d pairs", len(got), len(one))
	}
	growth := int64(peak) - int64(base)
	t.Logf("peak live growth %d bytes; one item set %d bytes", growth, perSet)
	if limit := int64(perSet) * n / 8; growth > limit {
		t.Fatalf("round held %d bytes live, over %d (an eighth of the per-tree item sets): "+
			"a round must not keep one item set per tree", growth, limit)
	}
}

// TestTDistInternedMatchesStringPath checks that the interned TDist
// (shared symbol table + packed multisets) returns exactly the floats
// the string-keyed path computes, for every variant.
func TestTDistInternedMatchesStringPath(t *testing.T) {
	variants := []Variant{VariantLabel, VariantDist, VariantOccur, VariantDistOccur}
	f := func(seed int64, n1, n2, alpha, maxD uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := int(alpha)%8 + 1
		t1 := randAlphaTree(rng, int(n1)%40+1, a)
		t2 := randAlphaTree(rng, int(n2)%40+1, a)
		opts := Options{MaxDist: Dist(int(maxD) % 8), MinOccur: 1}
		i1, i2 := Mine(t1, opts), Mine(t2, opts)
		for _, v := range variants {
			got := TDist(t1, t2, v, opts)
			want := TDistItems(i1, i2, v)
			if got != want {
				t.Logf("%s opts=%+v: TDist %v != TDistItems %v", v, opts, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestSimInternedMatchesStringPath does the same for the asymmetric
// similarity measure and its forest average.
func TestSimInternedMatchesStringPath(t *testing.T) {
	f := func(seed int64, n1, n2, alpha, maxD uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := int(alpha)%8 + 1
		c := randAlphaTree(rng, int(n1)%40+1, a)
		tt := randAlphaTree(rng, int(n2)%40+1, a)
		opts := Options{MaxDist: Dist(int(maxD) % 8), MinOccur: 1}
		got := Sim(c, tt, opts)
		want := SimItems(Mine(c, opts), Mine(tt, opts))
		if got != want {
			t.Logf("opts=%+v: Sim %v != SimItems %v", opts, got, want)
			return false
		}
		set := []*tree.Tree{tt, randAlphaTree(rng, 20, a)}
		avg := AvgSim(c, set, opts)
		wantAvg := (SimItems(Mine(c, opts), Mine(set[0], opts)) +
			SimItems(Mine(c, opts), Mine(set[1], opts))) / 2
		if avg != wantAvg {
			t.Logf("opts=%+v: AvgSim %v != %v", opts, avg, wantAvg)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestMineDPInternedMatchesMine covers the histogram-DP miner on the
// wider space, including maxdist past D(14).
func TestMineDPInternedMatchesMine(t *testing.T) {
	f := func(seed int64, size, alpha, maxD uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randAlphaTree(rng, int(size)%50+1, int(alpha)%8+1)
		opts := Options{MaxDist: Dist(int(maxD) % 20), MinOccur: 1}
		got := MineDP(tr, opts)
		want := Mine(tr, opts)
		if !reflect.DeepEqual(got, want) {
			t.Logf("opts=%+v: MineDP %v != Mine %v", opts, got.Items(), want.Items())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestMinerPoolReuseIsClean mines trees of very different shapes through
// the shared pool back to back; stale buckets or un-drained accumulator
// cells from a previous tree would corrupt the later results.
func TestMinerPoolReuseIsClean(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	opts := Options{MaxDist: D(6), MinOccur: 1}
	for round := 0; round < 30; round++ {
		tr := randAlphaTree(rng, rng.Intn(80)+1, rng.Intn(10)+1)
		if got, want := Mine(tr, opts), NaiveMine(tr, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: pooled Mine diverged from oracle", round)
		}
	}
}
