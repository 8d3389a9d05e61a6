package core

import (
	"math/rand"
	"reflect"
	"testing"

	"treemine/internal/tree"
)

func randomForest(seed int64, n, size int) []*tree.Tree {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*tree.Tree, n)
	for i := range out {
		out[i] = randLabeledTree(rng, size)
	}
	return out
}

func TestMineForestParallelMatchesSerial(t *testing.T) {
	forest := randomForest(3, 60, 40)
	opts := DefaultForestOptions()
	opts.MinSup = 1
	serial := MineForest(forest, opts)
	for _, workers := range []int{0, 1, 2, 3, 8, 100} {
		got := MineForestParallel(forest, opts, workers)
		if !reflect.DeepEqual(got, serial) {
			t.Fatalf("workers=%d: parallel result differs (%d vs %d pairs)",
				workers, len(got), len(serial))
		}
	}
}

// TestMineForestParallelWorkerClamp is the regression test for the
// worker-count clamp: workers beyond len(trees) are clamped (and ≤ 1
// workers, including a clamp all the way down on tiny forests, take the
// serial path) — in every case the sorted output must be identical to
// the serial miner's, at the default maxdist and past D(14), where a
// string-keyed fallback once ran.
func TestMineForestParallelWorkerClamp(t *testing.T) {
	for _, n := range []int{1, 2, 5} {
		forest := randomForest(int64(11+n), n, 30)
		for _, opts := range []ForestOptions{
			{Options: Options{MaxDist: D(3), MinOccur: 1}, MinSup: 1},
			{Options: Options{MaxDist: D(16), MinOccur: 1}, MinSup: 1},
		} {
			serial := MineForest(forest, opts)
			for _, workers := range []int{0, 1, len(forest), len(forest) + 7} {
				got := MineForestParallel(forest, opts, workers)
				if !reflect.DeepEqual(got, serial) {
					t.Fatalf("n=%d maxdist=%s workers=%d: parallel differs (%d vs %d pairs)",
						n, opts.MaxDist, workers, len(got), len(serial))
				}
			}
		}
	}
}

func TestMineForestParallelIgnoreDist(t *testing.T) {
	forest := randomForest(5, 30, 30)
	opts := DefaultForestOptions()
	opts.IgnoreDist = true
	serial := MineForest(forest, opts)
	got := MineForestParallel(forest, opts, 4)
	if !reflect.DeepEqual(got, serial) {
		t.Fatalf("IgnoreDist parallel differs: %v vs %v", got, serial)
	}
}

func TestMineForestParallelEmpty(t *testing.T) {
	if got := MineForestParallel(nil, DefaultForestOptions(), 4); len(got) != 0 {
		t.Fatalf("empty forest = %v", got)
	}
}

func BenchmarkMineForestSerialVsParallel(b *testing.B) {
	forest := randomForest(7, 400, 60)
	opts := DefaultForestOptions()
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MineForest(forest, opts)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MineForestParallel(forest, opts, 0)
		}
	})
}
