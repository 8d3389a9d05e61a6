package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"treemine/internal/tree"
)

// twoArmedTree returns a tree whose unlabeled root has two chains of
// depth edges each, ending in leaves "a" and "b" — so the leaves sit at
// cousin distance depth−1, D(2·depth−2). Every 512th chain node is
// labeled too ("a…" on one arm, "b…" on the other), plus one node a
// level off on the second arm, so the pass also counts pairs at shallower
// distances and at a half distance.
func twoArmedTree(depth int) *tree.Tree {
	b := tree.NewBuilder()
	r := b.RootUnlabeled()
	for arm, name := range []string{"a", "b"} {
		p := r
		for k := 1; k <= depth; k++ {
			switch {
			case k == depth:
				p = b.Child(p, name)
			case k%512 == 0:
				p = b.Child(p, fmt.Sprintf("%s%d", name, k))
			case arm == 1 && k == 1023:
				p = b.Child(p, "c")
			default:
				p = b.ChildUnlabeled(p)
			}
		}
	}
	return b.MustBuild()
}

// TestPackedDistBoundary pins the edge of IKey's 12-bit distance field.
// A tree whose deepest pair sits exactly at MaxPackedDist = D(4094)
// mines through Mine, MineDP, and MineForest equal to the brute-force
// oracle at a maxdist far past the bound; one level deeper Mine and
// MineDP panic naming the bound, and a stream fails naming the tree,
// leaving the shard equal to the prefix mined before it.
func TestPackedDistBoundary(t *testing.T) {
	opts := Options{MaxDist: D(5000), MinOccur: 1}
	edge := twoArmedTree(2048)
	want := NaiveMine(edge, opts)
	if n := want[NewKey("a", "b", MaxPackedDist)]; n != 1 {
		t.Fatalf("fixture: (a, b, %s) mined %d times by the oracle, want 1", MaxPackedDist, n)
	}
	if got := Mine(edge, opts); !reflect.DeepEqual(got, want) {
		t.Fatalf("Mine at the bound: %d items, oracle %d", len(got), len(want))
	}
	if got := MineDP(edge, opts); !reflect.DeepEqual(got, want) {
		t.Fatalf("MineDP at the bound: %d items, oracle %d", len(got), len(want))
	}
	fopts := ForestOptions{Options: opts, MinSup: 1}
	if got, exp := MineForest([]*tree.Tree{edge}, fopts), naiveForestOracle([]*tree.Tree{edge}, fopts); !reflect.DeepEqual(got, exp) {
		t.Fatalf("MineForest at the bound: %v, oracle %v", got, exp)
	}

	over := twoArmedTree(2049)
	for name, mine := range map[string]func(*tree.Tree, Options) ItemSet{"Mine": Mine, "MineDP": MineDP} {
		func() {
			defer func() {
				p := recover()
				if p == nil {
					t.Fatalf("%s one level past the bound did not panic", name)
				}
				if msg := fmt.Sprint(p); !strings.Contains(msg, "MaxPackedDist") {
					t.Fatalf("%s panic %q does not name the bound", name, msg)
				}
			}()
			mine(over, opts)
		}()
	}

	rng := rand.New(rand.NewSource(8))
	forest := randForest(rng, 4, 30, 5)
	forest = append(forest[:3:3], over, forest[3])
	sh, err := MineForestStreamShardCtx(context.Background(), NewSliceIterator(forest), fopts,
		StreamConfig{Workers: 1, BatchSize: 1})
	if err == nil {
		t.Fatal("stream mined a tree past the bound")
	}
	if msg := err.Error(); !strings.Contains(msg, "tree 3") || !strings.Contains(msg, "MaxPackedDist") {
		t.Fatalf("stream error %q does not name the tree and the bound", msg)
	}
	if got, exp := snapOf(sh), snapOf(buildShard(forest[:3], fopts)); !reflect.DeepEqual(got, exp) {
		t.Fatal("stream shard after the failed round differs from the prefix before it")
	}
}
