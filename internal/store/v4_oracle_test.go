package store

import (
	"bytes"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"treemine/internal/core"
	"treemine/internal/tree"
	"treemine/internal/treegen"
)

// oracleV4Image is the v4 image builder the store used before the core
// sort kernel, kept as a test-side oracle: it re-ranks labels through a
// string map, sorts the records with sort.Slice (by packed key, or by
// label bytes for generic records), and builds the support permutation
// with sort.SliceStable. keys are label-keyed support counts; every
// label they reference is in labels.
func oracleV4Image(opts core.ForestOptions, trees int, items int64, labels []string, keys map[core.Key]int64) *v4image {
	sorted := append([]string(nil), labels...)
	sort.Strings(sorted)
	rank := make(map[string]uint32, len(sorted))
	for i, l := range sorted {
		rank[l] = uint32(i)
	}
	img := &v4image{opts: opts, trees: trees, items: items, labels: sorted}
	type genRec struct {
		a, b string
		d    core.Dist
		n    int64
	}
	var recs []genRec
	for k, n := range keys {
		recs = append(recs, genRec{a: k.A, b: k.B, d: k.D, n: n})
	}
	if img.generic() {
		sort.Slice(recs, func(i, j int) bool {
			x, y := recs[i], recs[j]
			if c := bytes.Compare([]byte(x.a), []byte(y.a)); c != 0 {
				return c < 0
			}
			if c := bytes.Compare([]byte(x.b), []byte(y.b)); c != 0 {
				return c < 0
			}
			return x.d < y.d
		})
	} else {
		key := func(r genRec) core.IKey { return core.NewIKey(rank[r.a], rank[r.b], r.d) }
		sort.Slice(recs, func(i, j int) bool { return key(recs[i]) < key(recs[j]) })
	}
	for _, r := range recs {
		img.recs = append(img.recs, core.ShardItem{A: rank[r.a], B: rank[r.b], D: r.d, N: r.n})
	}
	img.perm = make([]uint32, len(recs))
	for i := range img.perm {
		img.perm[i] = uint32(i)
	}
	sort.SliceStable(img.perm, func(i, j int) bool { return recs[img.perm[i]].n > recs[img.perm[j]].n })
	return img
}

// richForest draws trees over a 600-label alphabet, so symbol ranks
// cross a byte boundary and lexicographic order ("L10" < "L9") differs
// from intern order.
func richForest(seed int64, n, size int) []*tree.Tree {
	rng := rand.New(rand.NewSource(seed))
	labels := treegen.Alphabet(600)
	out := make([]*tree.Tree, n)
	for i := range out {
		out[i] = treegen.Uniform(rng, size, labels)
	}
	return out
}

// TestV4ImageMatchesOracle: the kernel-based builders — a snapshot
// checked and used as is, an index rank-coded and radix-sorted — write
// the same v4 bytes as the oracle, for packed, IgnoreDist and generic
// shards and for CompactIndexV4's index path.
func TestV4ImageMatchesOracle(t *testing.T) {
	for _, forest := range [][]*tree.Tree{shardForest(31, 14, 30), richForest(32, 30, 40)} {
		for _, tc := range []struct {
			name   string
			maxD   core.Dist
			ignore bool
		}{
			{"packed", core.D(4), false},
			{"ignoredist", core.D(4), true},
			{"generic", core.D(17), false},
			{"generic-ignoredist", core.D(17), true},
		} {
			opts := core.ForestOptions{Options: core.Options{MaxDist: tc.maxD, MinOccur: 1}, MinSup: 2, IgnoreDist: tc.ignore}
			sh := mineShard(forest, opts)
			opts, trees, labels, items := sh.Snapshot()
			img, err := imageFromSnapshot(opts, trees, labels, items)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			keys := make(map[core.Key]int64, len(items))
			for _, it := range items {
				keys[core.NewKey(labels[it.A], labels[it.B], it.D)] = it.N
			}
			want := oracleV4Image(opts, trees, 0, labels, keys).appendV4()
			if !bytes.Equal(img.appendV4(), want) {
				t.Fatalf("%s (%d labels): shard image differs from the oracle", tc.name, len(labels))
			}
		}

		for _, maxD := range []core.Dist{core.D(4), core.D(17)} {
			ix, err := Build(forest, nil, core.Options{MaxDist: maxD, MinOccur: 1})
			if err != nil {
				t.Fatal(err)
			}
			img, err := imageFromIndex(ix)
			if err != nil {
				t.Fatal(err)
			}
			keys := make(map[core.Key]int64)
			var labels []string
			var items int64
			seen := make(map[string]bool)
			for k, n := range ix.supportTable() {
				keys[k] = int64(n)
				for _, l := range []string{k.A, k.B} {
					if !seen[l] {
						seen[l] = true
						labels = append(labels, l)
					}
				}
			}
			for _, e := range ix.Entries {
				items += int64(len(e.Items))
			}
			opts := core.ForestOptions{Options: ix.Options, MinSup: 1}
			want := oracleV4Image(opts, ix.NumTrees(), items, labels, keys).appendV4()
			if !bytes.Equal(img.appendV4(), want) {
				t.Fatalf("index maxdist %s: image differs from the oracle", maxD)
			}
		}
	}
}

// TestImageFromSnapshotRejectsNonCanonical: compaction trusts a
// snapshot's order only after checking it, so unsorted labels, unsorted
// or duplicate keys, and swapped symbol pairs are ErrCorrupt.
func TestImageFromSnapshotRejectsNonCanonical(t *testing.T) {
	opts := core.DefaultForestOptions()
	labels := []string{"a", "b", "c"}
	item := func(a, b uint32, d core.Dist) core.ShardItem { return core.ShardItem{A: a, B: b, D: d, N: 1} }
	for name, tc := range map[string]struct {
		labels []string
		items  []core.ShardItem
	}{
		"labels unsorted":   {[]string{"b", "a", "c"}, []core.ShardItem{item(0, 1, 0)}},
		"labels repeated":   {[]string{"a", "a", "c"}, []core.ShardItem{item(0, 1, 0)}},
		"keys unsorted":     {labels, []core.ShardItem{item(0, 2, 0), item(0, 1, 0)}},
		"keys repeated":     {labels, []core.ShardItem{item(0, 1, 2), item(0, 1, 2)}},
		"pair swapped":      {labels, []core.ShardItem{item(2, 1, 0)}},
		"symbol past table": {labels, []core.ShardItem{item(0, 3, 0)}},
	} {
		if _, err := imageFromSnapshot(opts, 1, tc.labels, tc.items); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}
