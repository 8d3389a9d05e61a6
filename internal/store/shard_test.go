package store

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"treemine/internal/core"
	"treemine/internal/tree"
	"treemine/internal/treegen"
)

func shardForest(seed int64, n, size int) []*tree.Tree {
	rng := rand.New(rand.NewSource(seed))
	labels := treegen.Alphabet(6)
	out := make([]*tree.Tree, n)
	for i := range out {
		out[i] = treegen.Uniform(rng, size, labels)
	}
	return out
}

func mineShard(trees []*tree.Tree, opts core.ForestOptions) *core.SupportShard {
	sh := core.NewSupportShard(opts)
	for _, t := range trees {
		sh.AddTree(t)
	}
	return sh
}

// TestSaveLoadShardRoundTrip: a shard survives the v3 byte format at the
// default maxdist and past D(14), and finalizes identically after reload.
func TestSaveLoadShardRoundTrip(t *testing.T) {
	forest := shardForest(1, 12, 30)
	for _, maxD := range []core.Dist{core.D(4), core.D(16)} {
		for _, ignore := range []bool{false, true} {
			opts := core.ForestOptions{
				Options:    core.Options{MaxDist: maxD, MinOccur: 1},
				MinSup:     2,
				IgnoreDist: ignore,
			}
			sh := mineShard(forest, opts)
			var buf bytes.Buffer
			if err := SaveShard(&buf, sh); err != nil {
				t.Fatalf("maxD=%v ignore=%v: save: %v", maxD, ignore, err)
			}
			back, err := LoadShard(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("maxD=%v ignore=%v: load: %v", maxD, ignore, err)
			}
			if back.Trees() != sh.Trees() {
				t.Fatalf("trees %d != %d", back.Trees(), sh.Trees())
			}
			if got, want := back.Finalize(1), sh.Finalize(1); !reflect.DeepEqual(got, want) {
				t.Fatalf("maxD=%v ignore=%v: reloaded shard differs", maxD, ignore)
			}
		}
	}
}

// TestLoadShardMergeable: shards checkpointed separately reload and
// merge into the same result as mining the union directly — the
// distributed-mining contract of the format.
func TestLoadShardMergeable(t *testing.T) {
	opts := core.DefaultForestOptions()
	fa := shardForest(2, 8, 40)
	fb := shardForest(3, 9, 40)

	roundTrip := func(sh *core.SupportShard) *core.SupportShard {
		var buf bytes.Buffer
		if err := SaveShard(&buf, sh); err != nil {
			t.Fatal(err)
		}
		back, err := LoadShard(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return back
	}
	a := roundTrip(mineShard(fa, opts))
	b := roundTrip(mineShard(fb, opts))
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	want := core.MineForest(append(append([]*tree.Tree{}, fa...), fb...), opts)
	if got := a.Finalize(opts.MinSup); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged reloaded shards differ from direct mining: %d vs %d pairs", len(got), len(want))
	}
}

// TestLoadShardRejectsBadInput: wrong magic (including v1/v2 index
// files), truncation and garbage payloads are errors, never panics.
func TestLoadShardRejectsBadInput(t *testing.T) {
	var good bytes.Buffer
	if err := SaveShard(&good, mineShard(shardForest(4, 3, 20), core.DefaultForestOptions())); err != nil {
		t.Fatal(err)
	}
	raw := good.Bytes()

	t.Run("empty", func(t *testing.T) {
		if _, err := LoadShard(bytes.NewReader(nil)); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("v2 magic", func(t *testing.T) {
		if _, err := LoadShard(bytes.NewReader([]byte(magicV2 + "junk"))); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		for _, cut := range []int{len(magicV3), len(magicV3) + 1, len(raw) - 1} {
			if _, err := LoadShard(bytes.NewReader(raw[:cut])); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("cut=%d: err = %v", cut, err)
			}
		}
	})
	t.Run("flipped payload bytes", func(t *testing.T) {
		for off := len(magicV3); off < len(raw); off += 7 {
			mut := append([]byte{}, raw...)
			mut[off] ^= 0xff
			if _, err := LoadShard(bytes.NewReader(mut)); err == nil {
				// Some flips decode to a still-valid shard; only panics
				// or silent corruption would be bugs, and RestoreShard's
				// validation guards the latter.
				continue
			}
		}
	})
	t.Run("invalid snapshot", func(t *testing.T) {
		// A well-formed gob whose contents violate the shard invariants
		// (symbol id out of range) must be caught by validation.
		var buf bytes.Buffer
		buf.WriteString(magicV3)
		bad := savedShardV3{
			Opts:   core.DefaultForestOptions(),
			Trees:  1,
			Labels: []string{"a"},
			Items:  []core.ShardItem{{A: 0, B: 99, D: 0, N: 1}},
		}
		if err := gob.NewEncoder(&buf).Encode(bad); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadShard(&buf); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("index loader rejects shard file", func(t *testing.T) {
		if _, err := Load(bytes.NewReader(raw)); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("err = %v", err)
		}
	})
}
