package cluster

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"treemine/internal/core"
	"treemine/internal/tree"
	"treemine/internal/treegen"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(4)
	m.Set(0, 3, 1.5)
	m.Set(3, 1, 2.5) // symmetric set
	if m.At(3, 0) != 1.5 || m.At(0, 3) != 1.5 {
		t.Fatalf("At(0,3) = %v", m.At(0, 3))
	}
	if m.At(1, 3) != 2.5 {
		t.Fatalf("At(1,3) = %v", m.At(1, 3))
	}
	if m.At(2, 2) != 0 {
		t.Fatalf("diagonal = %v", m.At(2, 2))
	}
	if m.Len() != 4 {
		t.Fatalf("Len = %d", m.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Set on diagonal should panic")
		}
	}()
	m.Set(1, 1, 1)
}

// twoBlobs builds a matrix with two clear groups: {0,1,2} and {3,4,5}.
func twoBlobs() *Matrix {
	m := NewMatrix(6)
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			if (i < 3) == (j < 3) {
				m.Set(i, j, 0.1)
			} else {
				m.Set(i, j, 1.0)
			}
		}
	}
	return m
}

func TestKMedoidsTwoBlobs(t *testing.T) {
	res, err := KMedoids(twoBlobs(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment[0] != res.Assignment[1] || res.Assignment[1] != res.Assignment[2] {
		t.Fatalf("first blob split: %v", res.Assignment)
	}
	if res.Assignment[3] != res.Assignment[4] || res.Assignment[4] != res.Assignment[5] {
		t.Fatalf("second blob split: %v", res.Assignment)
	}
	if res.Assignment[0] == res.Assignment[3] {
		t.Fatalf("blobs merged: %v", res.Assignment)
	}
	// Cost: each non-medoid point sits 0.1 from its blob's medoid.
	if res.Cost != 0.4 {
		t.Fatalf("Cost = %v, want 0.4", res.Cost)
	}
}

func TestKMedoidsErrors(t *testing.T) {
	m := twoBlobs()
	if _, err := KMedoids(m, 0, 1); !errors.Is(err, ErrBadK) {
		t.Errorf("k=0 err = %v", err)
	}
	if _, err := KMedoids(m, 7, 1); !errors.Is(err, ErrBadK) {
		t.Errorf("k=7 err = %v", err)
	}
}

func TestKMedoidsKEqualsN(t *testing.T) {
	res, err := KMedoids(twoBlobs(), 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 0 {
		t.Fatalf("k=n cost = %v", res.Cost)
	}
}

func TestAgglomerateTwoBlobs(t *testing.T) {
	for _, l := range []Linkage{Single, Complete, Average} {
		d := Agglomerate(twoBlobs(), l)
		if len(d.Merges) != 5 {
			t.Fatalf("%s: merges = %d", l, len(d.Merges))
		}
		got, err := d.Cut(2)
		if err != nil {
			t.Fatal(err)
		}
		want := []int{0, 0, 0, 1, 1, 1}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: Cut(2) = %v", l, got)
			}
		}
		// The last merge joins the two blobs at distance 1 (single),
		// 1 (complete — all cross distances are 1), 1 (average).
		if d.Merges[4].Dist != 1 {
			t.Fatalf("%s: final merge dist = %v", l, d.Merges[4].Dist)
		}
		// Earlier merges happen within blobs at 0.1.
		if d.Merges[0].Dist != 0.1 {
			t.Fatalf("%s: first merge dist = %v", l, d.Merges[0].Dist)
		}
	}
}

func TestCutBounds(t *testing.T) {
	d := Agglomerate(twoBlobs(), Average)
	if _, err := d.Cut(0); !errors.Is(err, ErrBadK) {
		t.Errorf("Cut(0) err = %v", err)
	}
	if _, err := d.Cut(7); !errors.Is(err, ErrBadK) {
		t.Errorf("Cut(7) err = %v", err)
	}
	one, err := d.Cut(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range one {
		if l != 0 {
			t.Fatalf("Cut(1) = %v", one)
		}
	}
	all, err := d.Cut(6)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, l := range all {
		seen[l] = true
	}
	if len(seen) != 6 {
		t.Fatalf("Cut(n) = %v", all)
	}
}

func TestLinkageString(t *testing.T) {
	if Single.String() != "single" || Complete.String() != "complete" ||
		Average.String() != "average" || Linkage(9).String() != "Linkage(9)" {
		t.Fatal("Linkage names wrong")
	}
}

func TestTDistMatrixClustersTopologies(t *testing.T) {
	// Six trees: three clones of topology A, three of topology B over
	// the same taxa. The tdist matrix must separate them perfectly.
	rng := rand.New(rand.NewSource(9))
	taxa := treegen.Alphabet(12)
	a := treegen.Yule(rng, taxa)
	b := treegen.Yule(rng, taxa)
	trees := []*tree.Tree{a, a.Clone(), a.Clone(), b, b.Clone(), b.Clone()}
	m := TDistMatrix(trees, core.VariantDistOccur, core.DefaultOptions())
	if m.At(0, 1) != 0 || m.At(3, 5) != 0 {
		t.Fatalf("clones not at distance 0: %v %v", m.At(0, 1), m.At(3, 5))
	}
	if m.At(0, 3) == 0 {
		t.Fatal("distinct topologies at distance 0")
	}
	res, err := KMedoids(m, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 0 {
		t.Fatalf("clone clustering cost = %v, want 0", res.Cost)
	}
	if res.Assignment[0] == res.Assignment[3] {
		t.Fatalf("assignment merged topologies: %v", res.Assignment)
	}
	d := Agglomerate(m, Average)
	cut, err := d.Cut(2)
	if err != nil {
		t.Fatal(err)
	}
	if cut[0] != cut[1] || cut[0] != cut[2] || cut[3] != cut[4] || cut[3] != cut[5] || cut[0] == cut[3] {
		t.Fatalf("hierarchical cut = %v", cut)
	}
}

func TestAgglomerateEmpty(t *testing.T) {
	d := Agglomerate(NewMatrix(0), Single)
	if len(d.Merges) != 0 {
		t.Fatal("empty matrix produced merges")
	}
}

// kMedoidsRef is the pre-engine descent, verbatim: every swap candidate
// evaluated by a full O(n·k) assignCost recomputation. The incremental
// kMedoidsOnce must reach the same medoids from the same seed.
func kMedoidsRef(m *Matrix, k int, seed int64) *KMedoidsResult {
	rng := rand.New(rand.NewSource(seed))
	var best *KMedoidsResult
	for restart := 0; restart < 4; restart++ {
		n := m.Len()
		medoids := rng.Perm(n)[:k]
		isMedoid := make([]bool, n)
		for _, md := range medoids {
			isMedoid[md] = true
		}
		cost := assignCost(m, medoids)
		for improved := true; improved; {
			improved = false
			for mi := 0; mi < k && !improved; mi++ {
				for cand := 0; cand < n; cand++ {
					if isMedoid[cand] {
						continue
					}
					old := medoids[mi]
					medoids[mi] = cand
					if c := assignCost(m, medoids); c < cost-1e-15 {
						cost = c
						isMedoid[old] = false
						isMedoid[cand] = true
						improved = true
						break
					}
					medoids[mi] = old
				}
			}
		}
		sort.Ints(medoids)
		res := &KMedoidsResult{Medoids: medoids, Assignment: make([]int, n), Cost: cost}
		for i := 0; i < n; i++ {
			bestD, bestM := math.Inf(1), 0
			for mi, md := range medoids {
				if d := m.At(i, md); d < bestD {
					bestD, bestM = d, mi
				}
			}
			res.Assignment[i] = bestM
		}
		if best == nil || res.Cost < best.Cost {
			best = res
		}
	}
	return best
}

// randMatrix builds a random symmetric distance matrix in [0, 1).
func randMatrix(rng *rand.Rand, n int) *Matrix {
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, rng.Float64())
		}
	}
	return m
}

// TestKMedoidsIncrementalDifferential is the satellite pin: on random
// matrices, the incremental (nearest/second-nearest, PAM-style) swap
// evaluation reaches the same medoid set, the same assignment, and the
// same final cost (±1e-12) as the full-recompute descent from the same
// seed. Seeds are fixed so the comparison is deterministic.
func TestKMedoidsIncrementalDifferential(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(28) + 2
		k := rng.Intn(n) + 1
		m := randMatrix(rng, n)
		got, err := KMedoids(m, k, seed)
		if err != nil {
			t.Fatal(err)
		}
		want := kMedoidsRef(m, k, seed)
		if !reflect.DeepEqual(got.Medoids, want.Medoids) {
			t.Fatalf("seed=%d n=%d k=%d: medoids %v != %v", seed, n, k, got.Medoids, want.Medoids)
		}
		if !reflect.DeepEqual(got.Assignment, want.Assignment) {
			t.Fatalf("seed=%d n=%d k=%d: assignment %v != %v", seed, n, k, got.Assignment, want.Assignment)
		}
		if diff := math.Abs(got.Cost - want.Cost); diff > 1e-12 {
			t.Fatalf("seed=%d n=%d k=%d: cost %v != %v (|Δ| = %g)", seed, n, k, got.Cost, want.Cost, diff)
		}
	}
}

// TestTDistMatrixMatchesPairwiseMining pins the profile-engine delegate
// against the pre-engine fill (string-keyed Mine + per-pair TDistItems),
// across maxdist on both sides of D(14) and all variants — the regression gate on
// the "TDistMatrix pays the string penalty even for packable options"
// bug this matrix used to have.
func TestTDistMatrixMatchesPairwiseMining(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	taxa := treegen.Alphabet(10)
	trees := make([]*tree.Tree, 9)
	for i := range trees {
		trees[i] = treegen.Yule(rng, taxa[:rng.Intn(6)+4])
	}
	variants := []core.Variant{core.VariantLabel, core.VariantDist, core.VariantOccur, core.VariantDistOccur}
	for _, maxD := range []core.Dist{core.D(3), core.D(18)} {
		opts := core.Options{MaxDist: maxD, MinOccur: 1}
		items := make([]core.ItemSet, len(trees))
		for i, tr := range trees {
			items[i] = core.Mine(tr, opts)
		}
		for _, v := range variants {
			m := TDistMatrix(trees, v, opts)
			for i := 0; i < len(trees); i++ {
				for j := i + 1; j < len(trees); j++ {
					if got, want := m.At(i, j), core.TDistItems(items[i], items[j], v); got != want {
						t.Fatalf("maxD=%v %v: At(%d,%d) = %v, want %v", maxD, v, i, j, got, want)
					}
				}
			}
		}
	}
}
