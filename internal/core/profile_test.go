package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestProfileTDistDifferential pins the merge-join distance to both
// existing implementations: for random tree pairs, across all four
// variants and a MaxDist sweep crossing D(14) (the old 4-bit distance
// field's bound), TDistProfiles ≡ TDistItems ≡ TDistISets ≡ TDist, bit
// for bit (all
// four compute 1 − |∩|/|∪| from exact integer cardinalities, so float
// equality is the correct assertion).
func TestProfileTDistDifferential(t *testing.T) {
	f := func(seed int64, size1, size2, alpha, maxD, minOcc uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		t1 := randAlphaTree(rng, int(size1)%40+1, int(alpha)%6+1)
		t2 := randAlphaTree(rng, int(size2)%40+1, int(alpha)%6+1)
		opts := Options{MaxDist: Dist(int(maxD) % 20), MinOccur: int(minOcc)%3 + 1}
		s1, s2 := Mine(t1, opts), Mine(t2, opts)
		for _, v := range allVariants {
			want := TDistItems(s1, s2, v)
			if got := TDist(t1, t2, v, opts); got != want {
				t.Logf("%v opts=%+v: TDist %v != TDistItems %v", v, opts, got, want)
				return false
			}
			syms := NewSymbols()
			syms.InternTree(t1)
			syms.InternTree(t2)
			i1, i2 := MineISet(t1, opts, syms), MineISet(t2, opts, syms)
			if got := TDistISets(i1, i2, v); got != want {
				t.Logf("%v opts=%+v: TDistISets %v != TDistItems %v", v, opts, got, want)
				return false
			}
			if got := TDistProfiles(NewProfileISet(i1, v), NewProfileISet(i2, v)); got != want {
				t.Logf("%v opts=%+v: packed profiles %v != TDistItems %v", v, opts, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestProfileTotalsMatchViews checks the cached totals against the view
// maps they replace, and that posting lists are sorted and duplicate-free
// (the merge-join's invariants).
func TestProfileTotalsMatchViews(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		tr := randAlphaTree(rng, rng.Intn(50)+2, rng.Intn(5)+1)
		opts := DefaultOptions()
		syms := NewSymbols()
		syms.InternTree(tr)
		is := MineISet(tr, opts, syms)
		items := Mine(tr, opts)
		for _, v := range allVariants {
			p := NewProfileISet(is, v)
			if want := int64(v.view(items).Total()); p.Total() != want {
				t.Fatalf("%v: Total %d != view total %d", v, p.Total(), want)
			}
			if want := len(v.view(items)); p.Len() != want {
				t.Fatalf("%v: Len %d != view len %d", v, p.Len(), want)
			}
			for i := 1; i < len(p.posts); i++ {
				if p.posts[i-1].Key >= p.posts[i].Key {
					t.Fatalf("%v: postings not strictly sorted at %d", v, i)
				}
			}
		}
	}
}

// TestTDistProfilesZeroAlloc is the regression gate on the pairwise
// inner loop: one profile-to-profile distance must allocate nothing, at
// the default maxdist and past D(14). This is what keeps
// cluster.TDistMatrix and the kernel search from drifting back onto
// per-pair map rebuilds.
func TestTDistProfilesZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	t1 := randAlphaTree(rng, 60, 4)
	t2 := randAlphaTree(rng, 60, 4)
	packedOpts := DefaultOptions()
	syms := NewSymbols()
	syms.InternTree(t1)
	syms.InternTree(t2)
	p1 := NewProfileISet(MineISet(t1, packedOpts, syms), VariantDistOccur)
	p2 := NewProfileISet(MineISet(t2, packedOpts, syms), VariantDistOccur)
	if p1.Len() == 0 || p2.Len() == 0 {
		t.Fatal("fixture mined empty profiles")
	}
	if n := testing.AllocsPerRun(100, func() { TDistProfiles(p1, p2) }); n != 0 {
		t.Errorf("packed TDistProfiles allocates %v per op, want 0", n)
	}
	deepOpts := Options{MaxDist: D(16), MinOccur: 1}
	q1 := NewProfileISet(MineISet(t1, deepOpts, syms), VariantDistOccur)
	q2 := NewProfileISet(MineISet(t2, deepOpts, syms), VariantDistOccur)
	if n := testing.AllocsPerRun(100, func() { TDistProfiles(q1, q2) }); n != 0 {
		t.Errorf("TDistProfiles at maxdist 8 allocates %v per op, want 0", n)
	}
	// Against an empty profile the distance is defined without looking
	// at any key.
	if got := TDistProfiles(p1, &Profile{}); got != 1 {
		t.Fatalf("profile vs empty = %v, want 1", got)
	}
}
