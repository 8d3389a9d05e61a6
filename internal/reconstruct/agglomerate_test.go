package reconstruct

import (
	"math/rand"
	"testing"

	"treemine/internal/newick"
	"treemine/internal/tree"
)

// upgmaRef is UPGMA as it stood before the shared agglomeration loop,
// kept verbatim as the differential oracle.
func upgmaRef(names []string, d [][]float64) (*tree.Tree, error) {
	if err := validate(names, d); err != nil {
		return nil, err
	}
	n := len(names)
	nodes := make([]*shape, n)
	sizes := make([]int, n)
	for i, name := range names {
		nodes[i] = &shape{label: name}
		sizes[i] = 1
	}
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = append([]float64(nil), d[i]...)
	}
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	for len(active) > 1 {
		bi, bj := 0, 1
		for i := 0; i < len(active); i++ {
			for j := i + 1; j < len(active); j++ {
				if dist[active[i]][active[j]] < dist[active[bi]][active[bj]] {
					bi, bj = i, j
				}
			}
		}
		a, b := active[bi], active[bj]
		merged := &shape{kids: []*shape{nodes[a], nodes[b]}}
		// Average-linkage update, stored in slot a.
		for _, k := range active {
			if k == a || k == b {
				continue
			}
			dist[a][k] = (dist[a][k]*float64(sizes[a]) + dist[b][k]*float64(sizes[b])) /
				float64(sizes[a]+sizes[b])
			dist[k][a] = dist[a][k]
		}
		nodes[a] = merged
		sizes[a] += sizes[b]
		active[bj] = active[len(active)-1]
		active = active[:len(active)-1]
	}
	b := tree.NewBuilder()
	emit(nodes[active[0]], tree.None, b)
	return b.Build()
}

// njRef is NeighborJoining as it stood before the shared agglomeration
// loop (per-round row sums in a map), kept verbatim as the differential
// oracle.
func njRef(names []string, d [][]float64) (*tree.Tree, error) {
	if err := validate(names, d); err != nil {
		return nil, err
	}
	n := len(names)
	nodes := make([]*shape, n)
	for i, name := range names {
		nodes[i] = &shape{label: name}
	}
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = append([]float64(nil), d[i]...)
	}
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	for len(active) > 3 {
		m := len(active)
		// Row sums over active entries.
		r := make(map[int]float64, m)
		for _, i := range active {
			for _, j := range active {
				r[i] += dist[i][j]
			}
		}
		// Minimize the Q criterion.
		bi, bj := 0, 1
		bestQ := 0.0
		first := true
		for x := 0; x < m; x++ {
			for y := x + 1; y < m; y++ {
				i, j := active[x], active[y]
				q := float64(m-2)*dist[i][j] - r[i] - r[j]
				if first || q < bestQ {
					bestQ, bi, bj, first = q, x, y, false
				}
			}
		}
		a, b := active[bi], active[bj]
		merged := &shape{kids: []*shape{nodes[a], nodes[b]}}
		for _, k := range active {
			if k == a || k == b {
				continue
			}
			nd := (dist[a][k] + dist[b][k] - dist[a][b]) / 2
			if nd < 0 {
				nd = 0
			}
			dist[a][k] = nd
			dist[k][a] = nd
		}
		nodes[a] = merged
		active[bj] = active[len(active)-1]
		active = active[:len(active)-1]
	}
	root := &shape{}
	for _, i := range active {
		root.kids = append(root.kids, nodes[i])
	}
	if len(root.kids) == 1 {
		root = root.kids[0]
	}
	b := tree.NewBuilder()
	emit(root, tree.None, b)
	return b.Build()
}

// randMatrix returns a random valid distance matrix over n taxa whose
// entries come from a handful of small integers, so many distances tie
// and the join order rests on the tie-break.
func randMatrix(rng *rand.Rand, n int) ([]string, [][]float64) {
	names := make([]string, n)
	d := make([][]float64, n)
	for i := range d {
		names[i] = string(rune('a' + i))
		d[i] = make([]float64, n)
	}
	levels := rng.Intn(4) + 1
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := float64(rng.Intn(levels)) + 0.5*float64(rng.Intn(2))
			d[i][j], d[j][i] = v, v
		}
	}
	return names, d
}

// TestAgglomerateMatchesReference: UPGMA and NeighborJoining through the
// shared loop emit byte-identical Newick to the pre-refactor functions
// on random matrices full of tied distances.
func TestAgglomerateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 400; trial++ {
		names, d := randMatrix(rng, rng.Intn(11)+2)
		for _, m := range []struct {
			name     string
			got, ref func([]string, [][]float64) (*tree.Tree, error)
		}{
			{"UPGMA", UPGMA, upgmaRef},
			{"NJ", NeighborJoining, njRef},
		} {
			got, err := m.got(names, d)
			if err != nil {
				t.Fatal(err)
			}
			want, err := m.ref(names, d)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := newick.Write(got), newick.Write(want); g != w {
				t.Fatalf("trial %d %s on %v:\n got %s\nwant %s", trial, m.name, d, g, w)
			}
		}
	}
}
