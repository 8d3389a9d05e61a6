// Package reconstruct builds phylogenies from pairwise distance data:
// UPGMA (average-linkage agglomeration, which assumes a molecular clock)
// and Neighbor-Joining (Saitou & Nei 1987, consistent on any additive
// distance). Together with internal/parsimony these cover the two
// classic reconstruction families the paper's pipeline draws trees from
// — §6 notes that MP and ML methods produce the unrooted trees the
// free-tree extension targets, and distance methods are the third
// standard source of input phylogenies for mining.
package reconstruct

import (
	"errors"
	"fmt"

	"treemine/internal/seqsim"
	"treemine/internal/tree"
)

// Errors reported by the builders.
var (
	// ErrBadMatrix is returned when the distance matrix is not square,
	// not symmetric, has a non-zero diagonal, or has negative entries.
	ErrBadMatrix = errors.New("reconstruct: invalid distance matrix")
	// ErrTooFewTaxa is returned for fewer than two taxa.
	ErrTooFewTaxa = errors.New("reconstruct: need at least 2 taxa")
)

func validate(names []string, d [][]float64) error {
	n := len(names)
	if n < 2 {
		return ErrTooFewTaxa
	}
	if len(d) != n {
		return fmt.Errorf("%w: %d rows for %d taxa", ErrBadMatrix, len(d), n)
	}
	for i := range d {
		if len(d[i]) != n {
			return fmt.Errorf("%w: row %d has %d entries", ErrBadMatrix, i, len(d[i]))
		}
		if d[i][i] != 0 {
			return fmt.Errorf("%w: non-zero diagonal at %d", ErrBadMatrix, i)
		}
		for j := range d[i] {
			if d[i][j] < 0 {
				return fmt.Errorf("%w: negative entry (%d,%d)", ErrBadMatrix, i, j)
			}
			if d[i][j] != d[j][i] {
				return fmt.Errorf("%w: asymmetric at (%d,%d)", ErrBadMatrix, i, j)
			}
		}
	}
	return nil
}

// shape is a parent-pointer scaffold emitted into a tree.Builder once
// construction finishes.
type shape struct {
	label string
	kids  []*shape
}

func emit(s *shape, parent tree.NodeID, b *tree.Builder) {
	var id tree.NodeID
	switch {
	case len(s.kids) == 0 && parent == tree.None:
		id = b.Root(s.label)
	case len(s.kids) == 0:
		id = b.Child(parent, s.label)
	case parent == tree.None:
		id = b.RootUnlabeled()
	default:
		id = b.ChildUnlabeled(parent)
	}
	for _, k := range s.kids {
		emit(k, id, b)
	}
}

// linkage is what sets one agglomerative method apart from another
// (the Phylagglom scheme of Numerical Recipes): the criterion a join
// minimizes and the distance update after it. Per-round state, such as
// NJ's row sums, lives in the closures.
type linkage struct {
	keep  int                                      // clusters left unjoined under the root
	round func(dist [][]float64, active []int)     // runs before each pick; may be nil
	pick  func(dist [][]float64, i, j int) float64 // join criterion, minimized
	// update returns the distance from a∪b to k; na and nb count the
	// taxa in a and b.
	update func(dist [][]float64, a, b, k, na, nb int) float64
}

// agglomerate is the one loop behind UPGMA and NeighborJoining: while
// more than l.keep clusters remain it joins the active pair (a, b) that
// minimizes l.pick — the first in active order on ties — into a's slot,
// sets the merged cluster's distance to every other active cluster, and
// drops b. The remaining clusters become the root's children; a single
// survivor is the root itself.
func agglomerate(names []string, d [][]float64, l linkage) (*tree.Tree, error) {
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
	for len(active) > l.keep {
		if l.round != nil {
			l.round(dist, active)
		}
		bi, bj := 0, 1
		best := l.pick(dist, active[0], active[1])
		for x := range active {
			for y := x + 1; y < len(active); y++ {
				if q := l.pick(dist, active[x], active[y]); q < best {
					best, bi, bj = q, x, y
				}
			}
		}
		a, b := active[bi], active[bj]
		merged := &shape{kids: []*shape{nodes[a], nodes[b]}}
		for _, k := range active {
			if k == a || k == b {
				continue
			}
			nd := l.update(dist, a, b, k, sizes[a], sizes[b])
			dist[a][k], dist[k][a] = nd, nd
		}
		nodes[a] = merged
		sizes[a] += sizes[b]
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

// UPGMA reconstructs a rooted binary phylogeny by repeatedly joining the
// closest pair of clusters under average linkage. On ultrametric
// distances (a perfect molecular clock) it recovers the true topology.
func UPGMA(names []string, d [][]float64) (*tree.Tree, error) {
	return agglomerate(names, d, linkage{
		keep: 1,
		pick: func(dist [][]float64, i, j int) float64 { return dist[i][j] },
		update: func(dist [][]float64, a, b, k, na, nb int) float64 {
			return (dist[a][k]*float64(na) + dist[b][k]*float64(nb)) / float64(na+nb)
		},
	})
}

// NeighborJoining reconstructs a phylogeny with the Saitou–Nei
// neighbor-joining criterion. NJ trees are inherently unrooted; the
// returned rooted tree places the root at the final three-way join (the
// conventional presentation), leaving a trifurcating root for n ≥ 3.
// On additive distances NJ recovers the true topology.
func NeighborJoining(names []string, d [][]float64) (*tree.Tree, error) {
	r := make([]float64, len(names)) // row sums over the active clusters
	m := 0                           // active cluster count this round
	return agglomerate(names, d, linkage{
		keep: 3,
		round: func(dist [][]float64, active []int) {
			m = len(active)
			for _, i := range active {
				r[i] = 0
				for _, j := range active {
					r[i] += dist[i][j]
				}
			}
		},
		pick: func(dist [][]float64, i, j int) float64 {
			return float64(m-2)*dist[i][j] - r[i] - r[j]
		},
		update: func(dist [][]float64, a, b, k, _, _ int) float64 {
			nd := (dist[a][k] + dist[b][k] - dist[a][b]) / 2
			if nd < 0 {
				nd = 0
			}
			return nd
		},
	})
}

// PDistance returns the observed-proportion (Hamming) distance matrix of
// an alignment, the standard input to UPGMA/NJ on sequence data.
func PDistance(a *seqsim.Alignment) ([]string, [][]float64, error) {
	if err := a.Validate(); err != nil {
		return nil, nil, err
	}
	n := a.NumTaxa()
	sites := a.Len()
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		si := a.Seqs[a.Taxa[i]]
		for j := i + 1; j < n; j++ {
			sj := a.Seqs[a.Taxa[j]]
			diff := 0
			for k := 0; k < sites; k++ {
				if si[k] != sj[k] {
					diff++
				}
			}
			p := 0.0
			if sites > 0 {
				p = float64(diff) / float64(sites)
			}
			d[i][j], d[j][i] = p, p
		}
	}
	return a.Taxa, d, nil
}
