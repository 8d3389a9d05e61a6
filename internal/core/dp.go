package core

import (
	"treemine/internal/tree"
)

// MineDP computes the same ItemSet as Mine with the dynamic-programming
// strategy the paper's §7 proposes investigating: a single postorder pass
// maintains, for every node, a histogram of labeled-descendant counts by
// relative depth (up to the deepest level any qualified pair can reach).
// When the pass leaves a node, the histograms of its child subtrees are
// combined — cross products between different children at the depth
// combination each distance dictates — and then merged (shifted one level
// down) into the node's own histogram.
//
// Compared to Mine it never materializes node pairs and never walks
// ancestor chains, trading the O(pairs) enumeration for
// O(n · maxLevel · |labels at a level|) histogram arithmetic; on trees
// with many repeated labels (phylogenies mined at the Table 2 defaults)
// it does strictly less work. The histograms run on interned symbol IDs
// and the items accumulate under packed keys, truncated like Mine's
// buckets to the tree height, and like Mine it panics when t can reach a
// distance past MaxPackedDist. The result is always identical to Mine's
// — property-tested in dp_test.go.
func MineDP(t *tree.Tree, opts Options) ItemSet {
	if opts.MaxDist < 0 || t.Size() == 0 {
		return make(ItemSet)
	}
	syms := NewSymbols()
	syms.InternTree(t)
	_, maxJ := opts.MaxDist.Levels()
	maxJ = min(maxJ, t.Height())
	if err := reachErr(t, opts.MaxDist, maxJ); err != nil {
		panic(err)
	}
	d := &dpMiner{t: t, opts: opts, syms: syms, maxJ: maxJ, items: make(ISet)}
	d.visit(t.Root())
	return d.items.ToItemSet(syms, opts.MinOccur)
}

// depthHist[d] maps symbol → count of labeled descendants at relative
// depth d+1 (depth 0 of the slice is one edge below the owner).
type depthHist []map[uint32]int32

type dpMiner struct {
	t     *tree.Tree
	opts  Options
	syms  *Symbols
	maxJ  int
	items ISet
}

// visit returns the depth histogram of n's subtree, relative to n,
// truncated to maxJ levels: index 0 holds the labels of n's children,
// index k the labels k+1 edges below n. n's own label is the caller's
// concern (it enters the parent's histogram at index 0).
func (d *dpMiner) visit(n tree.NodeID) depthHist {
	kids := d.t.Children(n)
	if len(kids) == 0 {
		return nil
	}
	hists := make([]depthHist, len(kids))
	for i, k := range kids {
		sub := d.visit(k)
		// Shift down one level: k itself lands at depth 1 below n.
		h := make(depthHist, 0, d.maxJ)
		top := map[uint32]int32{}
		if l, ok := d.t.Label(k); ok {
			id, _ := d.syms.Lookup(l)
			top[id] = 1
		}
		h = append(h, top)
		for depth := 0; depth < len(sub) && len(h) < d.maxJ; depth++ {
			h = append(h, sub[depth])
		}
		hists[i] = h
	}
	d.combine(hists)
	return d.merge(hists)
}

// combine counts, for every distance d ≤ maxdist, the symbol pairs formed
// between depth-i entries of one child histogram and depth-j entries of
// another (i, j as Dist.Levels dictates).
func (d *dpMiner) combine(hists []depthHist) {
	if len(hists) < 2 {
		return
	}
	for dist := Dist(0); dist <= d.opts.MaxDist; dist++ {
		i, j := dist.Levels()
		if j > d.maxJ {
			break // j is nondecreasing in dist
		}
		for c1 := 0; c1 < len(hists); c1++ {
			h1 := hists[c1].at(i)
			if h1 == nil {
				continue
			}
			start := 0
			if i == j {
				start = c1 + 1
			}
			for c2 := start; c2 < len(hists); c2++ {
				if c2 == c1 {
					continue
				}
				h2 := hists[c2].at(j)
				if h2 == nil {
					continue
				}
				for s1, n1 := range h1 {
					for s2, n2 := range h2 {
						d.items[NewIKey(s1, s2, dist)] += n1 * n2
					}
				}
			}
		}
	}
}

// at returns the histogram at 1-based depth, or nil when out of range or
// empty.
func (h depthHist) at(depth int) map[uint32]int32 {
	if depth < 1 || depth > len(h) || len(h[depth-1]) == 0 {
		return nil
	}
	return h[depth-1]
}

// merge folds the child histograms into one, reusing the largest child's
// maps where possible.
func (d *dpMiner) merge(hists []depthHist) depthHist {
	// Merge into the deepest histogram to minimize map copying.
	best := 0
	for i := range hists {
		if len(hists[i]) > len(hists[best]) {
			best = i
		}
	}
	out := hists[best]
	for i, h := range hists {
		if i == best {
			continue
		}
		for depth := range h {
			if len(h[depth]) == 0 {
				continue
			}
			if len(out[depth]) == 0 {
				out[depth] = h[depth]
				continue
			}
			for s, c := range h[depth] {
				out[depth][s] += c
			}
		}
	}
	return out
}
