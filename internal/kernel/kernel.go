// Package kernel finds kernel trees from groups of phylogenies (§5.3 of
// the paper): given s groups of trees — each group typically the equally
// parsimonious trees for one taxon set, with different groups sharing
// some but not all taxa — it selects one tree per group so that the
// average pairwise cousin-based tree distance among the selected trees is
// minimized. The paper proposes the selected trees as a starting point
// for supertree construction, precisely because the cousin-based distance
// (unlike COMPONENT's measures) tolerates unequal taxon sets.
package kernel

import (
	"context"
	"errors"
	"math/rand"

	"treemine/internal/core"
	"treemine/internal/tree"
)

// ErrEmptyGroup is returned when any group contains no trees.
var ErrEmptyGroup = errors.New("kernel: empty group")

// Config tunes the kernel search.
type Config struct {
	// Variant selects the tree-distance measure; the paper's experiment
	// uses VariantDistOccur.
	Variant core.Variant
	// Mining options for the per-tree cousin pair items.
	Options core.Options
	// ExactBudget caps the number of tree combinations the exact search
	// may enumerate; larger inputs fall back to coordinate descent.
	ExactBudget int
	// Restarts for the coordinate-descent fallback.
	Restarts int
	// Seed drives the fallback's randomized restarts.
	Seed int64
}

// DefaultConfig mirrors the paper's kernel experiment: tdist_{occ,dist}
// with the Table 2 mining defaults.
func DefaultConfig() Config {
	return Config{
		Variant:     core.VariantDistOccur,
		Options:     core.DefaultOptions(),
		ExactBudget: 1_000_000,
		Restarts:    8,
		Seed:        1,
	}
}

// Result is the outcome of a kernel search.
type Result struct {
	// Choice[g] is the index of the selected tree within group g.
	Choice []int
	// AvgDist is the average pairwise tree distance among the selected
	// trees (0 when there are fewer than two groups).
	AvgDist float64
	// Exact reports whether the result came from exhaustive enumeration
	// (true) or the coordinate-descent fallback (false).
	Exact bool
}

// Find selects one tree per group minimizing the average pairwise
// distance. Every tree is mined exactly once into a frozen posting-list
// Profile (one shared symbol table across all groups), and the full pairwise distance matrix is filled up
// front by parallel merge-joins — so the search itself, exact or
// descent, only ever reads a flat array. The selected trees and
// distances are identical to evaluating TDist per candidate pair,
// pinned by the differential test in kernel_test.go.
func Find(groups [][]*tree.Tree, cfg Config) (*Result, error) {
	return FindCtx(context.Background(), groups, cfg)
}

// FindCtx is Find under a context: the profiling and matrix-fill phases
// inherit the core engine's cooperative cancellation and panic
// containment, the exact enumeration checks ctx between top-level
// branches, and the descent checks it between restarts — so even
// budget-sized searches return ctx.Err() promptly.
func FindCtx(ctx context.Context, groups [][]*tree.Tree, cfg Config) (*Result, error) {
	s := len(groups)
	if s == 0 {
		return &Result{}, nil
	}
	for _, g := range groups {
		if len(g) == 0 {
			return nil, ErrEmptyGroup
		}
	}
	if s == 1 {
		return &Result{Choice: []int{0}, AvgDist: 0, Exact: true}, nil
	}
	// Flatten the groups, profile each tree once, and precompute all
	// pairwise distances; off[gi]+ti is tree ti of group gi in the flat
	// ordering.
	off := make([]int, s)
	var flat []*tree.Tree
	for gi, g := range groups {
		off[gi] = len(flat)
		flat = append(flat, g...)
	}
	profiles, err := core.BuildProfilesCtx(ctx, flat, cfg.Variant, cfg.Options, 0)
	if err != nil {
		return nil, err
	}
	dm, err := core.ProfileDistMatrixCtx(ctx, profiles, 0)
	if err != nil {
		return nil, err
	}
	dist := func(gi, ti, gj, tj int) float64 {
		return dm.At(off[gi]+ti, off[gj]+tj)
	}

	product := 1
	exact := true
	for _, g := range groups {
		product *= len(g)
		if product > cfg.ExactBudget {
			exact = false
			break
		}
	}

	var best *Result
	if exact {
		best, err = findExact(ctx, groups, dist)
		if err != nil {
			return nil, err
		}
		best.Exact = true
	} else {
		best, err = findDescent(ctx, groups, dist, cfg)
		if err != nil {
			return nil, err
		}
		best.Exact = false
	}
	return best, nil
}

// findExact enumerates the full cross product with partial-sum pruning,
// checking ctx once per top-level branch (each branch is a bounded slice
// of the cross product, so cancellation lands within one of them).
func findExact(ctx context.Context, groups [][]*tree.Tree, dist func(gi, ti, gj, tj int) float64) (*Result, error) {
	s := len(groups)
	pairs := float64(s*(s-1)) / 2
	bestSum := -1.0
	bestChoice := make([]int, s)
	cur := make([]int, s)
	var rec func(g int, sum float64) error
	rec = func(g int, sum float64) error {
		if bestSum >= 0 && sum >= bestSum {
			return nil // distances are non-negative: prune
		}
		if g == s {
			bestSum = sum
			copy(bestChoice, cur)
			return nil
		}
		for ti := range groups[g] {
			if g <= 1 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			cur[g] = ti
			add := 0.0
			for gj := 0; gj < g; gj++ {
				add += dist(g, ti, gj, cur[gj])
			}
			if err := rec(g+1, sum+add); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0, 0); err != nil {
		return nil, err
	}
	return &Result{Choice: bestChoice, AvgDist: bestSum / pairs}, nil
}

// findDescent runs randomized coordinate descent: starting from a random
// choice, repeatedly re-optimize one group's selection holding the others
// fixed, until no single-group change improves; keep the best of several
// restarts.
//
// The descent keeps a per-(group, tree) distance-sum cache: sums[g][ti]
// is Σ over the other groups of the distance from tree ti of group g to
// those groups' current selections. Re-optimizing a group is then an
// argmin over its cached row, and an accepted change updates every other
// row by the two affected terms — O(Σ|g|) per accepted move instead of
// recomputing s−1 distances per candidate per visit.
func findDescent(ctx context.Context, groups [][]*tree.Tree, dist func(gi, ti, gj, tj int) float64, cfg Config) (*Result, error) {
	s := len(groups)
	rng := rand.New(rand.NewSource(cfg.Seed))
	pairs := float64(s*(s-1)) / 2
	score := func(choice []int) float64 {
		sum := 0.0
		for i := 0; i < s; i++ {
			for j := i + 1; j < s; j++ {
				sum += dist(i, choice[i], j, choice[j])
			}
		}
		return sum
	}
	restarts := cfg.Restarts
	if restarts < 1 {
		restarts = 1
	}
	sums := make([][]float64, s)
	for g := range sums {
		sums[g] = make([]float64, len(groups[g]))
	}
	var bestChoice []int
	bestSum := -1.0
	for r := 0; r < restarts; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		choice := make([]int, s)
		for g := range choice {
			choice[g] = rng.Intn(len(groups[g]))
		}
		for g := 0; g < s; g++ {
			for ti := range groups[g] {
				sum := 0.0
				for gj := 0; gj < s; gj++ {
					if gj != g {
						sum += dist(g, ti, gj, choice[gj])
					}
				}
				sums[g][ti] = sum
			}
		}
		for improved := true; improved; {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			improved = false
			for g := 0; g < s; g++ {
				curBest, curIdx := -1.0, choice[g]
				for ti, sum := range sums[g] {
					if curBest < 0 || sum < curBest {
						curBest, curIdx = sum, ti
					}
				}
				if curIdx != choice[g] {
					old := choice[g]
					choice[g] = curIdx
					for h := 0; h < s; h++ {
						if h == g {
							continue
						}
						for ti := range sums[h] {
							sums[h][ti] += dist(h, ti, g, curIdx) - dist(h, ti, g, old)
						}
					}
					improved = true
				}
			}
		}
		// The reported sum is recomputed fresh so cache drift can never
		// reach the result.
		if total := score(choice); bestSum < 0 || total < bestSum {
			bestSum = total
			bestChoice = append([]int(nil), choice...)
		}
	}
	return &Result{Choice: bestChoice, AvgDist: bestSum / pairs}, nil
}
