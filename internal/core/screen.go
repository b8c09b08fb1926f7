package core

import (
	"fmt"

	"pka/internal/assoc"
	"pka/internal/contingency"
)

// ScreenReport summarizes an association screen: how many attribute pairs
// were surveyed, how many passed, and the threshold applied.
type ScreenReport struct {
	// Alpha is the G² p-value threshold actually used (after the
	// Bonferroni default is resolved).
	Alpha float64
	// PairsTotal is the number of attribute pairs surveyed: R(R-1)/2.
	PairsTotal int
	// PairsKept is how many pairs passed the screen (after the CI pass,
	// when enabled).
	PairsKept int
	// CIAlpha is the conditional-independence threshold applied, zero when
	// the CI pass was off.
	CIAlpha float64
	// CITriplesTested counts the per-triple conditional G² tests run.
	CITriplesTested int
	// CIEdgesDropped counts pairwise-passing edges the CI pass removed.
	CIEdgesDropped int
}

// buildScreen surveys every attribute pair of the counts backend and
// returns the pass/fail adjacency plus the report. SPIRIT-style network
// learners bound structure search the same way: cheap pairwise statistics
// gate the expensive family scan. A pair passes when its G² p-value is at
// most alpha; assoc.ScreenPairs decides that from G² alone, against a
// critical value found once per screen, so the screen computes none of the
// report statistics (assoc.ScorePairs) and its decisions are exactly those
// of their p-values. Pairs are consumed in enumeration order (no ranking),
// and sparse tables serve them from caches that mutation keeps current —
// the pair-count ledger on schemas of 65 or more attributes — so a
// streaming re-screen never rescans the occupied cells. The screen runs
// serially.
func buildScreen(table contingency.Counts, alpha float64) ([][]bool, *ScreenReport, error) {
	r := table.R()
	pairs := r * (r - 1) / 2
	if alpha == 0 {
		alpha = 0.05 / float64(pairs)
	}
	cells := make([]bool, r*r)
	adj := make([][]bool, r)
	for i := range adj {
		adj[i] = cells[i*r : (i+1)*r : (i+1)*r]
	}
	rep := &ScreenReport{Alpha: alpha, PairsTotal: pairs}
	err := assoc.ScreenPairs(table, alpha, func(i, j int) {
		adj[i][j] = true
		adj[j][i] = true
		rep.PairsKept++
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: pair screen: %w", err)
	}
	return adj, rep, nil
}

// applyCIScreen refines a pairwise adjacency in place with order-1
// conditional-independence tests (the PC-algorithm step): for each edge
// (i,j) that passed the marginal screen, every common neighbor k is tried
// in ascending order as a separator via assoc's per-slice G² test, and the
// edge is dropped at the first k whose test fails to reject independence
// (p > alpha). Every edge is tested against the ORIGINAL adjacency and the
// drops are applied after the last test, so no decision depends on the
// order edges are visited in. alpha == 0 applies the 0.05 default.
func applyCIScreen(table contingency.Counts, adj [][]bool, alpha float64, rep *ScreenReport) error {
	if alpha == 0 {
		alpha = 0.05
	}
	rep.CIAlpha = alpha
	r := table.R()
	type edge struct{ i, j int }
	var edges []edge
	triangle := false
	for i := 0; i < r; i++ {
		for j := i + 1; j < r; j++ {
			if !adj[i][j] {
				continue
			}
			edges = append(edges, edge{i, j})
			for k := 0; k < r && !triangle; k++ {
				triangle = adj[i][k] && adj[j][k]
			}
		}
	}
	if !triangle {
		// No kept edge has a common neighbor: nothing to test, and no
		// reason to materialize the occupied cells.
		return nil
	}
	flat, err := assoc.Flatten(table)
	if err != nil {
		return err
	}
	var drops []edge
	for _, e := range edges {
		for k := 0; k < r; k++ {
			if k == e.i || k == e.j || !adj[e.i][k] || !adj[e.j][k] {
				continue
			}
			_, _, p := flat.CondG2(e.i, e.j, k)
			rep.CITriplesTested++
			if p > alpha {
				drops = append(drops, e)
				break
			}
		}
	}
	for _, e := range drops {
		adj[e.i][e.j] = false
		adj[e.j][e.i] = false
		rep.CIEdgesDropped++
		rep.PairsKept--
	}
	return nil
}

// screenedFamilies returns the order-r attribute families eligible under
// the screen: the r-cliques of the passing-pair graph, enumerated in
// lexicographic member order (a deterministic subset of the order the
// unscreened scan uses), followed by any seeded families of that order
// that the screen alone would have excluded — accepted constraints must
// stay inside the candidate universe for the memo's M bookkeeping.
func screenedFamilies(r, order int, adj [][]bool, seeds []contingency.VarSet) []contingency.VarSet {
	var out []contingency.VarSet
	members := make([]int, 0, order)
	var extend func(next int)
	extend = func(next int) {
		if len(members) == order {
			out = append(out, contingency.NewVarSet(members...))
			return
		}
		// Prune: not enough attributes left to complete the clique.
		for v := next; v <= r-(order-len(members)); v++ {
			ok := true
			for _, m := range members {
				if !adj[m][v] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			members = append(members, v)
			extend(v + 1)
			members = members[:len(members)-1]
		}
	}
	extend(0)
	have := make(map[contingency.VarSet]bool, len(out))
	for _, f := range out {
		have[f] = true
	}
	for _, s := range seeds {
		if s.Len() == order && !have[s] {
			have[s] = true
			out = append(out, s)
		}
	}
	return out
}
