// Package assoc computes pairwise association diagnostics over a
// contingency table: mutual information, Cramér's V, and the likelihood-
// ratio statistic with its p-value. The memo positions its output as
// "clues for discovering more causal explanations" — this package is that
// survey view, independent of the MML selection machinery, for analysts
// deciding where to look first.
package assoc

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"pka/internal/contingency"
	"pka/internal/par"
	"pka/internal/report"
	"pka/internal/stats"
)

// PairStats summarizes the association between two attributes.
type PairStats struct {
	// I, J are the attribute positions (I < J).
	I, J int
	// MI is the mutual information in nats of the empirical pair marginal.
	MI float64
	// G2 is the likelihood-ratio statistic against independence.
	G2 float64
	// DF is (card_I - 1)(card_J - 1).
	DF int
	// PValue is the chi-square tail probability of G2 at DF.
	PValue float64
	// CramersV is the [0,1] effect-size normalization of Pearson's X².
	CramersV float64
}

// scorePair computes the association statistics of one pair from its 2-D
// marginal table (axes 0 and 1 of pair, cardinalities ci × cj); i and j
// are the attribute positions reported, n the parent table's total.
func scorePair(pair *contingency.Table, i, j int, n float64) (PairStats, error) {
	ci, cj := pair.Card(0), pair.Card(1)
	joint := make([]float64, ci*cj)
	obs := make([]int64, ci*cj)
	for a := 0; a < ci; a++ {
		for b := 0; b < cj; b++ {
			v, err := pair.At(a, b)
			if err != nil {
				return PairStats{}, err
			}
			joint[a*cj+b] = float64(v) / n
			obs[a*cj+b] = v
		}
	}
	mi, err := stats.MutualInformation(joint, ci, cj)
	if err != nil {
		return PairStats{}, err
	}
	// Expected counts under independence of the pair marginal.
	rowSums := make([]float64, ci)
	colSums := make([]float64, cj)
	for a := 0; a < ci; a++ {
		for b := 0; b < cj; b++ {
			rowSums[a] += float64(obs[a*cj+b])
			colSums[b] += float64(obs[a*cj+b])
		}
	}
	expected := make([]float64, ci*cj)
	for a := 0; a < ci; a++ {
		for b := 0; b < cj; b++ {
			expected[a*cj+b] = rowSums[a] * colSums[b] / n
		}
	}
	g2, err := stats.GStat(obs, expected)
	if err != nil {
		return PairStats{}, err
	}
	x2, err := stats.ChiSquareStat(obs, expected)
	if err != nil {
		return PairStats{}, err
	}
	df := (ci - 1) * (cj - 1)
	minDim := ci - 1
	if cj-1 < minDim {
		minDim = cj - 1
	}
	v := 0.0
	if minDim > 0 && x2 > 0 {
		v = sqrtClamp(x2 / (n * float64(minDim)))
	}
	return PairStats{
		I: i, J: j,
		MI:       mi,
		G2:       g2,
		DF:       df,
		PValue:   stats.ChiSquareSF(g2, df),
		CramersV: v,
	}, nil
}

// sortByMI orders pair results by descending mutual information, stably
// over the lexicographic pair enumeration they were scored in. The
// comparator is the strict "a.MI > b.MI" ordering, so ties (NaN included)
// keep their enumeration order.
func sortByMI(out []PairStats) {
	slices.SortStableFunc(out, func(a, b PairStats) int {
		switch {
		case a.MI > b.MI:
			return -1
		case a.MI < b.MI:
			return 1
		}
		return 0
	})
}

// Pairwise computes PairStats for every attribute pair, ordered by
// descending mutual information. It fans the O(R²) pair grid out over
// GOMAXPROCS workers; use PairwiseWorkers to pin the worker count.
func Pairwise(t *contingency.Table) ([]PairStats, error) {
	return PairwiseWorkers(t, 0)
}

// PairwiseWorkers is Pairwise with an explicit worker count: each pair's
// marginalization and statistics are independent read-only work over the
// shared table, so pairs are scored concurrently into indexed slots and
// sorted afterwards — the output (ordering included) is bit-identical to
// the sequential scan for any worker count. workers <= 0 uses GOMAXPROCS,
// 1 forces the sequential loop.
func PairwiseWorkers(t *contingency.Table, workers int) ([]PairStats, error) {
	if t.Total() == 0 {
		return nil, fmt.Errorf("assoc: empty table")
	}
	if t.R() < 2 {
		return nil, fmt.Errorf("assoc: need at least 2 attributes")
	}
	n := float64(t.Total())
	fams := contingency.Combinations(t.R(), 2)
	out := make([]PairStats, len(fams))
	err := par.Do(len(fams), workers, func(k int) error {
		fam := fams[k]
		m := fam.Members()
		pair, err := t.Marginalize(fam)
		if err != nil {
			return err
		}
		ps, err := scorePair(pair, m[0], m[1], n)
		if err != nil {
			return err
		}
		out[k] = ps
		return nil
	})
	if err != nil {
		return nil, err
	}
	sortByMI(out)
	return out, nil
}

// PairwiseSparse is Pairwise over a sparse table: each pair's dense 2-D
// projection is extracted first, so the cost is O(pairs × occupied cells)
// regardless of the joint-space size. This is the screening step of the
// wide-schema workflow: survey all pairs sparsely, then project and run
// discovery on the attribute subsets that light up. Pairs are scored over
// GOMAXPROCS workers; use PairwiseSparseWorkers to pin the count.
func PairwiseSparse(s *contingency.Sparse) ([]PairStats, error) {
	return PairwiseSparseWorkers(s, 0)
}

// PairwiseSparseWorkers is PairwiseSparse with an explicit worker count
// (<= 0 GOMAXPROCS, 1 the sequential loop); results are bit-identical
// across worker counts.
//
// Concurrency: the pair projections come from Sparse.ProjectCached, whose
// projection cache is guarded by the table's internal lock — concurrent
// first-touch from several workers double-checks under the write lock and
// all workers share one cached table per pair, so scoring is safe against
// any number of concurrent readers. (Table mutation must still not
// overlap screening: the sparse table's mutation contract is unchanged.)
func PairwiseSparseWorkers(s *contingency.Sparse, workers int) ([]PairStats, error) {
	if s.Total() == 0 {
		return nil, fmt.Errorf("assoc: empty table")
	}
	if s.R() < 2 {
		return nil, fmt.Errorf("assoc: need at least 2 attributes")
	}
	if s.R() >= bulkPairwiseMinR {
		// Wide schemas flatten the occupied cells once instead of paying a
		// full-width unpack per pair and caching O(R²) projections; the
		// statistics are bit-identical to the projection path.
		return pairwiseSparseBulk(s, workers)
	}
	n := float64(s.Total())
	fams := contingency.Combinations(s.R(), 2)
	out := make([]PairStats, len(fams))
	err := par.Do(len(fams), workers, func(k int) error {
		// Cached projection: on long-lived tables under streaming ingest
		// the 2-D pair tables are maintained in place by every mutation,
		// so re-screening after a delta batch is O(pairs), not
		// O(pairs × occupied).
		fam := fams[k]
		proj, err := s.ProjectCached(fam)
		if err != nil {
			return err
		}
		m := fam.Members()
		ps, err := scorePair(proj, m[0], m[1], n)
		if err != nil {
			return err
		}
		out[k] = ps
		return nil
	})
	if err != nil {
		return nil, err
	}
	sortByMI(out)
	return out, nil
}

func sqrtClamp(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	return math.Sqrt(x)
}

// Render writes the pairwise report with attribute names.
func Render(names []string, pairs []PairStats) string {
	t := report.NewTable("pair", "MI (nats)", "Cramér's V", "G²", "df", "p-value").
		Align(report.Left, report.Right, report.Right, report.Right, report.Right, report.Right)
	for _, p := range pairs {
		ni := fmt.Sprintf("v%d", p.I)
		nj := fmt.Sprintf("v%d", p.J)
		if p.I < len(names) {
			ni = names[p.I]
		}
		if p.J < len(names) {
			nj = names[p.J]
		}
		t.AddRow(
			ni+" × "+nj,
			fmt.Sprintf("%.5f", p.MI),
			fmt.Sprintf("%.4f", p.CramersV),
			fmt.Sprintf("%.1f", p.G2),
			fmt.Sprintf("%d", p.DF),
			formatP(p.PValue),
		)
	}
	var b strings.Builder
	_ = t.Write(&b)
	return b.String()
}

func formatP(p float64) string {
	if p < 1e-12 {
		return "<1e-12"
	}
	return fmt.Sprintf("%.2g", p)
}
