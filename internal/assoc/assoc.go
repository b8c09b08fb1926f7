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

// pairScratch is one scoring task's reusable float buffers, so a screen
// allocates per row of pairs, not per pair.
type pairScratch struct{ buf []float64 }

// scorePair computes the association statistics of one pair from its
// row-major ci × cj count table obs; i and j are the attribute positions
// reported, n the parent table's total.
func scorePair(obs []int64, ci, cj, i, j int, n float64, sc *pairScratch) (PairStats, error) {
	cells := ci * cj
	if need := 2*cells + ci + cj; cap(sc.buf) < need {
		sc.buf = make([]float64, need)
	}
	joint := sc.buf[:cells]
	expected := sc.buf[cells : 2*cells]
	rowSums := sc.buf[2*cells : 2*cells+ci]
	colSums := sc.buf[2*cells+ci : 2*cells+ci+cj]
	for k, v := range obs {
		joint[k] = float64(v) / n
	}
	mi, err := stats.MutualInformation(joint, ci, cj)
	if err != nil {
		return PairStats{}, err
	}
	// Expected counts under independence of the pair marginal.
	clear(rowSums)
	clear(colSums)
	for a := 0; a < ci; a++ {
		for b := 0; b < cj; b++ {
			rowSums[a] += float64(obs[a*cj+b])
			colSums[b] += float64(obs[a*cj+b])
		}
	}
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

// scoreRows scores every pair i < j in lexicographic order. Each task owns
// one row of pairs (all j for one i) and writes its own output slots, so
// the result is bit-identical for any worker count. table returns pair
// (i, j)'s row-major count table.
func scoreRows(cards []int, total int64, workers int, table func(i, j int) ([]int64, error)) ([]PairStats, error) {
	r := len(cards)
	n := float64(total)
	out := make([]PairStats, r*(r-1)/2)
	err := par.Do(r-1, workers, func(i int) error {
		var sc pairScratch
		k := i * (2*r - i - 1) / 2 // pairs in the rows before i
		for j := i + 1; j < r; j++ {
			obs, err := table(i, j)
			if err != nil {
				return err
			}
			if out[k], err = scorePair(obs, cards[i], cards[j], i, j, n, &sc); err != nil {
				return err
			}
			k++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ScorePairs computes PairStats for every attribute pair of a dense or
// sparse table, in lexicographic (I, J) order — the association screen's
// view, which needs no ranking. Pairs are scored over the shared pool
// (workers <= 0 GOMAXPROCS, 1 the sequential loop); results are
// bit-identical across worker counts.
//
// Each pair is read with Counts.Marginalize — a fresh marginal on a dense
// table, the projection cache on a sparse one — except on sparse tables of
// bulkPairwiseMinR or more attributes, which read the pair-count ledger
// (Sparse.PairCounts). Both caches are maintained in place by every table
// mutation, so re-screening a sparse table under streaming ingest costs
// O(pairs), not O(pairs × occupied).
//
// Concurrency: both caches publish under the table's internal lock, so
// any number of concurrent screens of one table is safe; table mutation
// must still not overlap screening (the sparse mutation contract).
func ScorePairs(c contingency.Counts, workers int) ([]PairStats, error) {
	if c.Total() == 0 {
		return nil, fmt.Errorf("assoc: empty table")
	}
	if c.R() < 2 {
		return nil, fmt.Errorf("assoc: need at least 2 attributes")
	}
	table := func(i, j int) ([]int64, error) {
		pair, err := c.Marginalize(contingency.NewVarSet(i, j))
		if err != nil {
			return nil, err
		}
		return pair.Counts(), nil
	}
	if s, ok := c.(*contingency.Sparse); ok && s.R() >= bulkPairwiseMinR {
		pc, err := s.PairCounts(workers)
		if err != nil {
			return nil, err
		}
		table = func(i, j int) ([]int64, error) { return pc.Counts(i, j), nil }
	}
	return scoreRows(contingency.CardsOf(c), c.Total(), workers, table)
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

// PairwiseWorkers is Pairwise with an explicit worker count: ScorePairs,
// then a stable sort by descending mutual information — the output
// (ordering included) is bit-identical to the sequential scan for any
// worker count. workers <= 0 uses GOMAXPROCS, 1 forces the sequential
// loop.
func PairwiseWorkers(t *contingency.Table, workers int) ([]PairStats, error) {
	return sortedPairs(ScorePairs(t, workers))
}

// PairwiseSparse is Pairwise over a sparse table: pairs come from the
// table's projection cache or, on wide schemas, its pair-count ledger, so
// the cost is O(pairs × occupied cells) once and O(pairs) on later
// screens, regardless of the joint-space size. This is the screening step
// of the wide-schema workflow: survey all pairs sparsely, then project and
// run discovery on the attribute subsets that light up. Pairs are scored
// over GOMAXPROCS workers; use PairwiseSparseWorkers to pin the count.
func PairwiseSparse(s *contingency.Sparse) ([]PairStats, error) {
	return PairwiseSparseWorkers(s, 0)
}

// PairwiseSparseWorkers is PairwiseSparse with an explicit worker count
// (<= 0 GOMAXPROCS, 1 the sequential loop); results are bit-identical
// across worker counts. See ScorePairs for the concurrency contract.
func PairwiseSparseWorkers(s *contingency.Sparse, workers int) ([]PairStats, error) {
	return sortedPairs(ScorePairs(s, workers))
}

// sortedPairs ranks a ScorePairs result for the report API.
func sortedPairs(out []PairStats, err error) ([]PairStats, error) {
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
