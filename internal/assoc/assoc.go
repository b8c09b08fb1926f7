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

// pairScratch is a screen's reusable float buffer, so scoring allocates
// once per screen, not once per pair.
type pairScratch struct{ buf []float64 }

// floats returns the scratch's first k floats, growing it when needed.
func (sc *pairScratch) floats(k int) []float64 {
	if cap(sc.buf) < k {
		sc.buf = make([]float64, k)
	}
	return sc.buf[:k]
}

// pairG2 returns the G² of one pair's row-major ci × cj count table obs
// against independence of its margins, n the parent table's total. buf
// holds at least ci·cj + ci + cj floats; its first ci·cj receive the
// expected counts, returned as expected. The report (scorePair) and the
// screen (ScreenPairs) both take G² from here, so their bits cannot drift.
func pairG2(obs []int64, ci, cj int, n float64, buf []float64) (g2 float64, expected []float64, err error) {
	cells := ci * cj
	expected = buf[:cells]
	rowSums := buf[cells : cells+ci]
	colSums := buf[cells+ci : cells+ci+cj]
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
	g2, err = stats.GStat(obs, expected)
	return g2, expected, err
}

// scorePair computes the association statistics of one pair from its
// row-major ci × cj count table obs; i and j are the attribute positions
// reported, n the parent table's total.
func scorePair(obs []int64, ci, cj, i, j int, n float64, sc *pairScratch) (PairStats, error) {
	cells := ci * cj
	buf := sc.floats(2*cells + ci + cj)
	joint := buf[cells+ci+cj:]
	for k, v := range obs {
		joint[k] = float64(v) / n
	}
	mi, err := stats.MutualInformation(joint, ci, cj)
	if err != nil {
		return PairStats{}, err
	}
	g2, expected, err := pairG2(obs, ci, cj, n, buf)
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

// scoreRows scores every pair i < j in lexicographic order, reusing one
// scratch buffer across the whole grid. table returns pair (i, j)'s
// row-major count table.
func scoreRows(cards []int, total int64, table func(i, j int) ([]int64, error)) ([]PairStats, error) {
	r := len(cards)
	n := float64(total)
	out := make([]PairStats, 0, r*(r-1)/2)
	var sc pairScratch
	for i := 0; i < r; i++ {
		for j := i + 1; j < r; j++ {
			obs, err := table(i, j)
			if err != nil {
				return nil, err
			}
			ps, err := scorePair(obs, cards[i], cards[j], i, j, n, &sc)
			if err != nil {
				return nil, err
			}
			out = append(out, ps)
		}
	}
	return out, nil
}

// pairTables validates a table for pairwise scoring and returns the
// reader of pair (i, j)'s row-major count table: Counts.Marginalize — a
// fresh marginal on a dense table, the projection cache on a sparse one —
// except on sparse tables of bulkPairwiseMinR or more attributes, which
// read the pair-count ledger (Sparse.PairCounts). Both caches are
// maintained in place by every table mutation, so re-reading the pairs of
// a sparse table under streaming ingest costs O(pairs), not
// O(pairs × occupied).
func pairTables(c contingency.Counts) (func(i, j int) ([]int64, error), error) {
	if c.Total() == 0 {
		return nil, fmt.Errorf("assoc: empty table")
	}
	if c.R() < 2 {
		return nil, fmt.Errorf("assoc: need at least 2 attributes")
	}
	if s, ok := c.(*contingency.Sparse); ok && s.R() >= bulkPairwiseMinR {
		pc, err := s.PairCounts()
		if err != nil {
			return nil, err
		}
		return func(i, j int) ([]int64, error) { return pc.Counts(i, j), nil }, nil
	}
	return func(i, j int) ([]int64, error) {
		pair, err := c.Marginalize(contingency.NewVarSet(i, j))
		if err != nil {
			return nil, err
		}
		return pair.Counts(), nil
	}, nil
}

// ScorePairs computes PairStats for every attribute pair of a dense or
// sparse table, in lexicographic (I, J) order: the unranked form of the
// Pairwise and PairwiseSparse reports. Pairs are read as pairTables
// describes and scored serially. The association screen needs only each
// pair's decision, which ScreenPairs computes without the rest of the
// statistics.
//
// Concurrency: the projection cache and the ledger publish under the
// table's internal lock, so any number of concurrent screens of one table
// is safe; table mutation must still not overlap screening (the sparse
// mutation contract).
func ScorePairs(c contingency.Counts) ([]PairStats, error) {
	table, err := pairTables(c)
	if err != nil {
		return nil, err
	}
	return scoreRows(contingency.CardsOf(c), c.Total(), table)
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
// descending mutual information: ScorePairs, then a stable sort, so ties
// keep their lexicographic pair order.
func Pairwise(t *contingency.Table) ([]PairStats, error) {
	return sortedPairs(ScorePairs(t))
}

// PairwiseSparse is Pairwise over a sparse table: pairs come from the
// table's projection cache or, on wide schemas, its pair-count ledger, so
// the cells are counted once (PairCounts prices the ledger build) and a
// later screen costs O(pairs), regardless of the joint-space size. This
// is the screening step of the wide-schema workflow: survey all pairs
// sparsely, then project and run discovery on the attribute subsets that
// light up. See ScorePairs for the concurrency contract.
func PairwiseSparse(s *contingency.Sparse) ([]PairStats, error) {
	return sortedPairs(ScorePairs(s))
}

// PairwiseSparseWorkers is PairwiseSparse. The worker count changes
// nothing: the ledger is counted serially. It is kept for existing
// callers; new code calls PairwiseSparse.
func PairwiseSparseWorkers(s *contingency.Sparse, _ int) ([]PairStats, error) {
	return PairwiseSparse(s)
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
