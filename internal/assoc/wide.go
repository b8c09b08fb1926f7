package assoc

import (
	"math"

	"pka/internal/contingency"
	"pka/internal/stats"
)

// bulkPairwiseMinR is the attribute count at which ScorePairs switches a
// sparse table from per-pair cached projections to the pair-count ledger
// (Sparse.PairCounts). Below it (every schema the old single-word
// representation could hold) the projection cache stays warm across
// streaming re-screens; above it, O(R²) separate cache entries each
// projected by an O(occupied) scan would dominate, so one slab holds every
// pair, counted from a single decode of the occupied cells and maintained
// in place by every mutation.
const bulkPairwiseMinR = 65

// FlatCells is a contingency backend's occupied cells materialized once,
// in deterministic (sorted for sparse, row-major for dense) order: row i
// of the matrix is the full-width coordinate tuple of one occupied cell,
// Counts[i] its count. Wide-schema screening builds this view once and
// reads two or three columns per test, instead of unpacking all R
// coordinates of every cell once per pair.
type FlatCells struct {
	Cards  []int
	Counts []int64
	Total  int64
	r      int
	data   []int
}

// Flatten materializes the cells Counts.EachCell visits. Memory is
// O(cells × R).
func Flatten(c contingency.Counts) (*FlatCells, error) {
	r := c.R()
	f := &FlatCells{Cards: contingency.CardsOf(c), Total: c.Total(), r: r}
	c.EachCell(func(cell []int, n int64) {
		f.data = append(f.data, cell...)
		f.Counts = append(f.Counts, n)
	})
	return f, nil
}

// Len returns the number of occupied cells.
func (f *FlatCells) Len() int { return len(f.Counts) }

// Row returns the coordinates of occupied cell i (read-only view).
func (f *FlatCells) Row(i int) []int { return f.data[i*f.r : (i+1)*f.r] }

// CondG2 runs the conditional-independence G² test of attributes i and j
// given k: the likelihood-ratio statistic of i ⊥ j within each slice of
// k, summed over slices, with df = (card_i-1)(card_j-1)·card_k. A high
// p-value means the data cannot distinguish the pair's association from
// one mediated entirely by k. Iteration over the dense triple array keeps
// the floating-point accumulation order deterministic.
func (f *FlatCells) CondG2(i, j, k int) (g2 float64, df int, pvalue float64) {
	ci, cj, ck := f.Cards[i], f.Cards[j], f.Cards[k]
	triple := make([]int64, ci*cj*ck)
	for ridx, n := range f.Counts {
		row := f.Row(ridx)
		triple[(row[i]*cj+row[j])*ck+row[k]] += n
	}
	nAC := make([]int64, ci*ck) // Σ_b n_abc
	nBC := make([]int64, cj*ck) // Σ_a n_abc
	nC := make([]int64, ck)     // Σ_ab n_abc
	for a := 0; a < ci; a++ {
		for b := 0; b < cj; b++ {
			for c := 0; c < ck; c++ {
				n := triple[(a*cj+b)*ck+c]
				nAC[a*ck+c] += n
				nBC[b*ck+c] += n
				nC[c] += n
			}
		}
	}
	for a := 0; a < ci; a++ {
		for b := 0; b < cj; b++ {
			for c := 0; c < ck; c++ {
				n := triple[(a*cj+b)*ck+c]
				if n == 0 {
					continue
				}
				// Products in float64: the int64 forms overflow once the
				// total passes ~3e9, and below that both round the same
				// exact product once.
				num := float64(n) * float64(nC[c])
				den := float64(nAC[a*ck+c]) * float64(nBC[b*ck+c])
				g2 += 2 * float64(n) * math.Log(num/den)
			}
		}
	}
	df = (ci - 1) * (cj - 1) * ck
	return g2, df, stats.ChiSquareSF(g2, df)
}
