package contingency

import "pka/internal/wire"

// Counts is the whole contract between tabulated observations and the
// acquisition machinery: shape, sample total, marginal counts and tables
// over attribute subsets, a deterministic cell walk, a self-check, and
// atomic batched mutation. Both the dense *Table and the hash-backed
// *Sparse implement it, so the MML tester, the discovery engine, the
// association screen, streaming updates and the validation measures run
// unchanged over either backend — the memo's procedure is defined entirely
// in terms of the N_ij... marginals, never the storage layout.
type Counts interface {
	// R returns the number of attributes (axes).
	R() int
	// Card returns the number of values of axis i.
	Card(i int) int
	// Names returns a copy of all axis labels.
	Names() []string
	// Total returns N, the sum of all cells (Eq. 6).
	Total() int64
	// MarginalCount returns the marginal count of a partial assignment:
	// the sum of all cells agreeing with values on the axes of vars
	// (ascending axis order).
	MarginalCount(vars VarSet, values []int) (int64, error)
	// Marginalize returns the dense marginal table over the kept axes
	// (ascending position order) — Eqs. 1-5. The result is read-only: a
	// sparse backend may hand out its live cached projection.
	Marginalize(keep VarSet) (*Table, error)
	// EachCell visits cells in a deterministic order, so floating-point
	// accumulations over them reproduce run to run: dense tables walk
	// row-major and visit empty cells too, sparse tables visit their
	// occupied cells in ascending packed-key order. The coordinate slice
	// is reused between calls.
	EachCell(fn func(cell []int, count int64))
	// CheckConsistency verifies the bookkeeping invariants: the cached
	// total equals the cell sum and no cell is negative.
	CheckConsistency() error
	// ApplyBatch applies signed cell deltas as one mutation. The whole
	// batch is validated first — a bad coordinate, or a net delta that
	// would drive a cell negative, rejects it with the table untouched.
	ApplyBatch(deltas []CellDelta) error

	// encode writes the EncodeCounts form; it also seals the interface to
	// this package's two backends.
	encode(w *wire.Writer)
}

// CellDelta is one batched mutation: a full-width cell and a signed count
// delta.
type CellDelta struct {
	Cell  []int
	Delta int64
}

// observations turns rows into +1 deltas — the ObserveBatch batch.
func observations(rows [][]int) []CellDelta {
	deltas := make([]CellDelta, len(rows))
	for i, r := range rows {
		deltas[i] = CellDelta{Cell: r, Delta: 1}
	}
	return deltas
}

// CardsOf collects every axis cardinality of a Counts backend into a slice.
func CardsOf(c Counts) []int {
	out := make([]int, c.R())
	for i := range out {
		out[i] = c.Card(i)
	}
	return out
}

var (
	_ Counts = (*Table)(nil)
	_ Counts = (*Sparse)(nil)
)
