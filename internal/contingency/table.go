package contingency

import (
	"fmt"
	"strings"
)

// Table is a dense R-dimensional contingency table: one int64 count per
// combination of attribute values (the memo's N_ijk...). Axis i has
// Card(i) values; cells are laid out row-major with axis 0 slowest.
//
// A Table is mutable until handed to the discovery engine; the engine
// treats it as read-only.
type Table struct {
	names   []string
	cards   []int
	strides []int
	counts  []int64
	total   int64
}

// maxDenseCells bounds the dense allocation so a mistyped cardinality fails
// fast instead of exhausting memory.
const maxDenseCells = 1 << 28

// DenseFits reports whether New accepts a table of these cardinalities:
// at least one and at most MaxVars attributes, each of cardinality 1 or
// more, and at most maxDenseCells cells. A caller that can count either
// way tabulates sparse when it reports false.
func DenseFits(cards []int) bool {
	_, err := denseSize(cards)
	return err == nil
}

// denseSize returns the cell count of a dense table over cards, or why
// New refuses that shape.
func denseSize(cards []int) (int, error) {
	if len(cards) == 0 {
		return 0, fmt.Errorf("contingency: table needs at least one attribute")
	}
	if len(cards) > MaxVars {
		return 0, fmt.Errorf("contingency: %d attributes exceeds limit %d", len(cards), MaxVars)
	}
	size := 1
	for i, c := range cards {
		if c < 1 {
			return 0, fmt.Errorf("contingency: attribute %d has cardinality %d (must be >= 1)", i, c)
		}
		if size > maxDenseCells/c {
			return 0, fmt.Errorf("contingency: table would exceed %d cells", maxDenseCells)
		}
		size *= c
	}
	return size, nil
}

// New creates an all-zero table. names supplies one label per axis (it may
// be nil, in which case axes are named v0, v1, ...); cards supplies the
// number of values per axis, each at least 1.
func New(names []string, cards []int) (*Table, error) {
	size, err := denseSize(cards)
	if err != nil {
		return nil, err
	}
	if names != nil && len(names) != len(cards) {
		return nil, fmt.Errorf("contingency: %d names for %d attributes", len(names), len(cards))
	}
	t := &Table{
		cards:   append([]int(nil), cards...),
		strides: make([]int, len(cards)),
		counts:  make([]int64, size),
	}
	if names == nil {
		t.names = make([]string, len(cards))
		for i := range t.names {
			t.names[i] = fmt.Sprintf("v%d", i)
		}
	} else {
		t.names = append([]string(nil), names...)
	}
	stride := 1
	for i := len(cards) - 1; i >= 0; i-- {
		t.strides[i] = stride
		stride *= cards[i]
	}
	return t, nil
}

// MustNew is New for statically-known-valid shapes (fixtures, tests).
func MustNew(names []string, cards []int) *Table {
	t, err := New(names, cards)
	if err != nil {
		panic(err)
	}
	return t
}

// R returns the number of attributes (axes).
func (t *Table) R() int { return len(t.cards) }

// Card returns the number of values of axis i.
func (t *Table) Card(i int) int { return t.cards[i] }

// Cards returns a copy of all axis cardinalities.
func (t *Table) Cards() []int { return append([]int(nil), t.cards...) }

// Name returns the label of axis i.
func (t *Table) Name(i int) string { return t.names[i] }

// Names returns a copy of all axis labels.
func (t *Table) Names() []string { return append([]string(nil), t.names...) }

// NumCells returns the total number of cells.
func (t *Table) NumCells() int { return len(t.counts) }

// Total returns N, the sum of all cells (Eq. 6).
func (t *Table) Total() int64 { return t.total }

// offset converts a full index tuple to the flat position.
func (t *Table) offset(cell []int) (int, error) {
	if len(cell) != len(t.cards) {
		return 0, fmt.Errorf("contingency: cell has %d coordinates, table has %d axes",
			len(cell), len(t.cards))
	}
	off := 0
	for i, v := range cell {
		if v < 0 || v >= t.cards[i] {
			return 0, fmt.Errorf("contingency: coordinate %d = %d out of range [0,%d)",
				i, v, t.cards[i])
		}
		off += v * t.strides[i]
	}
	return off, nil
}

// At returns the count of the cell.
func (t *Table) At(cell ...int) (int64, error) {
	off, err := t.offset(cell)
	if err != nil {
		return 0, err
	}
	return t.counts[off], nil
}

// MustAt is At for known-valid coordinates.
func (t *Table) MustAt(cell ...int) int64 {
	v, err := t.At(cell...)
	if err != nil {
		panic(err)
	}
	return v
}

// Set replaces the cell's count. Negative counts are rejected: a contingency
// table records occurrences.
func (t *Table) Set(count int64, cell ...int) error {
	if count < 0 {
		return fmt.Errorf("contingency: negative count %d", count)
	}
	off, err := t.offset(cell)
	if err != nil {
		return err
	}
	t.total += count - t.counts[off]
	t.counts[off] = count
	return nil
}

// Add increments the cell by delta (delta may be negative as long as the
// cell stays non-negative); Observe(cell) is Add(1, cell).
func (t *Table) Add(delta int64, cell ...int) error {
	off, err := t.offset(cell)
	if err != nil {
		return err
	}
	if t.counts[off]+delta < 0 {
		return fmt.Errorf("contingency: cell %v would go negative", cell)
	}
	t.counts[off] += delta
	t.total += delta
	return nil
}

// Observe records one sample with the given attribute values — the
// tabulation step of the memo's Appendix A.
func (t *Table) Observe(cell ...int) error { return t.Add(1, cell...) }

// ObserveBatch records one sample per row, atomically: the whole batch is
// validated before anything is written, so a bad coordinate rejects it
// with the table untouched.
func (t *Table) ObserveBatch(rows [][]int) error { return t.ApplyBatch(observations(rows)) }

// ApplyBatch applies signed cell deltas as one all-or-nothing mutation:
// every coordinate is checked, and every cell's net delta must leave it
// non-negative, before any count is written.
func (t *Table) ApplyBatch(deltas []CellDelta) error {
	offs := make([]int, len(deltas))
	net := make(map[int]int64, len(deltas))
	for i, d := range deltas {
		off, err := t.offset(d.Cell)
		if err != nil {
			return fmt.Errorf("contingency: batch delta %d: %w", i, err)
		}
		offs[i] = off
		net[off] += d.Delta
	}
	for i, off := range offs {
		if t.counts[off]+net[off] < 0 {
			return fmt.Errorf("contingency: batch would drive cell %v negative (%d%+d)",
				deltas[i].Cell, t.counts[off], net[off])
		}
	}
	for i, off := range offs {
		t.counts[off] += deltas[i].Delta
		t.total += deltas[i].Delta
	}
	return nil
}

// Counts exposes the flat row-major count slice (axis 0 slowest). The slice
// is live; callers must not modify it. It exists for the solvers, which
// iterate every cell in tight loops.
func (t *Table) Counts() []int64 { return t.counts }

// Unflatten fills cell with the coordinates of flat position off.
func (t *Table) Unflatten(off int, cell []int) error {
	if off < 0 || off >= len(t.counts) {
		return fmt.Errorf("contingency: flat index %d out of range [0,%d)", off, len(t.counts))
	}
	if len(cell) != len(t.cards) {
		return fmt.Errorf("contingency: destination has %d coordinates, table has %d axes",
			len(cell), len(t.cards))
	}
	for i := range t.cards {
		cell[i] = off / t.strides[i]
		off %= t.strides[i]
	}
	return nil
}

// EachCell invokes fn for every cell in row-major order with the cell's
// coordinates and count. The coordinate slice is reused between calls;
// copy it if retaining.
func (t *Table) EachCell(fn func(cell []int, count int64)) {
	cell := make([]int, len(t.cards))
	for off, c := range t.counts {
		rem := off
		for i := range t.cards {
			cell[i] = rem / t.strides[i]
			rem %= t.strides[i]
		}
		fn(cell, c)
	}
}

// Clone returns a deep copy.
func (t *Table) Clone() *Table {
	return &Table{
		names:   append([]string(nil), t.names...),
		cards:   append([]int(nil), t.cards...),
		strides: append([]int(nil), t.strides...),
		counts:  append([]int64(nil), t.counts...),
		total:   t.total,
	}
}

// Probabilities returns the relative-frequency estimate of the joint
// distribution: counts / N, in the table's row-major cell order.
// It returns an error when the table is empty (N == 0).
func (t *Table) Probabilities() ([]float64, error) {
	if t.total == 0 {
		return nil, fmt.Errorf("contingency: empty table has no probability estimate")
	}
	p := make([]float64, len(t.counts))
	n := float64(t.total)
	for i, c := range t.counts {
		p[i] = float64(c) / n
	}
	return p, nil
}

// Equal reports whether two tables have identical shape, names, and counts.
func (t *Table) Equal(u *Table) bool {
	if t.R() != u.R() || t.total != u.total {
		return false
	}
	for i := range t.cards {
		if t.cards[i] != u.cards[i] || t.names[i] != u.names[i] {
			return false
		}
	}
	for i := range t.counts {
		if t.counts[i] != u.counts[i] {
			return false
		}
	}
	return true
}

// String gives a compact debug form: shape plus total.
func (t *Table) String() string {
	dims := make([]string, len(t.cards))
	for i, c := range t.cards {
		dims[i] = fmt.Sprintf("%s:%d", t.names[i], c)
	}
	return fmt.Sprintf("Table[%s] N=%d", strings.Join(dims, " × "), t.total)
}
