// Package report renders aligned text tables for the reproduction binary
// and bench harness output — the presentation layer for Figures 1-2 and
// Tables 1-2.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table accumulates rows and writes them with column alignment.
type Table struct {
	headers []string
	rows    [][]string
	align   []Alignment
}

// Alignment controls per-column text alignment.
type Alignment int

// Column alignments.
const (
	Left Alignment = iota
	Right
)

// NewTable starts a table with the given column headers.
func NewTable(headers ...string) *Table {
	align := make([]Alignment, len(headers))
	return &Table{headers: headers, align: align}
}

// Align sets column alignments (variadic, one per column; missing columns
// keep Left).
func (t *Table) Align(a ...Alignment) *Table {
	copy(t.align, a)
	return t
}

// Row appends a row; cells beyond the header count are dropped, missing
// cells render empty. Values are formatted with %v; use AddRow for
// preformatted strings.
func (t *Table) Row(cells ...interface{}) *Table {
	row := make([]string, len(t.headers))
	for i := range row {
		if i < len(cells) {
			row[i] = fmt.Sprintf("%v", cells[i])
		}
	}
	t.rows = append(t.rows, row)
	return t
}

// AddRow appends a preformatted row.
func (t *Table) AddRow(cells ...string) *Table {
	row := make([]string, len(t.headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
	return t
}

// Write renders the table with a separator under the header.
func (t *Table) Write(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len([]rune(h))
	}
	for _, row := range t.rows {
		for i, c := range row {
			if n := len([]rune(c)); n > widths[i] {
				widths[i] = n
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			pad := widths[i] - len([]rune(c))
			if t.align[i] == Right {
				parts[i] = strings.Repeat(" ", pad) + c
			} else {
				parts[i] = c + strings.Repeat(" ", pad)
			}
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.headers)); err != nil {
		return err
	}
	seps := make([]string, len(t.headers))
	for i, wd := range widths {
		seps[i] = strings.Repeat("-", wd)
	}
	if _, err := fmt.Fprintln(w, line(seps)); err != nil {
		return err
	}
	for _, row := range t.rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

// String renders to a string.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Write(&b)
	return b.String()
}

// Float formats a float at the given precision, rendering the memo's "<.1"
// style for tiny likelihood ratios when clamp is positive and the value is
// below it.
func Float(v float64, prec int, clamp float64) string {
	if clamp > 0 && v < clamp {
		return fmt.Sprintf("<%.*f", prec, clamp)
	}
	return fmt.Sprintf("%.*f", prec, v)
}
