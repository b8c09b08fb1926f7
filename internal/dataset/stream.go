package dataset

import (
	"fmt"
	"io"

	"pka/internal/contingency"
)

// TabulateCSV counts CSV rows directly into a contingency table without
// materializing records — the ingest path for sample counts that dwarf
// memory (the memo's "mammoth NASA reserve data bank"). Header and value
// semantics match ReadCSV.
func TabulateCSV(r io.Reader, schema *Schema) (*contingency.Table, error) {
	table, err := contingency.New(schema.Names(), schema.Cards())
	if err != nil {
		return nil, err
	}
	err = streamCSV(r, schema, "", func(cell []int) error {
		return table.Observe(cell...)
	})
	if err != nil {
		return nil, err
	}
	return table, nil
}

// TabulateCSVSparse is TabulateCSV into a sparse table, for wide schemas
// whose dense joint space does not fit in memory. Rows are ingested through
// the batched mutation API in fixed-size chunks, so any cached marginal
// projections are maintained in place rather than invalidated per row.
func TabulateCSVSparse(r io.Reader, schema *Schema) (*contingency.Sparse, error) {
	table, err := contingency.NewSparse(schema.Names(), schema.Cards())
	if err != nil {
		return nil, err
	}
	ch := newChunk(schema.R())
	err = streamCSV(r, schema, "", func(cell []int) error {
		copy(ch.next(), cell)
		return ch.flushIfFull(table)
	})
	if err != nil {
		return nil, err
	}
	if err := ch.flush(table); err != nil {
		return nil, err
	}
	return table, nil
}

// streamCSV drives fn with the coded cell of each data row. Each column's
// labels are looked up once: a label outside the schema is resolved to the
// attribute's OtherValue (or an error) the first time it appears and
// remembered from then on. labelPrefix leads the text of that error's
// cause — ReadCSV's has always carried AppendLabeled's "dataset: ".
func streamCSV(r io.Reader, schema *Schema, labelPrefix string, fn func(cell []int) error) error {
	s := newCSVScanner(r)
	if err := s.header(); err != nil {
		return fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	colOf := make([]int, schema.R())
	for i := range colOf {
		colOf[i] = -1
	}
	for col, h := range s.fields {
		if p, err := schema.Position(string(h)); err == nil {
			if prev := colOf[p]; prev >= 0 {
				return fmt.Errorf("dataset: CSV header names attribute %q twice (columns %d and %d)",
					schema.Attr(p).Name, prev+1, col+1)
			}
			colOf[p] = col
		}
	}
	cols := make([]labelIndex, schema.R())
	for i, c := range colOf {
		if c < 0 {
			return fmt.Errorf("dataset: CSV header missing attribute %q", schema.Attr(i).Name)
		}
		for v, label := range schema.Attr(i).Values {
			cols[i].add(label, v)
		}
	}
	cell := make([]int, schema.R())
	for row := 2; ; row++ {
		err := s.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("dataset: reading CSV row %d: %w", row, err)
		}
		for i, col := range colOf {
			f := s.fields[col]
			idx, ok := cols[i].find(f)
			if !ok {
				a := schema.Attr(i)
				if idx = a.ValueIndex(OtherValue); idx < 0 {
					return fmt.Errorf("dataset: CSV row %d: %sattribute %q has no value %q and no %q fallback",
						row, labelPrefix, a.Name, f, OtherValue)
				}
				cols[i].add(string(f), idx)
			}
			cell[i] = idx
		}
		if err := fn(cell); err != nil {
			return fmt.Errorf("dataset: CSV row %d: %w", row, err)
		}
	}
}

// TabulateSparse counts the dataset's records into a sparse table.
func (d *Dataset) TabulateSparse() (*contingency.Sparse, error) {
	t, err := contingency.NewSparse(d.schema.Names(), d.schema.Cards())
	if err != nil {
		return nil, err
	}
	for _, r := range d.records {
		if err := t.Observe(r...); err != nil {
			return nil, err
		}
	}
	return t, nil
}
