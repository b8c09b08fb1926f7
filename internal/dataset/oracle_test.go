package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"

	"pka/internal/contingency"
)

// This file keeps the two-pass CSV ingest that the one-pass scanner
// replaced — every row read through encoding/csv, labels trimmed and
// looked up one field at a time — as the reference the differential tests
// and FuzzCSVOnePass hold the scanner to. The only change is that a
// leading byte-order mark is stripped first (stripBOM), which the scanner
// does for every entry point.

// stripBOM drops one leading UTF-8 byte-order mark.
func stripBOM(data string) string { return strings.TrimPrefix(data, "\ufeff") }

func twoPassInferSchema(data string, maxCard int) (*Schema, error) {
	cr := csv.NewReader(strings.NewReader(stripBOM(data)))
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	for i, h := range header {
		header[i] = strings.TrimSpace(h)
	}
	sets := make([]map[string]bool, len(header))
	for i := range sets {
		sets[i] = make(map[string]bool)
	}
	row := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV row %d: %w", row+1, err)
		}
		row++
		if len(rec) < len(header) {
			return nil, fmt.Errorf("dataset: CSV row %d has %d columns, header has %d",
				row, len(rec), len(header))
		}
		for i := range header {
			v := strings.TrimSpace(rec[i])
			sets[i][v] = true
			if maxCard > 0 && len(sets[i]) > maxCard {
				return nil, fmt.Errorf("dataset: column %q exceeds %d distinct values; discretize it first",
					header[i], maxCard)
			}
		}
	}
	attrs := make([]Attribute, len(header))
	for i, h := range header {
		vals := make([]string, 0, len(sets[i]))
		for v := range sets[i] {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		attrs[i] = Attribute{Name: h, Values: vals}
	}
	return NewSchema(attrs)
}

// twoPassHeader reads the header and matches its columns to the schema.
func twoPassHeader(cr *csv.Reader, schema *Schema) ([]int, error) {
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	colOf := make([]int, schema.R())
	for i := range colOf {
		colOf[i] = -1
	}
	for col, h := range header {
		if p, err := schema.Position(strings.TrimSpace(h)); err == nil {
			if prev := colOf[p]; prev >= 0 {
				return nil, fmt.Errorf("dataset: CSV header names attribute %q twice (columns %d and %d)",
					schema.Attr(p).Name, prev+1, col+1)
			}
			colOf[p] = col
		}
	}
	for i, c := range colOf {
		if c < 0 {
			return nil, fmt.Errorf("dataset: CSV header missing attribute %q", schema.Attr(i).Name)
		}
	}
	return colOf, nil
}

func twoPassReadCSV(data string, schema *Schema) (*Dataset, error) {
	cr := csv.NewReader(strings.NewReader(stripBOM(data)))
	cr.TrimLeadingSpace = true
	colOf, err := twoPassHeader(cr, schema)
	if err != nil {
		return nil, err
	}
	d := NewDataset(schema)
	row := 1
	labels := make([]string, schema.R())
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV row %d: %w", row+1, err)
		}
		row++
		for i, col := range colOf {
			if col >= len(rec) {
				return nil, fmt.Errorf("dataset: CSV row %d short: no column %d", row, col)
			}
			labels[i] = strings.TrimSpace(rec[col])
		}
		if err := d.AppendLabeled(labels); err != nil {
			return nil, fmt.Errorf("dataset: CSV row %d: %w", row, err)
		}
	}
	return d, nil
}

func twoPassStreamCSV(data string, schema *Schema, fn func(cell []int) error) error {
	cr := csv.NewReader(strings.NewReader(stripBOM(data)))
	cr.TrimLeadingSpace = true
	colOf, err := twoPassHeader(cr, schema)
	if err != nil {
		return err
	}
	cell := make([]int, schema.R())
	row := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("dataset: reading CSV row %d: %w", row+1, err)
		}
		row++
		for i, col := range colOf {
			if col >= len(rec) {
				return fmt.Errorf("dataset: CSV row %d short: no column %d", row, col)
			}
			a := schema.Attr(i)
			label := strings.TrimSpace(rec[col])
			idx := a.ValueIndex(label)
			if idx < 0 {
				idx = a.ValueIndex(OtherValue)
				if idx < 0 {
					return fmt.Errorf("dataset: CSV row %d: attribute %q has no value %q and no %q fallback",
						row, a.Name, label, OtherValue)
				}
			}
			cell[i] = idx
		}
		if err := fn(cell); err != nil {
			return fmt.Errorf("dataset: CSV row %d: %w", row, err)
		}
	}
}

func twoPassTabulateCSV(data string, schema *Schema) (*contingency.Table, error) {
	table, err := contingency.New(schema.Names(), schema.Cards())
	if err != nil {
		return nil, err
	}
	err = twoPassStreamCSV(data, schema, func(cell []int) error {
		return table.Observe(cell...)
	})
	if err != nil {
		return nil, err
	}
	return table, nil
}

func twoPassTabulateCSVSparse(data string, schema *Schema) (*contingency.Sparse, error) {
	table, err := contingency.NewSparse(schema.Names(), schema.Cards())
	if err != nil {
		return nil, err
	}
	var rows [][]int
	err = twoPassStreamCSV(data, schema, func(cell []int) error {
		rows = append(rows, append([]int(nil), cell...))
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := table.ObserveBatch(rows); err != nil {
		return nil, err
	}
	return table, nil
}
