package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
)

// ReadCSV ingests a CSV stream whose first row is a header of attribute
// names into a Dataset over the given schema. Columns are matched to schema
// attributes by header name (order in the file is free); extra columns are
// ignored; a missing schema attribute is an error, as is a header that
// names the same attribute twice (the ambiguity would silently drop all
// but one of the columns).
//
// Cell values are matched against value labels; unknown labels fall back to
// the attribute's "other" value when the schema has one.
func ReadCSV(r io.Reader, schema *Schema) (*Dataset, error) {
	d := NewDataset(schema)
	var slab []int
	err := streamCSV(r, schema, "dataset: ", func(cell []int) error {
		if len(slab) < len(cell) {
			slab = make([]int, max(len(d.records), 64)*len(cell))
		}
		rec := Record(slab[:len(cell):len(cell)])
		slab = slab[len(cell):]
		copy(rec, cell)
		d.records = append(d.records, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// WriteCSV emits the dataset with a header row, decoding records to labels.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(d.schema.Names()); err != nil {
		return fmt.Errorf("dataset: writing CSV header: %w", err)
	}
	for i := 0; i < d.Len(); i++ {
		if err := cw.Write(d.Labels(i)); err != nil {
			return fmt.Errorf("dataset: writing CSV row %d: %w", i+1, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
