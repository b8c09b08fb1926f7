package dataset

import (
	"fmt"

	"pka/internal/contingency"
)

// Record is one observation: value indices in schema attribute order —
// one row of the memo's Figure 6 triples form.
type Record []int

// Dataset is a schema plus its observed records ("original data form",
// Figure 5, already coded to indices).
type Dataset struct {
	schema  *Schema
	records []Record
}

// NewDataset creates an empty dataset over the schema.
func NewDataset(schema *Schema) *Dataset {
	return &Dataset{schema: schema}
}

// Schema returns the dataset's schema.
func (d *Dataset) Schema() *Schema { return d.schema }

// Len returns the number of records (N).
func (d *Dataset) Len() int { return len(d.records) }

// Record returns record i. The returned slice is live; do not modify.
func (d *Dataset) Record(i int) Record { return d.records[i] }

// Append validates and adds a record. The record is copied.
func (d *Dataset) Append(r Record) error {
	if len(r) != d.schema.R() {
		return fmt.Errorf("dataset: record has %d values, schema has %d attributes",
			len(r), d.schema.R())
	}
	for i, v := range r {
		if v < 0 || v >= d.schema.Attr(i).Card() {
			return fmt.Errorf("dataset: record value %d for attribute %q out of range [0,%d)",
				v, d.schema.Attr(i).Name, d.schema.Attr(i).Card())
		}
	}
	d.records = append(d.records, append(Record(nil), r...))
	return nil
}

// AppendLabeled adds a record given as value labels in attribute order,
// e.g. ["Smoker", "No", "Yes"]. Unknown labels map to the attribute's
// OtherValue if present, else produce an error — implementing the memo's
// range-completion convention.
func (d *Dataset) AppendLabeled(labels []string) error {
	if len(labels) != d.schema.R() {
		return fmt.Errorf("dataset: row has %d values, schema has %d attributes",
			len(labels), d.schema.R())
	}
	r := make(Record, len(labels))
	for i, lab := range labels {
		a := d.schema.Attr(i)
		idx := a.ValueIndex(lab)
		if idx < 0 {
			idx = a.ValueIndex(OtherValue)
			if idx < 0 {
				return fmt.Errorf("dataset: attribute %q has no value %q and no %q fallback",
					a.Name, lab, OtherValue)
			}
		}
		r[i] = idx
	}
	d.records = append(d.records, r)
	return nil
}

// Labels returns record i decoded back to value labels.
func (d *Dataset) Labels(i int) []string {
	r := d.records[i]
	out := make([]string, len(r))
	for j, v := range r {
		out[j] = d.schema.Attr(j).Values[v]
	}
	return out
}

// Tabulate counts the records into a contingency table over all attributes —
// the Appendix A pipeline: samples -> R-tuples -> N_ijk sums (Figure 6's
// bottom row equals Figure 1's cells).
func (d *Dataset) Tabulate() (*contingency.Table, error) {
	t, err := contingency.New(d.schema.Names(), d.schema.Cards())
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

// Counts returns, per attribute, the value frequency vector — a quick
// integrity view used by ingest diagnostics.
func (d *Dataset) Counts() [][]int64 {
	out := make([][]int64, d.schema.R())
	for i := 0; i < d.schema.R(); i++ {
		out[i] = make([]int64, d.schema.Attr(i).Card())
	}
	for _, r := range d.records {
		for i, v := range r {
			out[i][v]++
		}
	}
	return out
}
