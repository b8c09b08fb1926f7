package dataset_test

import (
	"bytes"
	"testing"

	"pka/internal/dataset"
	"pka/internal/stats"
	"pka/internal/synth"
)

// BenchmarkIngestCSV times the CLI's ingest — one ScanCSV pass, then the
// counts — on CSVs shaped like the benchmark workloads' inputs: the dense
// 13-attribute survey (acquire_dense), the 260-attribute wide bank
// (acquire_wide) and the 80-attribute bank behind the ingest server
// (ingest_wide80). It reports MB/s and allocations.
func BenchmarkIngestCSV(b *testing.B) {
	survey := func() (*dataset.Dataset, error) {
		g, err := synth.Survey(12, 2.5)
		if err != nil {
			return nil, err
		}
		return g.SampleDataset(stats.NewRNG(1), 50_000)
	}
	pairs := func(n, rows int) func() (*dataset.Dataset, error) {
		return func() (*dataset.Dataset, error) {
			g, err := synth.WidePairs(n, 3)
			if err != nil {
				return nil, err
			}
			return g.SampleDataset(stats.NewRNG(1), rows)
		}
	}
	for _, c := range []struct {
		name   string
		sample func() (*dataset.Dataset, error)
		sparse bool
	}{
		{"dense", survey, false},
		{"wide", pairs(130, 1200), true},
		{"bank", pairs(40, 8000), true},
	} {
		b.Run(c.name, func(b *testing.B) {
			d, err := c.sample()
			if err != nil {
				b.Fatal(err)
			}
			var buf bytes.Buffer
			if err := d.WriteCSV(&buf); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(buf.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				codes, err := dataset.ScanCSV(bytes.NewReader(buf.Bytes()), 64)
				if err != nil {
					b.Fatal(err)
				}
				if c.sparse {
					_, err = codes.Sparse()
				} else {
					_, err = codes.Table()
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
