package core

import (
	"fmt"
	"testing"

	"pka/internal/mml"
	"pka/internal/stats"
	"pka/internal/synth"
)

func BenchmarkDiscoverMemo(b *testing.B) {
	tab := memoTable(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Discover(tab, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiscoverOrder2Only(b *testing.B) {
	tab := memoTable(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Discover(tab, Options{MaxOrder: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiscoverWithScans(b *testing.B) {
	tab := memoTable(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Discover(tab, Options{RecordScans: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiscoverPlantedDensity(b *testing.B) {
	// Vary planted coupling strength: weak structure means fewer accepted
	// constraints and fewer refits.
	for _, s := range []float64{1.2, 2, 4} {
		truth, err := synth.Survey(4, s)
		if err != nil {
			b.Fatal(err)
		}
		tab, err := truth.SampleTable(stats.NewRNG(5), 30000)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("strength=%.1f", s), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Discover(tab, Options{MaxOrder: 2})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(len(res.Findings)), "findings")
				}
			}
		})
	}
}

// BenchmarkDiscoverDenseSurvey is the dense discovery benchmark's shape in
// process: synth.Survey(12, 2.5) (12 binary risk factors and a ternary
// outcome, 12,288 joint cells), 50,000 sampled rows, MaxOrder 3, no
// screen. Every scan pass prices its candidate families with one shared
// elimination walk of the dense engine; IPF refits make the rest.
func BenchmarkDiscoverDenseSurvey(b *testing.B) {
	truth, err := synth.Survey(12, 2.5)
	if err != nil {
		b.Fatal(err)
	}
	data, err := truth.SampleDataset(stats.NewRNG(1*1_000_003+1), 50_000)
	if err != nil {
		b.Fatal(err)
	}
	tab, err := data.Tabulate()
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{MaxOrder: 3, MML: mml.DefaultConfig()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Discover(tab, opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(res.Findings)), "findings")
		}
	}
}
