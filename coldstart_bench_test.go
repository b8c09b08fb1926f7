package pka_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"pka"
)

// wideColdStartModel builds the 24-attribute sparse model (two planted
// couplings, fixed seed) that the cold-start benchmarks save and reload.
func wideColdStartModel(tb testing.TB) *pka.Model {
	attrs := make([]pka.Attribute, 24)
	for i := range attrs {
		attrs[i] = pka.Attribute{Name: fmt.Sprintf("W%d", i), Values: []string{"0", "1"}}
	}
	schema, err := pka.NewSchema(attrs)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := pka.NewSparseTable(schema)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(202))
	cell := make([]int, 24)
	for n := 0; n < 8000; n++ {
		for i := range cell {
			cell[i] = rng.Intn(2)
		}
		if rng.Float64() < 0.8 {
			cell[23] = cell[0]
		}
		if rng.Float64() < 0.6 {
			cell[12] = cell[1]
		}
		if err := s.Observe(cell...); err != nil {
			tb.Fatal(err)
		}
	}
	m, err := pka.DiscoverSparse(s, schema, pka.Options{MaxOrder: 2, ScreenPairs: true})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// coldStartPayloads persists the wide model once in each format, through
// the same QueryModel so the payloads carry the identical schema+model.
func coldStartPayloads(tb testing.TB) (jsonBytes, snapBytes []byte) {
	m := wideColdStartModel(tb)
	var jsonBuf bytes.Buffer
	if err := m.Save(&jsonBuf); err != nil {
		tb.Fatal(err)
	}
	qm, err := pka.Load(bytes.NewReader(jsonBuf.Bytes()))
	if err != nil {
		tb.Fatal(err)
	}
	var snapBuf bytes.Buffer
	if err := qm.SaveSnapshot(&snapBuf); err != nil {
		tb.Fatal(err)
	}
	return jsonBuf.Bytes(), snapBuf.Bytes()
}

func coldStartQuery(tb testing.TB, m *pka.QueryModel) {
	p, err := m.Conditional(
		[]pka.Assignment{{Attr: "W1", Value: "1"}},
		[]pka.Assignment{{Attr: "W0", Value: "1"}},
	)
	if err != nil {
		tb.Fatal(err)
	}
	if p <= 0 || p >= 1 {
		tb.Fatalf("cold-start query answered %g", p)
	}
}

// BenchmarkColdStartJSON measures load-to-first-query from the JSON
// interchange format: reflection decode plus full engine compilation.
func BenchmarkColdStartJSON(b *testing.B) {
	jsonBytes, _ := coldStartPayloads(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := pka.Load(bytes.NewReader(jsonBytes))
		if err != nil {
			b.Fatal(err)
		}
		coldStartQuery(b, m)
	}
}

// BenchmarkColdStartSnapshot measures load-to-first-query from the PKAS
// binary snapshot: pure deserialization, the solve and per-block sums
// restored rather than recomputed.
func BenchmarkColdStartSnapshot(b *testing.B) {
	_, snapBytes := coldStartPayloads(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := pka.LoadSnapshot(bytes.NewReader(snapBytes))
		if err != nil {
			b.Fatal(err)
		}
		coldStartQuery(b, m)
	}
}
