package pka_test

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"pka"
)

// The golden_wide fixtures pin the factored engine on a multi-word schema:
// 96 attributes (two 64-bit key words), discovered through the screened
// sparse path, so the model is a product over constraint blocks — chains
// of three attributes, pairs that straddle the key-word boundary, ternary
// pairs and singletons. golden7 pins only schemas of 64 attributes or
// fewer. The files hold the saved KB JSON, the full and the lean PKAS
// snapshots, the wire bytes of every query kind (families spanning one to
// three blocks, evidence inside and outside the queried blocks), and the
// same after one streaming update. Regenerate (only when an intentional
// output change is being made) with:
//
//	go test -run TestGoldenWide -update-golden-wide
var updateGoldenWide = flag.Bool("update-golden-wide", false, "rewrite the golden_wide fixtures from the current implementation")

const goldenWideDir = "testdata/golden_wide"

const goldenWideAttrs = 96

// goldenWideRow draws one seeded row: attributes 0-89 binary, 90-95
// ternary, with planted couplings that form multi-attribute blocks.
func goldenWideRow(rng *rand.Rand, cell []int) {
	for i := range cell {
		if i >= 90 {
			cell[i] = rng.Intn(3)
		} else {
			cell[i] = rng.Intn(2)
		}
	}
	copyP := func(dst, src int, p float64) {
		if rng.Float64() < p {
			cell[dst] = cell[src]
		}
	}
	copyP(1, 0, 0.75)  // chain 0-1-2
	copyP(2, 1, 0.75)  //
	copyP(70, 3, 0.8)  // straddles the key words
	copyP(41, 40, 0.7) //
	copyP(65, 64, 0.8) // second word only
	copyP(20, 10, 0.7) // chain 10-20-30
	copyP(30, 20, 0.7) //
	copyP(92, 91, 0.7) // ternary pair
}

// goldenWideModel discovers the deterministic 96-attribute workload with
// the pair and conditional-independence screens.
func goldenWideModel(t *testing.T) *pka.Model {
	t.Helper()
	attrs := make([]pka.Attribute, goldenWideAttrs)
	for i := range attrs {
		vals := []string{"0", "1"}
		if i >= 90 {
			vals = []string{"a", "b", "c"}
		}
		attrs[i] = pka.Attribute{Name: fmt.Sprintf("X%02d", i), Values: vals}
	}
	schema, err := pka.NewSchema(attrs)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := pka.NewSparseTable(schema)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1096))
	cell := make([]int, goldenWideAttrs)
	for n := 0; n < 4000; n++ {
		goldenWideRow(rng, cell)
		if err := tab.Observe(cell...); err != nil {
			t.Fatal(err)
		}
	}
	m, err := pka.DiscoverSparse(tab, schema, pka.Options{MaxOrder: 2, ScreenPairs: true, ScreenCI: true})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func goldenWideQueries() []pka.Query {
	a := func(attr, v string) pka.Assignment { return pka.Assignment{Attr: attr, Value: v} }
	return []pka.Query{
		// One block, two blocks, three blocks.
		{Kind: pka.QueryProbability, Target: []pka.Assignment{a("X00", "1"), a("X02", "1")}},
		{Kind: pka.QueryProbability, Target: []pka.Assignment{a("X03", "1"), a("X40", "0"), a("X70", "1")}},
		{Kind: pka.QueryProbability, Target: []pka.Assignment{a("X01", "0"), a("X65", "1"), a("X92", "c")}},
		// Evidence inside the queried block.
		{Kind: pka.QueryConditional, Target: []pka.Assignment{a("X02", "1")}, Given: []pka.Assignment{a("X00", "1")}},
		{Kind: pka.QueryConditional, Target: []pka.Assignment{a("X30", "0")}, Given: []pka.Assignment{a("X10", "0"), a("X20", "1")}},
		// Evidence only in blocks the target does not touch.
		{Kind: pka.QueryConditional, Target: []pka.Assignment{a("X41", "1")}, Given: []pka.Assignment{a("X03", "1"), a("X95", "b")}},
		{Kind: pka.QueryDistribution, Attr: "X70", Given: []pka.Assignment{a("X03", "0"), a("X64", "1")}},
		{Kind: pka.QueryDistribution, Attr: "X92", Given: []pka.Assignment{a("X91", "c")}},
		{Kind: pka.QueryDistribution, Attr: "X50"},
		{Kind: pka.QueryMostLikely, Attr: "X01", Given: []pka.Assignment{a("X00", "0"), a("X02", "1")}},
		{Kind: pka.QueryLift, Target: []pka.Assignment{a("X65", "1")}, Given: []pka.Assignment{a("X64", "1")}},
		{Kind: pka.QueryMPE, Given: []pka.Assignment{a("X00", "1"), a("X70", "0"), a("X91", "a")}},
	}
}

// checkGoldenWide compares got against the committed fixture (or rewrites
// it under -update-golden-wide).
func checkGoldenWide(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join(goldenWideDir, name)
	if *updateGoldenWide {
		if err := os.MkdirAll(goldenWideDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture %s (run with -update-golden-wide): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output diverged from the fixture (%d bytes vs %d)", name, len(got), len(want))
	}
}

// TestGoldenWideDiscover pins the factored discovery output: KB JSON, both
// PKAS snapshots, and the wire bytes answered by the discovered model and
// by the models each snapshot restores.
func TestGoldenWideDiscover(t *testing.T) {
	m := goldenWideModel(t)
	if info := m.Info(); info.Cells != 0 || info.MaxOrder != 2 {
		t.Fatalf("model info %+v, want a factored model with pair constraints", info)
	}
	kbJSON := mustSaveJSON(t, m)
	checkGoldenWide(t, "kb.json", kbJSON)
	wire := golden7Wire(t, m, goldenWideQueries())
	checkGoldenWide(t, "queries.wire", wire)

	var full bytes.Buffer
	if err := m.SaveSnapshot(&full); err != nil {
		t.Fatal(err)
	}
	checkGoldenWide(t, "full.pkas", full.Bytes())
	qm, err := pka.Load(bytes.NewReader(kbJSON))
	if err != nil {
		t.Fatal(err)
	}
	if got := golden7Wire(t, qm, goldenWideQueries()); !bytes.Equal(got, wire) {
		t.Errorf("JSON-loaded model answers diverged from the discovered model's")
	}
	var lean bytes.Buffer
	if err := qm.SaveSnapshot(&lean); err != nil {
		t.Fatal(err)
	}
	checkGoldenWide(t, "query.pkas", lean.Bytes())

	restored, err := pka.LoadModelSnapshot(bytes.NewReader(full.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := golden7Wire(t, restored, goldenWideQueries()); !bytes.Equal(got, wire) {
		t.Errorf("full snapshot answers diverged from the discovered model's")
	}
	leanModel, err := pka.LoadSnapshot(bytes.NewReader(lean.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := golden7Wire(t, leanModel, goldenWideQueries()); !bytes.Equal(got, wire) {
		t.Errorf("query snapshot answers diverged from the discovered model's")
	}
}

// TestGoldenWideUpdate pins a streaming update of the factored model: the
// incremental per-block refit after one seeded delta batch.
func TestGoldenWideUpdate(t *testing.T) {
	m := goldenWideModel(t)
	rng := rand.New(rand.NewSource(2096))
	delta := make([]pka.Record, 150)
	for i := range delta {
		row := make([]int, goldenWideAttrs)
		goldenWideRow(rng, row)
		delta[i] = row
	}
	if _, err := m.Update(delta); err != nil {
		t.Fatal(err)
	}
	checkGoldenWide(t, "update_kb.json", mustSaveJSON(t, m))
	checkGoldenWide(t, "update_queries.wire", golden7Wire(t, m, goldenWideQueries()))
}
