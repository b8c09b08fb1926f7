package pka_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"pka"
)

// The golden7 fixtures pin the ≤64-bit fast path across the multi-word
// key/bitset refactor: every file under testdata/golden7 was generated by
// the single-word (pre-refactor) implementation, and these tests assert
// that discovery output, streaming updates, and every query kind's wire
// bytes are byte-identical on schemas that fit the old 64-bit cap.
// Regenerate (only when an intentional output change is being made) with:
//
//	go test -run TestGolden7 -update-golden7
var updateGolden7 = flag.Bool("update-golden7", false, "rewrite the golden7 fixtures from the current implementation")

const golden7Dir = "testdata/golden7"

// golden7SparseModel builds the deterministic 24-binary-attribute
// wide-schema workload (seeded rows, two planted couplings) and discovers
// with screening on — the sparse fast path whose bytes the fixtures pin.
func golden7SparseModel(t *testing.T) (*pka.Model, *pka.Schema) {
	t.Helper()
	attrs := make([]pka.Attribute, 24)
	for i := range attrs {
		attrs[i] = pka.Attribute{Name: fmt.Sprintf("W%d", i), Values: []string{"0", "1"}}
	}
	schema, err := pka.NewSchema(attrs)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := pka.NewSparseTable(schema)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(707))
	cell := make([]int, 24)
	for n := 0; n < 6000; n++ {
		for i := range cell {
			cell[i] = rng.Intn(2)
		}
		if rng.Float64() < 0.8 {
			cell[23] = cell[0]
		}
		if rng.Float64() < 0.6 {
			cell[12] = cell[1]
		}
		if err := tab.Observe(cell...); err != nil {
			t.Fatal(err)
		}
	}
	m, err := pka.DiscoverSparse(tab, schema, pka.Options{MaxOrder: 2, ScreenPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	return m, schema
}

// golden7DenseModel builds the deterministic 6-ternary-attribute dense
// workload and discovers without screening.
func golden7DenseModel(t testing.TB) *pka.Model {
	t.Helper()
	labels := []string{"a", "b", "c"}
	attrs := make([]pka.Attribute, 6)
	for i := range attrs {
		attrs[i] = pka.Attribute{Name: fmt.Sprintf("A%d", i), Values: labels}
	}
	schema, err := pka.NewSchema(attrs)
	if err != nil {
		t.Fatal(err)
	}
	d := pka.NewDataset(schema)
	rng := rand.New(rand.NewSource(808))
	rec := make(pka.Record, 6)
	for n := 0; n < 4000; n++ {
		for i := range rec {
			rec[i] = rng.Intn(3)
		}
		if rng.Float64() < 0.6 {
			rec[1] = rec[0]
		}
		if rng.Float64() < 0.5 {
			rec[4] = rec[3]
		}
		if err := d.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	m, err := pka.Discover(d, pka.Options{MaxOrder: 3})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// golden7SparseQueries covers every query kind against the sparse model.
func golden7SparseQueries() []pka.Query {
	return []pka.Query{
		{Kind: pka.QueryProbability, Target: []pka.Assignment{{Attr: "W0", Value: "1"}, {Attr: "W23", Value: "1"}}},
		{Kind: pka.QueryConditional, Target: []pka.Assignment{{Attr: "W23", Value: "1"}}, Given: []pka.Assignment{{Attr: "W0", Value: "1"}}},
		{Kind: pka.QueryConditional, Target: []pka.Assignment{{Attr: "W12", Value: "0"}}, Given: []pka.Assignment{{Attr: "W1", Value: "0"}, {Attr: "W2", Value: "1"}}},
		{Kind: pka.QueryDistribution, Attr: "W12", Given: []pka.Assignment{{Attr: "W1", Value: "1"}}},
		{Kind: pka.QueryMostLikely, Attr: "W23", Given: []pka.Assignment{{Attr: "W0", Value: "0"}}},
		{Kind: pka.QueryLift, Target: []pka.Assignment{{Attr: "W23", Value: "1"}}, Given: []pka.Assignment{{Attr: "W0", Value: "1"}}},
		{Kind: pka.QueryMPE, Given: []pka.Assignment{{Attr: "W0", Value: "1"}, {Attr: "W1", Value: "1"}}},
	}
}

func golden7DenseQueries() []pka.Query {
	return []pka.Query{
		{Kind: pka.QueryProbability, Target: []pka.Assignment{{Attr: "A0", Value: "a"}, {Attr: "A1", Value: "a"}}},
		{Kind: pka.QueryConditional, Target: []pka.Assignment{{Attr: "A1", Value: "b"}}, Given: []pka.Assignment{{Attr: "A0", Value: "b"}}},
		{Kind: pka.QueryDistribution, Attr: "A4", Given: []pka.Assignment{{Attr: "A3", Value: "c"}}},
		{Kind: pka.QueryMostLikely, Attr: "A1", Given: []pka.Assignment{{Attr: "A0", Value: "c"}}},
		{Kind: pka.QueryLift, Target: []pka.Assignment{{Attr: "A4", Value: "a"}}, Given: []pka.Assignment{{Attr: "A3", Value: "a"}}},
		{Kind: pka.QueryMPE, Given: []pka.Assignment{{Attr: "A0", Value: "a"}}},
	}
}

// golden7Wire renders batch answers into the canonical wire bytes — one
// JSON result object per line, exactly what the server and `pka query
// -json` emit.
func golden7Wire(t *testing.T, q pka.Querier, queries []pka.Query) []byte {
	t.Helper()
	results, err := pka.AnswerBatch(q, queries)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for i, res := range results {
		if res.Error != "" {
			t.Fatalf("query %d failed: %s", i, res.Error)
		}
		if err := pka.EncodeQueryResult(&buf, res); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// checkGolden compares got against the committed fixture (or rewrites it
// under -update-golden7).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join(golden7Dir, name)
	if *updateGolden7 {
		if err := os.MkdirAll(golden7Dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture %s (run with -update-golden7): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output diverged from the pre-refactor fast path (%d bytes vs %d)", name, len(got), len(want))
	}
}

// TestGolden7SparseDiscover pins the screened sparse discovery output: the
// saved KB JSON and the wire bytes of every query kind.
func TestGolden7SparseDiscover(t *testing.T) {
	m, _ := golden7SparseModel(t)
	var kbJSON bytes.Buffer
	if err := m.Save(&kbJSON); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sparse_kb.json", kbJSON.Bytes())
	checkGolden(t, "sparse_queries.wire", golden7Wire(t, m, golden7SparseQueries()))
}

// TestGolden7DenseDiscover pins the dense order-3 discovery output.
func TestGolden7DenseDiscover(t *testing.T) {
	m := golden7DenseModel(t)
	var kbJSON bytes.Buffer
	if err := m.Save(&kbJSON); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "dense_kb.json", kbJSON.Bytes())
	checkGolden(t, "dense_queries.wire", golden7Wire(t, m, golden7DenseQueries()))
}

// TestGolden7Update pins the streaming-update path: a fixed delta batch
// folded into the sparse model must leave byte-identical saved state and
// answers.
func TestGolden7Update(t *testing.T) {
	m, _ := golden7SparseModel(t)
	rng := rand.New(rand.NewSource(909))
	delta := make([]pka.Record, 120)
	for i := range delta {
		row := make([]int, 24)
		for j := range row {
			row[j] = rng.Intn(2)
		}
		if rng.Float64() < 0.8 {
			row[23] = row[0]
		}
		delta[i] = row
	}
	if _, err := m.Update(delta); err != nil {
		t.Fatal(err)
	}
	var kbJSON bytes.Buffer
	if err := m.Save(&kbJSON); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "update_kb.json", kbJSON.Bytes())
	checkGolden(t, "update_queries.wire", golden7Wire(t, m, golden7SparseQueries()))
}

// TestGolden7SnapshotV1Fixture proves v1 PKAS snapshots written by the
// pre-refactor single-word implementation still load: the committed v1
// files (one full model+counts snapshot, one lean query snapshot) must
// produce the exact golden wire bytes. Under -update-golden7 the files are
// rewritten by the current writer — so they stay v1 fixtures only as long
// as they are regenerated from a v1-era build; the committed ones are.
func TestGolden7SnapshotV1Fixture(t *testing.T) {
	if *updateGolden7 {
		m, _ := golden7SparseModel(t)
		var full bytes.Buffer
		if err := m.SaveSnapshot(&full); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "sparse_full.pkas", full.Bytes())
		qm, err := pka.Load(bytes.NewReader(mustSaveJSON(t, m)))
		if err != nil {
			t.Fatal(err)
		}
		var lean bytes.Buffer
		if err := qm.SaveSnapshot(&lean); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "sparse_query.pkas", lean.Bytes())
		return
	}
	fullBytes, err := os.ReadFile(filepath.Join(golden7Dir, "sparse_full.pkas"))
	if err != nil {
		t.Fatalf("missing fixture (run with -update-golden7): %v", err)
	}
	wantWire, err := os.ReadFile(filepath.Join(golden7Dir, "sparse_queries.wire"))
	if err != nil {
		t.Fatal(err)
	}
	// The full snapshot restores an updatable model.
	m, err := pka.LoadModelSnapshot(bytes.NewReader(fullBytes))
	if err != nil {
		t.Fatalf("loading committed v1 full snapshot: %v", err)
	}
	if got := golden7Wire(t, m, golden7SparseQueries()); !bytes.Equal(got, wantWire) {
		t.Errorf("v1 full snapshot answers diverged from golden wire bytes")
	}
	// The lean snapshot restores a query-only model.
	leanBytes, err := os.ReadFile(filepath.Join(golden7Dir, "sparse_query.pkas"))
	if err != nil {
		t.Fatal(err)
	}
	qm, err := pka.LoadSnapshot(bytes.NewReader(leanBytes))
	if err != nil {
		t.Fatalf("loading committed v1 query snapshot: %v", err)
	}
	if got := golden7Wire(t, qm, golden7SparseQueries()); !bytes.Equal(got, wantWire) {
		t.Errorf("v1 query snapshot answers diverged from golden wire bytes")
	}
}

func mustSaveJSON(t *testing.T, m *pka.Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

var _ = json.Marshal // keep the import available for fixture debugging
