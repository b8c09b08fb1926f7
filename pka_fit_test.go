package pka

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pka/internal/contingency"
	"pka/internal/core"
	"pka/internal/dataset"
	"pka/internal/kb"
	"pka/internal/maxent"
	"pka/internal/paperdata"
	"pka/internal/snapshot"
	"pka/internal/stats"
	"pka/internal/synth"
)

// requireFitIsDirectWalk fails unless m.Fit() equals, bit for bit, a direct
// GoodnessOfFit over the model's current counts and fitted model.
func requireFitIsDirectWalk(t *testing.T, m *Model, step string) FitReport {
	t.Helper()
	want, err := core.GoodnessOfFit(m.counts, m.result.Model)
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	if got := m.Fit(); got != want {
		t.Fatalf("%s: Fit() = %+v, direct walk %+v", step, got, want)
	}
	if got := m.Fit(); got != want {
		t.Fatalf("%s: cached Fit() = %+v, direct walk %+v", step, got, want)
	}
	return want
}

// TestLazyFitMatchesDirectWalk: the goodness of fit computed on demand is
// the value the walk gives on the same counts and model, after discovery,
// after each of five Updates on an 80-attribute sparse bank, and after a
// LoadModelSnapshot round trip. Fit is read before every batch, so a
// cached value that a refitting batch failed to reset would show.
func TestLazyFitMatchesDirectWalk(t *testing.T) {
	truth, err := synth.WidePairs(40, 3)
	if err != nil {
		t.Fatal(err)
	}
	bank, err := truth.SampleSparse(stats.NewRNG(31), 3000)
	if err != nil {
		t.Fatal(err)
	}
	m, err := DiscoverSparse(bank, truth.Schema(), Options{MaxOrder: 2, ScreenPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	prev := requireFitIsDirectWalk(t, m, "discovery")
	rng := stats.NewRNG(32)
	for b := 0; b < 5; b++ {
		batch, err := truth.SampleDataset(rng, 50)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]Record, batch.Len())
		for i := range rows {
			rows[i] = batch.Record(i)
		}
		rep, err := m.Update(rows)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Refit {
			t.Fatalf("batch %d did not refit", b)
		}
		fit := requireFitIsDirectWalk(t, m, "update")
		if fit == prev {
			t.Fatalf("batch %d: fit %+v unchanged by a refitting batch", b, fit)
		}
		prev = fit
	}
	var buf bytes.Buffer
	if err := m.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadModelSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := requireFitIsDirectWalk(t, restored, "restore"); got != prev {
		t.Fatalf("restored Fit() = %+v, saved model's %+v", got, prev)
	}
}

// TestUpdateRollsBackWhenKBFails: a batch that core.Update absorbs but
// whose knowledge base fails to compile is rolled back like any other
// failed batch. The counts, the served knowledge base and the version are
// unchanged, and the next good batch lands as if the failed one had never
// been offered.
func TestUpdateRollsBackWhenKBFails(t *testing.T) {
	schema := streamSchema(t)
	base := streamRows(rand.New(rand.NewSource(41)), 600)
	m, err := DiscoverSparse(sparseOf(t, schema, base), schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	twin, err := DiscoverSparse(sparseOf(t, schema, base), schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	saved := func(m *Model) []byte {
		t.Helper()
		var b bytes.Buffer
		if err := m.Save(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	cells := func(m *Model) []string {
		var out []string
		m.counts.EachCell(func(cell []int, n int64) { out = append(out, fmt.Sprint(cell, n)) })
		return out
	}
	total, kbBytes, version, occupied := m.counts.Total(), saved(m), m.Version(), cells(m)

	injected := errors.New("injected kb failure")
	newKB = func(*dataset.Schema, *maxent.Model) (*kb.KnowledgeBase, error) { return nil, injected }
	t.Cleanup(func() { newKB = kb.New })
	rng := rand.New(rand.NewSource(42))
	if _, err := m.Update(streamRows(rng, 40)); !errors.Is(err, injected) {
		t.Fatalf("Update error %v, want the injected failure", err)
	}
	if m.counts.Total() != total {
		t.Fatalf("failed Update left Total %d, want %d", m.counts.Total(), total)
	}
	if !slices.Equal(cells(m), occupied) {
		t.Fatal("failed Update changed the counts")
	}
	if err := m.counts.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved(m), kbBytes) {
		t.Fatal("failed Update changed the served knowledge base")
	}
	if m.Version() != version {
		t.Fatalf("failed Update moved the version %d -> %d", version, m.Version())
	}

	newKB = kb.New
	good := streamRows(rng, 40)
	rep, err := m.Update(good)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := twin.Update(good); err != nil {
		t.Fatal(err)
	}
	if rep.Version != version+1 || rep.TotalSamples != total+int64(len(good)) {
		t.Fatalf("next batch reported version %d, total %d; want %d, %d",
			rep.Version, rep.TotalSamples, version+1, total+int64(len(good)))
	}
	if !bytes.Equal(saved(m), saved(twin)) {
		t.Fatal("after the rollback, the next batch served a different KB than a model that never saw the failed batch")
	}
	requireFitIsDirectWalk(t, m, "after rollback")
}

// TestLoadModelSnapshotRejectsMismatchedCounts: a snapshot whose counts do
// not fit its model is refused at restore — one with an attribute more
// than the model, one whose counts give an attribute an extra value that a
// cell occupies, and one with no samples — on both counts backends.
func TestLoadModelSnapshotRejectsMismatchedCounts(t *testing.T) {
	schema := streamSchema(t)
	rows := streamRows(rand.New(rand.NewSource(51)), 400)
	m, err := DiscoverSparse(sparseOf(t, schema, rows), schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	model := m.KnowledgeBase().Model()
	extraAttr := append(schema.Cards(), 2)
	extraValue := schema.Cards()
	extraValue[1]++
	for _, tc := range []struct {
		name  string
		cards []int
		fill  func(cell []int) // sets the cells beyond the model's shape; nil: no rows
	}{
		{"extra attribute", extraAttr, func(cell []int) { cell[4] = 1 }},
		{"extra value", extraValue, func(cell []int) { cell[1] = extraValue[1] - 1 }},
		{"empty", schema.Cards(), nil},
	} {
		for _, dense := range []bool{false, true} {
			var counts contingency.Counts
			if dense {
				counts, err = contingency.New(nil, tc.cards)
			} else {
				counts, err = contingency.NewSparse(nil, tc.cards)
			}
			if err != nil {
				t.Fatal(err)
			}
			var deltas []contingency.CellDelta
			for i, r := range rows {
				if tc.fill == nil {
					break
				}
				cell := make([]int, len(tc.cards))
				copy(cell, r)
				if i%7 == 0 {
					tc.fill(cell)
				}
				deltas = append(deltas, contingency.CellDelta{Cell: cell, Delta: 1})
			}
			if err := counts.ApplyBatch(deltas); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			err := snapshot.Write(&buf, &snapshot.Snapshot{Schema: schema, Model: model, Counts: counts})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := LoadModelSnapshot(&buf); err == nil {
				t.Errorf("%s (dense %v): snapshot with mismatched counts restored", tc.name, dense)
			}
		}
	}
}

// TestLoadModelSnapshotRejectsNegativeCounts: restore checks the counts'
// consistency, since Update no longer walks them. A dense cell saved as -1
// (its neighbour raised so the total still matches) is refused at load
// instead of being carried into the next Update.
func TestLoadModelSnapshotRejectsNegativeCounts(t *testing.T) {
	m, err := Discover(paperdata.Records(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	counts := m.counts.(*contingency.Table).Clone()
	cells := counts.Counts()
	cells[0], cells[1] = -1, cells[1]+cells[0]+1
	var buf bytes.Buffer
	err = snapshot.Write(&buf, &snapshot.Snapshot{
		Schema: m.Schema(), Model: m.KnowledgeBase().Model(), Counts: counts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModelSnapshot(&buf); err == nil {
		t.Fatal("snapshot with a negative count restored")
	}
}
