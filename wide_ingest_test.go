package pka

import (
	"bytes"
	"reflect"
	"testing"

	"pka/internal/contingency"
	"pka/internal/stats"
	"pka/internal/synth"
)

// TestWideUpdateReplayMatchesColdCounts replays 24 observe batches into a
// screened 80-attribute bank, whose pair screen reads the pair-count
// ledger. The warm model keeps one table for the whole replay; the
// reference model runs every Update on a cold Clone of its counts, so each
// of its screens counts the pairs from the occupied cells afresh. Every
// report, the final findings and screen, and the snapshot bytes must
// agree, and the warm table must have counted its ledger exactly once:
// streaming cost is per changed cell, not per occupied cell.
func TestWideUpdateReplayMatchesColdCounts(t *testing.T) {
	truth, err := synth.WidePairs(40, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MaxOrder: 2, ScreenPairs: true}
	discover := func() *Model {
		t.Helper()
		bank, err := truth.SampleSparse(stats.NewRNG(11), 3000)
		if err != nil {
			t.Fatal(err)
		}
		m, err := DiscoverSparse(bank, truth.Schema(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	warm, ref := discover(), discover()
	rng := stats.NewRNG(12)
	for b := 0; b < 24; b++ {
		batch, err := truth.SampleDataset(rng, 50)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]Record, batch.Len())
		for i := range rows {
			rows[i] = batch.Record(i)
		}
		got, err := warm.Update(rows)
		if err != nil {
			t.Fatal(err)
		}
		ref.counts = ref.counts.(*contingency.Sparse).Clone()
		want, err := ref.Update(rows)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("batch %d: warm report %+v, cold-counts report %+v", b, got, want)
		}
	}
	if !reflect.DeepEqual(warm.Findings(), ref.Findings()) {
		t.Fatal("findings differ between the warm and cold-counts replays")
	}
	if *warm.Screen() != *ref.Screen() {
		t.Fatalf("screen %+v, cold-counts screen %+v", *warm.Screen(), *ref.Screen())
	}
	var wb, rb bytes.Buffer
	if err := warm.SaveSnapshot(&wb); err != nil {
		t.Fatal(err)
	}
	if err := ref.SaveSnapshot(&rb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb.Bytes(), rb.Bytes()) {
		t.Fatal("snapshot bytes differ between the warm and cold-counts replays")
	}
	if n := warm.counts.(*contingency.Sparse).PairCountBuilds(); n != 1 {
		t.Fatalf("warm replay counted the pair ledger %d times, want once", n)
	}
}

// TestWideUpdateWorkerInvariance discovers one 80-attribute sparse bank
// with Workers 1 and 4 and folds the same five 50-row batches into both.
// Each Update re-screens through the pair-count ledger and re-scans the
// moved families, the two sites the worker count reaches; every report
// and the saved KB bytes after every batch must agree.
func TestWideUpdateWorkerInvariance(t *testing.T) {
	truth, err := synth.WidePairs(40, 3)
	if err != nil {
		t.Fatal(err)
	}
	discover := func(workers int) *Model {
		t.Helper()
		bank, err := truth.SampleSparse(stats.NewRNG(21), 3000)
		if err != nil {
			t.Fatal(err)
		}
		m, err := DiscoverSparse(bank, truth.Schema(), Options{MaxOrder: 2, ScreenPairs: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	serial, wide := discover(1), discover(4)
	if r := serial.counts.R(); r < 65 {
		t.Fatalf("bank has %d attributes; the screen reads the ledger from 65", r)
	}
	saved := func(m *Model) []byte {
		t.Helper()
		var b bytes.Buffer
		if err := m.Save(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	if !bytes.Equal(saved(serial), saved(wide)) {
		t.Fatal("discovered KB bytes differ between Workers 1 and 4")
	}
	rng := stats.NewRNG(22)
	for b := 0; b < 5; b++ {
		batch, err := truth.SampleDataset(rng, 50)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]Record, batch.Len())
		for i := range rows {
			rows[i] = batch.Record(i)
		}
		want, err := serial.Update(rows)
		if err != nil {
			t.Fatal(err)
		}
		got, err := wide.Update(rows)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("batch %d: Workers 4 report %+v, Workers 1 report %+v", b, got, want)
		}
		if !bytes.Equal(saved(serial), saved(wide)) {
			t.Fatalf("batch %d: saved KB bytes differ between Workers 1 and 4", b)
		}
	}
}
