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
