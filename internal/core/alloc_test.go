package core

import (
	"fmt"
	"testing"

	"pka/internal/contingency"
	"pka/internal/mml"
	"pka/internal/stats"
	"pka/internal/synth"
)

// TestWideDiscoverAllocCeiling pins the allocation cost of the screened
// wide discover: 260 binary attributes (130 planted pairs), 1,200 rows,
// pair plus CI screen, 32 constraints, one worker. Each measured op starts
// from a cold clone of the table, so the sparse projection cache is rebuilt
// every time. The ceiling sits above the measured count with headroom; the
// counting layer (one marginal table per family, member-only key decoding,
// a one-pass block partition) is what keeps it there — rescanning families
// per block or recounting marginals per cell multiplies it several times.
func TestWideDiscoverAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("wide discover allocation ceiling skipped in -short mode")
	}
	truth, err := synth.WidePairs(130, 3)
	if err != nil {
		t.Fatal(err)
	}
	table, err := truth.SampleSparse(stats.NewRNG(7), 1200)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		MaxOrder:       2,
		MML:            mml.DefaultConfig(),
		MaxConstraints: 32,
		ScreenPairs:    true,
		ScreenCI:       true,
		Workers:        1,
	}
	var runErr error
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := DiscoverCounts(table.Clone(), opts); err != nil && runErr == nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	const ceiling = 2_500_000
	t.Logf("wide discover: %.0f allocations per op (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("wide discover made %.0f allocations per op, ceiling %d", allocs, ceiling)
	}
}

// TestWarmScreenAllocCeiling pins the allocation cost of re-screening an
// 80-attribute table whose pair-count ledger is already built — the pair
// screen every streaming Update runs. Deciding the 3,160 pairs from the
// ledger by G² alone allocates a fixed handful of buffers (the adjacency
// slab and its row headers, one scratch buffer, one critical value per
// degrees of freedom; measured 7), never one per pair, per row of pairs or
// per occupied cell; rescanning the cells or building a table per pair
// costs thousands.
func TestWarmScreenAllocCeiling(t *testing.T) {
	truth, err := synth.WidePairs(40, 3)
	if err != nil {
		t.Fatal(err)
	}
	table, err := truth.SampleSparse(stats.NewRNG(7), 8000)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := buildScreen(table, 0); err != nil {
		t.Fatal(err)
	}
	var runErr error
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := buildScreen(table, 0); err != nil && runErr == nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if b := table.PairCountBuilds(); b != 1 {
		t.Fatalf("warm re-screens rebuilt the ledger: %d builds", b)
	}
	const ceiling = 20
	t.Logf("warm 80-attribute screen: %.0f allocations per op (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("warm 80-attribute screen made %.0f allocations per op, ceiling %d", allocs, ceiling)
	}
}

// TestWarmUpdateAllocCeiling pins the allocation cost of one warm Update:
// a 50-row batch, already applied to TestWarmScreenAllocCeiling's
// 80-attribute bank, folded into a screened order-2 discovery whose
// projections and pair-count ledger are built. An observe batch only adds
// rows, so no family's move is checked cell by cell, the pair screen
// computes G² alone, and the all-pairs family list is never built when
// the screen's adjacency replaces it (measured 3,947; checking each
// family's move cell by cell and scoring every pair's full statistics
// made 17,572).
func TestWarmUpdateAllocCeiling(t *testing.T) {
	truth, err := synth.WidePairs(40, 3)
	if err != nil {
		t.Fatal(err)
	}
	table, err := truth.SampleSparse(stats.NewRNG(7), 8000)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MaxOrder: 2, MML: mml.DefaultConfig(), ScreenPairs: true, Workers: 1}
	res, err := DiscoverCounts(table, opts)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := truth.SampleDataset(stats.NewRNG(8), 50)
	if err != nil {
		t.Fatal(err)
	}
	deltas := make([]contingency.CellDelta, batch.Len())
	for i := range deltas {
		deltas[i] = contingency.CellDelta{Cell: batch.Record(i), Delta: 1}
	}
	if err := table.ApplyBatch(deltas); err != nil {
		t.Fatal(err)
	}
	// Update leaves res and the table as they were, so every run folds the
	// same batch into the same result.
	var runErr error
	allocs := testing.AllocsPerRun(5, func() {
		out, err := Update(res, table, deltas, opts)
		if err == nil && (out.Rediscovered || !out.Refit) {
			err = fmt.Errorf("warm update took the wrong path: %+v", *out)
		}
		if err != nil && runErr == nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	const ceiling = 6_000
	t.Logf("warm 80-attribute update: %.0f allocations per op (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("warm 80-attribute update made %.0f allocations per op, ceiling %d", allocs, ceiling)
	}
}
