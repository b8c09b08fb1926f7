package core

import (
	"testing"

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
