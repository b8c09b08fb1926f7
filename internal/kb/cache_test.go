//go:build !race

package kb

import (
	"testing"

	"pka/internal/memo"
)

// TestCacheHitAllocs pins the alloc ceiling of warm engine-memo lookups:
// cache keys render into pooled scratch and the memo reads them without a
// copy, so a warm Conditional+Probability pair allocates only for name
// resolution (each resolve's values slice and Members list, and
// Conditional's joined target+evidence slice) — 7 in all. String-built
// keys would add at least one allocation per lookup. (The race detector
// drops pooled scratch at random, so the count is only meaningful without
// it.)
func TestCacheHitAllocs(t *testing.T) {
	k := memoKB(t).WithCache(memo.New(1<<20), 0)
	target := []Assignment{{Attr: "CANCER", Value: "Yes"}}
	given := []Assignment{{Attr: "SMOKING", Value: "Smoker"}}
	warm := func() {
		if _, err := k.Conditional(target, given); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Probability(given...); err != nil {
			t.Fatal(err)
		}
	}
	warm() // populate every entry the steady state reads
	if avg := testing.AllocsPerRun(200, warm); avg > 7 {
		t.Errorf("warm Conditional+Probability pair allocates %.1f times, want <= 7", avg)
	}
}
