//go:build !race

package sumprod

import (
	"math/rand"
	"testing"
)

// TestWarmMarginalAllocatesOnlyItsResult: once the shared suffix exists, a
// batch marginal reads it and reuses pooled scratch, so each call allocates
// just the returned slice. (The race detector drops pooled items at random,
// so the count is only meaningful without it.)
func TestWarmMarginalAllocatesOnlyItsResult(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	_, ce := randomEngine(t, rng, suffixShapes[1])
	family := []int{1, 4}
	if _, err := ce.Marginal(family); err != nil {
		t.Fatal(err)
	}
	if !suffixBuilt(ce) {
		t.Fatal("warm-up marginal left the suffix unbuilt")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := ce.Marginal(family); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("warm Marginal allocates %.1f per call, want 1 (its result)", allocs)
	}
}
