package sumprod

import (
	"math/rand"
	"sync"
	"testing"
)

// suffixShapes are the wide-enough shapes the shared-suffix tests run on:
// at least seven attributes, mixed cardinalities, a ternary last attribute.
var suffixShapes = [][]int{
	{2, 3, 2, 2, 4, 2, 3},
	{3, 2, 2, 3, 2, 2, 2, 3},
}

// suffixBuilt reports whether the engine has published its shared suffix.
// Call it only once the engine's queries have returned.
func suffixBuilt(ce *Compiled) bool { return ce.suffix != nil }

// TestSuffixBuildOnlyFromUnpinnedBatch: on a fresh engine, a clamped batch
// marginal, SumFixed, SumPinned, Sum and a marginal over the last attribute
// leave the suffix unbuilt; the first unpinned batch marginal below the
// last attribute builds it, and later folds of every kind still equal the
// Evaluator bit for bit.
func TestSuffixBuildOnlyFromUnpinnedBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cards := suffixShapes[0]
	ev, ce := randomEngine(t, rng, cards)
	fixed := []int{-1, 2, -1, -1, -1, -1, -1}
	if _, err := ce.MarginalFixed([]int{0, 3}, fixed); err != nil {
		t.Fatal(err)
	}
	_ = ce.SumFixed(fixed)
	_ = ce.SumPinned([]int{2}, []int{1})
	_ = ce.Sum()
	if _, err := ce.Marginal([]int{0, len(cards) - 1}); err != nil {
		t.Fatal(err)
	}
	if suffixBuilt(ce) {
		t.Fatal("pinned folds, Sum or a marginal over the last attribute built the shared suffix")
	}
	if _, err := ce.MarginalFixed([]int{0, 3}, []int{-1, -1, -1}); err != nil {
		t.Fatal(err)
	}
	if !suffixBuilt(ce) {
		t.Fatal("an unpinned batch marginal left the suffix unbuilt")
	}
	for top := 0; top < len(cards); top++ {
		family := []int{top}
		if top > 1 {
			family = []int{1, top}
		}
		marg, err := ce.Marginal(family)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range perCellMarginal(ev, cards, family) {
			if marg[i] != want {
				t.Fatalf("warm family %v cell %d: batch %x, evaluator %x", family, i, marg[i], want)
			}
		}
	}
	if got, want := ce.SumFixed(fixed), ev.SumFixed(fixed); got != want {
		t.Fatalf("warm SumFixed = %x, evaluator %x", got, want)
	}
	if got, want := ce.Sum(), ev.Sum(); got != want {
		t.Fatalf("warm Sum = %x, evaluator %x", got, want)
	}
}

// TestSuffixConcurrentFirstUse races eight goroutines through a cold
// engine's first queries — unpinned marginals that build the suffix beside
// pinned folds that never touch it — and checks every answer against the
// Evaluator. Run with -race.
func TestSuffixConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	cards := suffixShapes[1]
	for trial := 0; trial < 5; trial++ {
		ev, ce := randomEngine(t, rng, cards)
		families := [][]int{{0, 2}, {1, 4}, {3}, {2, 5, 6}, {0, 1}, {4, 6}, {5}, {1, 3, 6}}
		want := make([][]float64, len(families))
		for i, fam := range families {
			want[i] = perCellMarginal(ev, cards, fam)
		}
		wantPinned := ev.SumFixed([]int{-1, 1, -1, 2})
		start := make(chan struct{})
		errs := make(chan string, 16)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				if g%2 == 1 {
					if got := ce.SumPinned([]int{1, 3}, []int{1, 2}); got != wantPinned {
						errs <- "SumPinned mismatch"
					}
				}
				marg, err := ce.Marginal(families[g])
				if err != nil {
					errs <- err.Error()
					return
				}
				for j := range marg {
					if marg[j] != want[g][j] {
						errs <- "Marginal mismatch"
						return
					}
				}
			}(g)
		}
		close(start)
		wg.Wait()
		close(errs)
		for msg := range errs {
			t.Error(msg)
		}
		if !suffixBuilt(ce) {
			t.Error("concurrent first marginals left the suffix unbuilt")
		}
	}
}

// perCellMarginal is the reference batch marginal: one Evaluator.SumFixed
// per cell of the kept vars, row-major with the first slowest, with the
// other variables summed out.
func perCellMarginal(ev *Evaluator, cards, vars []int) []float64 {
	pins := make([]int, len(cards))
	for v := range pins {
		pins[v] = -1
	}
	var out []float64
	values := make([]int, len(vars))
	for {
		for i, v := range vars {
			pins[v] = values[i]
		}
		out = append(out, ev.SumFixed(pins))
		i := len(values) - 1
		for i >= 0 {
			values[i]++
			if values[i] < cards[vars[i]] {
				break
			}
			values[i] = 0
			i--
		}
		if i < 0 {
			return out
		}
	}
}
