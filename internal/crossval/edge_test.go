package crossval

import (
	"math"
	"testing"

	"pka/internal/contingency"
	"pka/internal/core"
	"pka/internal/maxent"
	"pka/internal/stats"
	"pka/internal/synth"
)

func TestHeldOutLossEmptyFold(t *testing.T) {
	// Six samples over three folds: seed 7 deals them 3, 0 and 3. The
	// empty fold is not scored, so it adds no FoldLosses entry and does not
	// dilute MeanLoss with a zero.
	tab := contingency.MustNew(nil, []int{2, 2})
	tab.Set(3, 0, 0)
	tab.Set(3, 1, 1)
	foldTables, err := split(tab, 3, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	if foldTables[1].Total() != 0 {
		t.Fatalf("fold sizes %d, %d, %d; the test needs fold 1 empty",
			foldTables[0].Total(), foldTables[1].Total(), foldTables[2].Total())
	}
	scores, _, err := SelectMaxOrder(tab, 2, 3, stats.NewRNG(7), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc := scores[0]
	if len(sc.FoldLosses) != 2 {
		t.Fatalf("fold losses %v, want one entry per non-empty fold", sc.FoldLosses)
	}
	if want := (sc.FoldLosses[0] + sc.FoldLosses[1]) / 2; sc.MeanLoss != want {
		t.Errorf("mean loss %v, want the mean of the scored folds %v", sc.MeanLoss, want)
	}
	for _, l := range sc.FoldLosses {
		if !(l > 0) {
			t.Errorf("fold loss %v, want positive", l)
		}
	}
}

func TestHeldOutLossZeroSupport(t *testing.T) {
	// X equals Y but for one sample. The fold holding that sample is
	// scored by a model trained without it, which rules its cell out: the
	// fold's loss, and so the mean, is +Inf.
	tab := contingency.MustNew(nil, []int{2, 2})
	tab.Set(50, 0, 0)
	tab.Set(50, 1, 1)
	tab.Set(1, 0, 1)
	scores, _, err := SelectMaxOrder(tab, 2, 2, stats.NewRNG(1), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc := scores[0]
	inf := 0
	for _, l := range sc.FoldLosses {
		if math.IsInf(l, 1) {
			inf++
		}
	}
	if inf != 1 || !math.IsInf(sc.MeanLoss, 1) {
		t.Errorf("fold losses %v, mean %v; want one +Inf fold and a +Inf mean",
			sc.FoldLosses, sc.MeanLoss)
	}
}

// TestFoldLossesMatchEngineLogLoss: every fold is scored by the compiled
// engine's LogLoss on the model discovered from the other folds — the same
// walk kb.LogLoss runs — to the bit. On this XOR sample a walk over the
// materialized joint differs from it in the last bits of some folds.
func TestFoldLossesMatchEngineLogLoss(t *testing.T) {
	truth, err := synth.XOR3(3)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := truth.SampleTable(stats.NewRNG(17), 20_000)
	if err != nil {
		t.Fatal(err)
	}
	const folds = 4
	scores, _, err := SelectMaxOrder(tab, 3, folds, stats.NewRNG(18), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	foldTables, err := split(tab, folds, stats.NewRNG(18))
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scores {
		if len(sc.FoldLosses) != folds {
			t.Fatalf("order %d: %d fold losses, want %d", sc.MaxOrder, len(sc.FoldLosses), folds)
		}
		for heldIdx, held := range foldTables {
			train, err := trainingTable(foldTables, heldIdx)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Discover(train, core.Options{MaxOrder: sc.MaxOrder})
			if err != nil {
				t.Fatal(err)
			}
			eng, err := res.Model.Compile()
			if err != nil {
				t.Fatal(err)
			}
			want, err := eng.LogLoss(held)
			if err != nil {
				t.Fatal(err)
			}
			if got := sc.FoldLosses[heldIdx]; got != want {
				t.Errorf("order %d fold %d: loss %v, Compile().LogLoss %v",
					sc.MaxOrder, heldIdx, got, want)
			}
		}
	}
}

func TestSelectMaxOrderPropagatesOptions(t *testing.T) {
	// A solver option that cannot converge must surface as an error, not
	// be silently ignored.
	tab := contingency.MustNew(nil, []int{2, 2, 2})
	cell := make([]int, 3)
	rng := stats.NewRNG(3)
	for i := 0; i < 500; i++ {
		for j := range cell {
			cell[j] = rng.Intn(2)
		}
		if err := tab.Observe(cell...); err != nil {
			t.Fatal(err)
		}
	}
	opts := core.Options{Solve: maxent.SolveOptions{MaxSweeps: 1, Tol: 1e-15}}
	if _, _, err := SelectMaxOrder(tab, 2, 2, stats.NewRNG(4), opts); err == nil {
		// With one sweep at 1e-15 tolerance the initial fit cannot
		// converge, so discovery must fail and crossval must report it.
		t.Error("non-converging solver options silently accepted")
	}
}
