package assoc

import (
	"math"
	"math/rand"
	"testing"

	"pka/internal/contingency"
	"pka/internal/stats"
)

// screenGrid returns the G² values a cut with critical value c is checked
// at: c, c/2 and 2c with their one-ulp neighbours, every float within 64
// ulps of c, log-uniform draws over [c/64, 64c], and the values no
// comparison with c decides (0, a rounding-negative G², +Inf, NaN).
func screenGrid(c float64, rng *rand.Rand) []float64 {
	grid := []float64{0, -1e-12, math.Inf(1), math.NaN(), 1e-300, 1, 1e6, math.MaxFloat64}
	for _, x := range []float64{c, c / 2, 2 * c} {
		grid = append(grid, math.Nextafter(x, 0), x, math.Nextafter(x, math.Inf(1)))
	}
	x := c
	for k := 0; k < 64; k++ {
		x = math.Nextafter(x, 0)
	}
	for k := 0; k <= 128; k++ {
		grid = append(grid, x)
		x = math.Nextafter(x, math.Inf(1))
	}
	for k := 0; k < 400; k++ {
		grid = append(grid, c*math.Exp2(12*rng.Float64()-6))
	}
	return grid
}

// TestScreenCutMatchesChiSquareSF: the screen's decision is exactly
// stats.ChiSquareSF(g2, df) <= alpha, at every df and alpha the screens
// use (0.05/3160 and 0.05/33670 are the Bonferroni levels of 80 and 260
// attributes) and at alphas outside (0, 1).
//
// The tail is monotone only up to rounding: a few ulps around the critical
// value its decision flips back and forth, so deciding there by comparing
// with the critical value alone gives wrong answers. The test asserts that
// its ulp window reaches such a flip, so skipping the exact evaluation
// inside the margin fails it.
func TestScreenCutMatchesChiSquareSF(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	flips := 0
	for _, df := range []int{1, 2, 4, 64} {
		for _, alpha := range []float64{0.05, 0.05 / 3160, 0.05 / 33670, 1e-12, 0.5, 0.999} {
			cut := newScreenCut(df, alpha)
			c := cut.crit
			if !(c > 0 && c < math.Inf(1)) {
				t.Fatalf("df %d alpha %g: critical value %g", df, alpha, c)
			}
			if stats.ChiSquareSF(c, df) > alpha || stats.ChiSquareSF(math.Nextafter(c, 0), df) <= alpha {
				t.Errorf("df %d alpha %g: %g does not pass where its predecessor fails", df, alpha, c)
			}
			for _, g2 := range screenGrid(c, rng) {
				want := stats.ChiSquareSF(g2, df) <= alpha
				if got := cut.rejects(g2); got != want {
					t.Errorf("df %d alpha %g: rejects(%b) = %v, ChiSquareSF says %v", df, alpha, g2, got, want)
				}
				if g2 > 0 && want != (g2 >= c) {
					flips++
				}
			}
		}
	}
	t.Logf("%d grid points near a critical value decide against a plain comparison", flips)
	if flips == 0 {
		t.Error("no grid point near a critical value disagrees with a plain comparison: the grid no longer tests the margin")
	}
	for _, alpha := range []float64{1, 2, -0.1, math.NaN(), 5e-324} {
		for _, df := range []int{0, 1, 64} {
			cut := newScreenCut(df, alpha)
			for _, g2 := range screenGrid(cut.crit, rng) {
				want := stats.ChiSquareSF(g2, df) <= alpha
				if got := cut.rejects(g2); got != want {
					t.Errorf("df %d alpha %g (crit %g): rejects(%b) = %v, ChiSquareSF says %v",
						df, alpha, cut.crit, g2, got, want)
				}
			}
		}
	}
}

// TestScreenPairsMatchesScorePairs: on a dense table, a sparse table read
// through projections and one read through the pair-count ledger,
// ScreenPairs keeps exactly the pairs whose ScorePairs p-value is at most
// alpha — also when alpha equals a pair's p-value — and keeps them in
// lexicographic order.
func TestScreenPairsMatchesScorePairs(t *testing.T) {
	tables := map[string]contingency.Counts{
		"dense":  memoTable(t),
		"sparse": coupledSparse(t, 12, 600, 3),
		"ledger": mixedSparse(t, bulkPairwiseMinR+3, 2500, 8),
	}
	for name, c := range tables {
		scored, err := ScorePairs(c)
		if err != nil {
			t.Fatalf("%s: ScorePairs: %v", name, err)
		}
		alphas := []float64{0.05, 0.05 / float64(len(scored)), 1e-12, 0.5}
		for k := 0; k < len(scored); k += 1 + len(scored)/40 {
			alphas = append(alphas, scored[k].PValue)
		}
		for _, alpha := range alphas {
			var want, got [][2]int
			for _, p := range scored {
				if p.PValue <= alpha {
					want = append(want, [2]int{p.I, p.J})
				}
			}
			if err := ScreenPairs(c, alpha, func(i, j int) { got = append(got, [2]int{i, j}) }); err != nil {
				t.Fatalf("%s: ScreenPairs: %v", name, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s alpha %g: kept %d pairs, p-values keep %d", name, alpha, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("%s alpha %g: kept pair %d is %v, want %v", name, alpha, k, got[k], want[k])
				}
			}
		}
	}
}

// TestScreenPairsValidation: the screen refuses what ScorePairs refuses.
func TestScreenPairsValidation(t *testing.T) {
	keep := func(i, j int) { t.Errorf("kept (%d, %d) of an invalid table", i, j) }
	if err := ScreenPairs(contingency.MustNew(nil, []int{2, 2}), 0.05, keep); err == nil {
		t.Error("empty table accepted")
	}
	one := contingency.MustNew(nil, []int{4})
	one.Set(5, 0)
	if err := ScreenPairs(one, 0.05, keep); err == nil {
		t.Error("single attribute accepted")
	}
}
