package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestChiSquareStatHandWorked(t *testing.T) {
	// Classic 2x2: observed [10 20 30 40], expected under independence
	// row sums 30,70; col sums 40,60; N=100 -> e = [12 18 28 42].
	obs := []int64{10, 20, 30, 40}
	exp := []float64{12, 18, 28, 42}
	x2, err := ChiSquareStat(obs, exp)
	if err != nil {
		t.Fatal(err)
	}
	want := 4.0/12 + 4.0/18 + 4.0/28 + 4.0/42
	if !almostEqual(x2, want, 1e-12) {
		t.Errorf("X² = %g, want %g", x2, want)
	}
}

func TestChiSquareStatZeroExpectation(t *testing.T) {
	x2, err := ChiSquareStat([]int64{5}, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(x2, 1) {
		t.Errorf("nonzero obs on zero exp should be +Inf, got %g", x2)
	}
	x2, err = ChiSquareStat([]int64{0}, []float64{0})
	if err != nil || x2 != 0 {
		t.Errorf("zero obs on zero exp should contribute 0, got %g err %v", x2, err)
	}
}

func TestChiSquareStatLengthMismatch(t *testing.T) {
	if _, err := ChiSquareStat([]int64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := GStat([]int64{1}, []float64{1, 2}); err == nil {
		t.Error("G-stat length mismatch accepted")
	}
}

func TestGStatZeroWhenExact(t *testing.T) {
	obs := []int64{10, 20, 30}
	exp := []float64{10, 20, 30}
	g, err := GStat(obs, exp)
	if err != nil || !almostEqual(g, 0, 1e-12) {
		t.Errorf("G² on exact fit = %g err %v", g, err)
	}
}

func TestGStatApproximatesChiSquareNearFit(t *testing.T) {
	// For small deviations G² ≈ X².
	obs := []int64{101, 99, 100}
	exp := []float64{100, 100, 100}
	g, _ := GStat(obs, exp)
	x2, _ := ChiSquareStat(obs, exp)
	if !almostEqual(g, x2, 0.01) {
		t.Errorf("G²=%g and X²=%g should nearly agree near the fit", g, x2)
	}
}

func TestChiSquareCDFKnownValues(t *testing.T) {
	// k=2: CDF(x) = 1 - exp(-x/2).
	for _, x := range []float64{0.5, 1, 2, 5} {
		want := 1 - math.Exp(-x/2)
		if got := ChiSquareCDF(x, 2); !almostEqual(got, want, 1e-10) {
			t.Errorf("ChiSquareCDF(%g, 2) = %g, want %g", x, got, want)
		}
	}
	// Standard critical value: P(X > 3.841) = 0.05 for k=1.
	if sf := ChiSquareSF(3.841, 1); !almostEqual(sf, 0.05, 5e-4) {
		t.Errorf("SF(3.841, 1) = %g, want ~0.05", sf)
	}
	// P(X > 5.991) = 0.05 for k=2.
	if sf := ChiSquareSF(5.991, 2); !almostEqual(sf, 0.05, 5e-4) {
		t.Errorf("SF(5.991, 2) = %g, want ~0.05", sf)
	}
}

func TestChiSquareCDFBounds(t *testing.T) {
	if ChiSquareCDF(-1, 3) != 0 || ChiSquareCDF(0, 3) != 0 {
		t.Error("CDF at or below 0 should be 0")
	}
	if ChiSquareCDF(1, 0) != 0 {
		t.Error("CDF with k<=0 should be 0")
	}
	if got := ChiSquareCDF(1e6, 3); !almostEqual(got, 1, 1e-12) {
		t.Errorf("CDF far right = %g, want 1", got)
	}
}

func TestChiSquareCDFMonotoneProperty(t *testing.T) {
	f := func(xSeed uint16, kSeed uint8) bool {
		x := float64(xSeed) / 100
		k := int(kSeed%20) + 1
		return ChiSquareCDF(x, k) <= ChiSquareCDF(x+0.5, k)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegLowerGammaKnownValues(t *testing.T) {
	// P(1, x) = 1 - e^{-x}.
	for _, x := range []float64{0.1, 1, 3, 10} {
		want := 1 - math.Exp(-x)
		if got := RegLowerGamma(1, x); !almostEqual(got, want, 1e-10) {
			t.Errorf("P(1,%g) = %g, want %g", x, got, want)
		}
	}
	if !math.IsNaN(RegLowerGamma(-1, 1)) {
		t.Error("negative a should yield NaN")
	}
	if RegLowerGamma(2, 0) != 0 {
		t.Error("P(a,0) should be 0")
	}
}
