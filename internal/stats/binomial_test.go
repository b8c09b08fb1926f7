package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewBinomialValidation(t *testing.T) {
	if _, err := NewBinomial(-1, 0.5); err == nil {
		t.Error("negative N accepted")
	}
	if _, err := NewBinomial(10, -0.1); err == nil {
		t.Error("negative P accepted")
	}
	if _, err := NewBinomial(10, 1.1); err == nil {
		t.Error("P > 1 accepted")
	}
	if _, err := NewBinomial(10, math.NaN()); err == nil {
		t.Error("NaN P accepted")
	}
	if _, err := NewBinomial(10, 0.5); err != nil {
		t.Errorf("valid binomial rejected: %v", err)
	}
}

func TestBinomialMomentsMatchMemoTable1(t *testing.T) {
	// Memo Table 1, row N^AB_11: N=3428, p=.048 -> mean 165, sd 12.5.
	b := Binomial{N: 3428, P: 0.048}
	if !almostEqual(b.Mean(), 164.5, 0.1) {
		t.Errorf("mean = %g, memo rounds to 165", b.Mean())
	}
	if !almostEqual(b.SD(), 12.5, 0.05) {
		t.Errorf("sd = %g, memo says 12.5", b.SD())
	}
	// Row N^AC_11: p=.195 -> mean 668, sd 23.2.
	b = Binomial{N: 3428, P: 0.195}
	if !almostEqual(b.Mean(), 668.5, 0.1) {
		t.Errorf("mean = %g, memo says 668", b.Mean())
	}
	if !almostEqual(b.SD(), 23.2, 0.05) {
		t.Errorf("sd = %g, memo says 23.2", b.SD())
	}
}

func TestBinomialZScoreMatchesMemo(t *testing.T) {
	// Memo Table 1: N^AB_11 observed 240 vs mean 165 -> 6.03 sd.
	b := Binomial{N: 3428, P: 0.048}
	if z := b.ZScore(240); !almostEqual(z, 6.03, 0.05) {
		t.Errorf("z(240) = %g, memo says 6.03", z)
	}
	// N^AC_11 observed 540 -> -5.54 sd.
	b = Binomial{N: 3428, P: 0.195}
	if z := b.ZScore(540); !almostEqual(z, -5.54, 0.05) {
		t.Errorf("z(540) = %g, memo says -5.54", z)
	}
}

func TestBinomialPMFSumsToOne(t *testing.T) {
	for _, tc := range []struct {
		n int64
		p float64
	}{{10, 0.3}, {100, 0.05}, {1, 0.999}, {50, 0.5}} {
		b := Binomial{N: tc.n, P: tc.p}
		sum := 0.0
		for k := int64(0); k <= tc.n; k++ {
			sum += b.PMF(k)
		}
		if !almostEqual(sum, 1, 1e-9) {
			t.Errorf("pmf(N=%d,p=%g) sums to %g", tc.n, tc.p, sum)
		}
	}
}

func TestBinomialDegenerate(t *testing.T) {
	b := Binomial{N: 5, P: 0}
	if b.PMF(0) != 1 || b.PMF(1) != 0 {
		t.Error("p=0 should put all mass on n=0")
	}
	b = Binomial{N: 5, P: 1}
	if b.PMF(5) != 1 || b.PMF(4) != 0 {
		t.Error("p=1 should put all mass on n=N")
	}
	if !math.IsInf(b.LogPMF(3), -1) {
		t.Error("log pmf off-support should be -Inf")
	}
	if b.ZScore(5) != 0 {
		t.Error("z-score at the degenerate mean should be 0")
	}
	if !math.IsInf(b.ZScore(3), -1) {
		t.Error("z-score off the degenerate mean should be -Inf")
	}
}

func TestBinomialOutOfSupport(t *testing.T) {
	b := Binomial{N: 10, P: 0.4}
	if !math.IsInf(b.LogPMF(-1), -1) || !math.IsInf(b.LogPMF(11), -1) {
		t.Error("out-of-support log pmf should be -Inf")
	}
	if b.CDF(-1) != 0 {
		t.Error("CDF below support should be 0")
	}
	if b.CDF(10) != 1 {
		t.Error("CDF at N should be 1")
	}
}

func TestBinomialCDFMatchesDirectSum(t *testing.T) {
	// Exercise both the direct-sum and incomplete-beta code paths.
	for _, n := range []int64{100, 5000} {
		b := Binomial{N: n, P: 0.13}
		for _, k := range []int64{0, n / 100, n / 10, n / 2, n - 1} {
			direct := 0.0
			for j := int64(0); j <= k; j++ {
				direct += b.PMF(j)
			}
			if direct > 1 {
				direct = 1
			}
			got := b.CDF(k)
			if !almostEqual(got, direct, 1e-8) {
				t.Errorf("N=%d CDF(%d) = %.12f, direct sum %.12f", n, k, got, direct)
			}
		}
	}
}

func TestBinomialCDFMonotoneProperty(t *testing.T) {
	f := func(nSeed uint16, pSeed uint8, k uint16) bool {
		n := int64(nSeed%500) + 1
		p := float64(pSeed%100) / 100
		b := Binomial{N: n, P: p}
		k1 := int64(k) % (n + 1)
		if k1 == n {
			return true
		}
		return b.CDF(k1) <= b.CDF(k1+1)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinomialLogPMFNeverPositive(t *testing.T) {
	f := func(nSeed uint16, pSeed uint8, k uint16) bool {
		n := int64(nSeed%2000) + 1
		p := float64(pSeed)/256*0.998 + 0.001
		b := Binomial{N: n, P: p}
		return b.LogPMF(int64(k)%(n+1)) <= 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTailProbBounds(t *testing.T) {
	b := Binomial{N: 1000, P: 0.2}
	// At the mean the two-sided tail must be (essentially) 1.
	if p := b.TailProb(200); p < 0.95 {
		t.Errorf("tail at mean = %g, want ~1", p)
	}
	// Far in the tail it must be tiny.
	if p := b.TailProb(400); p > 1e-10 {
		t.Errorf("tail at 400 (mean 200) = %g, want ~0", p)
	}
	// Monotone: farther observation, smaller tail.
	if b.TailProb(260) > b.TailProb(250) {
		t.Error("tail probability should shrink with distance from the mean")
	}
}

func TestRegIncBetaKnownValues(t *testing.T) {
	// I_x(1,1) = x (uniform CDF).
	for _, x := range []float64{0.1, 0.5, 0.9} {
		if got := RegIncBeta(1, 1, x); !almostEqual(got, x, 1e-10) {
			t.Errorf("I_%g(1,1) = %g", x, got)
		}
	}
	// I_x(2,2) = 3x² - 2x³.
	for _, x := range []float64{0.25, 0.5, 0.75} {
		want := 3*x*x - 2*x*x*x
		if got := RegIncBeta(2, 2, x); !almostEqual(got, want, 1e-10) {
			t.Errorf("I_%g(2,2) = %g, want %g", x, got, want)
		}
	}
	if RegIncBeta(3, 4, 0) != 0 || RegIncBeta(3, 4, 1) != 1 {
		t.Error("boundary values of RegIncBeta wrong")
	}
}
