package stats

import (
	"math"
	"testing"
	"testing/quick"
)

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
			sum += math.Exp(b.LogPMF(k))
		}
		if !almostEqual(sum, 1, 1e-9) {
			t.Errorf("pmf(N=%d,p=%g) sums to %g", tc.n, tc.p, sum)
		}
	}
}

func TestBinomialDegenerate(t *testing.T) {
	b := Binomial{N: 5, P: 0}
	if b.LogPMF(0) != 0 || !math.IsInf(b.LogPMF(1), -1) {
		t.Error("p=0 should put all mass on n=0")
	}
	b = Binomial{N: 5, P: 1}
	if b.LogPMF(5) != 0 || !math.IsInf(b.LogPMF(4), -1) {
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
