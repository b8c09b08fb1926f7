package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLogFactorialSmall(t *testing.T) {
	want := []float64{1, 1, 2, 6, 24, 120, 720, 5040, 40320, 362880, 3628800}
	for n, w := range want {
		got := math.Exp(LogFactorial(int64(n)))
		if !relEqual(got, w, 1e-12) {
			t.Errorf("exp(LogFactorial(%d)) = %g, want %g", n, got, w)
		}
	}
}

func TestLogFactorialTableMatchesLgamma(t *testing.T) {
	// The cached table and the Lgamma path must agree across the boundary.
	for _, n := range []int64{0, 1, 127, 254, 255, 256, 257, 1000, 100000} {
		direct, _ := math.Lgamma(float64(n) + 1)
		if !relEqual(LogFactorial(n), direct, 1e-14) {
			t.Errorf("LogFactorial(%d) = %v, Lgamma = %v", n, LogFactorial(n), direct)
		}
	}
}

func TestLogFactorialNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("LogFactorial(-1) did not panic")
		}
	}()
	LogFactorial(-1)
}

func TestLogChooseKnownValues(t *testing.T) {
	cases := []struct {
		n, k int64
		want float64
	}{
		{5, 2, 10},
		{10, 3, 120},
		{52, 5, 2598960},
		{0, 0, 1},
		{7, 0, 1},
		{7, 7, 1},
	}
	for _, c := range cases {
		got := math.Exp(LogChoose(c.n, c.k))
		if !relEqual(got, c.want, 1e-10) {
			t.Errorf("C(%d,%d) = %g, want %g", c.n, c.k, got, c.want)
		}
	}
}

func TestLogChooseOutOfRange(t *testing.T) {
	if !math.IsInf(LogChoose(5, 6), -1) {
		t.Error("C(5,6) should have log -Inf")
	}
	if !math.IsInf(LogChoose(5, -1), -1) {
		t.Error("C(5,-1) should have log -Inf")
	}
}

func TestLogChooseSymmetryProperty(t *testing.T) {
	// C(n,k) == C(n,n-k) for all valid n,k.
	f := func(n uint16, k uint16) bool {
		nn := int64(n%2000) + 1
		kk := int64(k) % (nn + 1)
		return almostEqual(LogChoose(nn, kk), LogChoose(nn, nn-kk), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogChoosePascalProperty(t *testing.T) {
	// C(n,k) = C(n-1,k-1) + C(n-1,k) in linear space for modest n.
	f := func(n uint8, k uint8) bool {
		nn := int64(n%60) + 2
		kk := int64(k)%(nn-1) + 1
		lhs := math.Exp(LogChoose(nn, kk))
		rhs := math.Exp(LogChoose(nn-1, kk-1)) + math.Exp(LogChoose(nn-1, kk))
		return relEqual(lhs, rhs, 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
