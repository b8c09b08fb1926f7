package stats

import (
	"fmt"
	"math"
)

// LogGamma returns ln Γ(x) for x > 0.
//
// It is a thin wrapper over math.Lgamma that panics on the domain where the
// gamma function is negative or undefined, because every caller in this
// module passes positive arguments and a silent sign change would corrupt
// message-length arithmetic.
func LogGamma(x float64) float64 {
	v, sign := math.Lgamma(x)
	if sign < 0 {
		panic(fmt.Sprintf("stats: LogGamma called with x=%g where Γ(x) < 0", x))
	}
	return v
}

// LogFactorial returns ln(n!) computed as ln Γ(n+1).
//
// Small n (below the memo table size) are served from a precomputed table so
// significance scans over thousands of cells do not pay the Lgamma cost.
func LogFactorial(n int64) float64 {
	if n < 0 {
		panic(fmt.Sprintf("stats: LogFactorial of negative n=%d", n))
	}
	if n < int64(len(logFactTable)) {
		return logFactTable[n]
	}
	return LogGamma(float64(n) + 1)
}

// logFactTable caches ln(n!) for n = 0..255.
var logFactTable = func() [256]float64 {
	var t [256]float64
	acc := 0.0
	for n := 1; n < len(t); n++ {
		acc += math.Log(float64(n))
		t[n] = acc
	}
	return t
}()

// LogChoose returns ln C(n, k), the log binomial coefficient.
// It returns -Inf when k < 0 or k > n (the coefficient is zero).
func LogChoose(n, k int64) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	if k == 0 || k == n {
		return 0
	}
	return LogFactorial(n) - LogFactorial(k) - LogFactorial(n-k)
}
