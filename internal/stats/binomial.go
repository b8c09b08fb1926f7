package stats

import "math"

// Binomial is the distribution of Eq. 32 of the memo: the number of
// occurrences of a cell among N samples when each sample lands in the cell
// independently with probability P.
//
//	P(n | p, N) = C(N, n) p^n (1-p)^(N-n)
//
// Construct it as a literal: N must be non-negative and P must lie in
// [0, 1].
type Binomial struct {
	N int64   // total number of samples
	P float64 // per-sample cell probability
}

// Mean returns N·p, the predicted mean of Eq. 33.
func (b Binomial) Mean() float64 { return float64(b.N) * b.P }

// Variance returns N·p·(1-p).
func (b Binomial) Variance() float64 { return float64(b.N) * b.P * (1 - b.P) }

// SD returns sqrt(N·p·(1-p)), the standard deviation of Eq. 34.
func (b Binomial) SD() float64 { return math.Sqrt(b.Variance()) }

// LogPMF returns ln P(n | p, N) computed stably in log space.
// Out-of-range n yields -Inf. Degenerate p (0 or 1) is handled exactly.
func (b Binomial) LogPMF(n int64) float64 {
	if n < 0 || n > b.N {
		return math.Inf(-1)
	}
	switch {
	case b.P == 0:
		if n == 0 {
			return 0
		}
		return math.Inf(-1)
	case b.P == 1:
		if n == b.N {
			return 0
		}
		return math.Inf(-1)
	}
	return LogChoose(b.N, n) +
		float64(n)*math.Log(b.P) +
		float64(b.N-n)*math.Log1p(-b.P)
}

// ZScore returns (n - mean)/sd, the "No. of sd's" column of the memo's
// Table 1. It returns 0 when the distribution is degenerate (sd == 0 and the
// observation equals the mean) and ±Inf when sd == 0 and it does not.
func (b Binomial) ZScore(n int64) float64 {
	sd := b.SD()
	diff := float64(n) - b.Mean()
	if sd == 0 {
		if diff == 0 {
			return 0
		}
		return math.Inf(sign(diff))
	}
	return diff / sd
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}
