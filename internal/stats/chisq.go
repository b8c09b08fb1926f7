package stats

import (
	"fmt"
	"math"
)

// ChiSquareStat returns Pearson's X² = Σ (obs - exp)² / exp over the cells,
// skipping cells with zero expectation (those contribute +Inf only when the
// observation is nonzero, which we surface explicitly).
//
// It is the classic 1900-era significance machinery the memo's MML criterion
// replaces; the association screen still uses it.
func ChiSquareStat(observed []int64, expected []float64) (float64, error) {
	if len(observed) != len(expected) {
		return 0, fmt.Errorf("stats: chi-square length mismatch %d vs %d",
			len(observed), len(expected))
	}
	x2 := 0.0
	for i, o := range observed {
		e := expected[i]
		if e <= 0 {
			if o != 0 {
				return math.Inf(1), nil
			}
			continue
		}
		d := float64(o) - e
		x2 += d * d / e
	}
	return x2, nil
}

// GStat returns the likelihood-ratio statistic G² = 2 Σ obs · ln(obs/exp),
// the deviance twin of Pearson's X². Cells with zero observation contribute
// zero; zero expectation with nonzero observation yields +Inf.
func GStat(observed []int64, expected []float64) (float64, error) {
	if len(observed) != len(expected) {
		return 0, fmt.Errorf("stats: G-stat length mismatch %d vs %d",
			len(observed), len(expected))
	}
	g := 0.0
	for i, o := range observed {
		if o == 0 {
			continue
		}
		e := expected[i]
		if e <= 0 {
			return math.Inf(1), nil
		}
		g += float64(o) * math.Log(float64(o)/e)
	}
	return 2 * g, nil
}

// ChiSquareCDF returns P(X <= x) for a chi-square distribution with k degrees
// of freedom, i.e. the regularized lower incomplete gamma P(k/2, x/2).
func ChiSquareCDF(x float64, k int) float64 {
	if x <= 0 || k <= 0 {
		return 0
	}
	return RegLowerGamma(float64(k)/2, x/2)
}

// ChiSquareSF returns the survival function P(X > x) — the p-value of a
// chi-square test statistic x with k degrees of freedom.
func ChiSquareSF(x float64, k int) float64 {
	return 1 - ChiSquareCDF(x, k)
}

// RegLowerGamma computes the regularized lower incomplete gamma function
// P(a, x) = γ(a, x)/Γ(a) using the series expansion for x < a+1 and the
// continued fraction for x >= a+1 (Numerical-Recipes style, stdlib only).
func RegLowerGamma(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 0
	}
	if x < a+1 {
		return gammaSeries(a, x)
	}
	return 1 - gammaContinuedFraction(a, x)
}

func gammaSeries(a, x float64) float64 {
	const (
		maxIter = 1000
		eps     = 1e-15
	)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < maxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*eps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-LogGamma(a))
}

func gammaContinuedFraction(a, x float64) float64 {
	const (
		maxIter = 1000
		eps     = 1e-15
		tiny    = 1e-300
	)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= maxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-LogGamma(a)) * h
}
