package stats

import (
	"fmt"
	"math"
)

// Entropy returns H(p) = -Σ p_i ln p_i in nats (Eq. 7 of the memo).
// Zero entries contribute zero by the usual 0·ln 0 = 0 convention.
// The distribution need not be normalized; callers that care should
// normalize first (see Normalize).
func Entropy(p []float64) float64 {
	h := 0.0
	for _, v := range p {
		if v > 0 {
			h -= v * math.Log(v)
		}
	}
	return h
}

// MaxEntropy returns ln(k), the entropy of the uniform distribution over k
// outcomes — the upper bound the maximum-entropy principle pushes toward in
// the absence of constraints.
func MaxEntropy(k int) float64 {
	if k <= 0 {
		return 0
	}
	return math.Log(float64(k))
}

// KLDivergence returns D(p ‖ q) = Σ p_i ln(p_i / q_i) in nats.
// It returns +Inf when some p_i > 0 has q_i == 0 (absolute-continuity
// violation) and an error when the slices differ in length.
func KLDivergence(p, q []float64) (float64, error) {
	if len(p) != len(q) {
		return 0, fmt.Errorf("stats: KL length mismatch %d vs %d", len(p), len(q))
	}
	d := 0.0
	for i, pi := range p {
		if pi <= 0 {
			continue
		}
		if q[i] <= 0 {
			return math.Inf(1), nil
		}
		d += pi * math.Log(pi/q[i])
	}
	// Numerical noise can drive the sum infinitesimally negative.
	if d < 0 && d > -1e-12 {
		d = 0
	}
	return d, nil
}

// CrossEntropy returns -Σ p_i ln q_i in nats, +Inf when q lacks support.
func CrossEntropy(p, q []float64) (float64, error) {
	if len(p) != len(q) {
		return 0, fmt.Errorf("stats: cross-entropy length mismatch %d vs %d", len(p), len(q))
	}
	h := 0.0
	for i, pi := range p {
		if pi <= 0 {
			continue
		}
		if q[i] <= 0 {
			return math.Inf(1), nil
		}
		h -= pi * math.Log(q[i])
	}
	return h, nil
}

// MutualInformation returns I(X;Y) in nats for a joint distribution laid out
// row-major as joint[x*ny + y]. It computes the marginals itself.
func MutualInformation(joint []float64, nx, ny int) (float64, error) {
	if nx <= 0 || ny <= 0 || len(joint) != nx*ny {
		return 0, fmt.Errorf("stats: mutual information wants %dx%d=%d cells, got %d",
			nx, ny, nx*ny, len(joint))
	}
	// Small tables (every pair screen of low-cardinality attributes) keep
	// their marginals on the stack.
	var buf [16]float64
	var px, py []float64
	if nx+ny <= len(buf) {
		px, py = buf[:nx], buf[nx:nx+ny]
	} else {
		px, py = make([]float64, nx), make([]float64, ny)
	}
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			v := joint[x*ny+y]
			px[x] += v
			py[y] += v
		}
	}
	mi := 0.0
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			v := joint[x*ny+y]
			if v <= 0 {
				continue
			}
			mi += v * math.Log(v/(px[x]*py[y]))
		}
	}
	if mi < 0 && mi > -1e-12 {
		mi = 0
	}
	return mi, nil
}

// Normalize scales p in place so it sums to 1 and returns the original sum.
// It returns an error if the sum is zero, negative, or not finite.
func Normalize(p []float64) (float64, error) {
	sum := 0.0
	for _, v := range p {
		if v < 0 || math.IsNaN(v) {
			return 0, fmt.Errorf("stats: cannot normalize distribution containing %g", v)
		}
		sum += v
	}
	if sum <= 0 || math.IsInf(sum, 0) {
		return 0, fmt.Errorf("stats: cannot normalize distribution with sum %g", sum)
	}
	for i := range p {
		p[i] /= sum
	}
	return sum, nil
}

// TotalVariation returns (1/2) Σ |p_i - q_i|, a bounded distance in [0,1]
// used by the recovery benches to compare fitted and true joints.
func TotalVariation(p, q []float64) (float64, error) {
	if len(p) != len(q) {
		return 0, fmt.Errorf("stats: TV length mismatch %d vs %d", len(p), len(q))
	}
	s := 0.0
	for i := range p {
		s += math.Abs(p[i] - q[i])
	}
	return s / 2, nil
}
