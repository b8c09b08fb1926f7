package stats

import "math"

// almostEqual reports whether a and b agree within absolute tolerance tol,
// treating equal infinities as equal.
func almostEqual(a, b, tol float64) bool {
	if math.IsInf(a, 0) && a == b {
		return true
	}
	return math.Abs(a-b) <= tol
}

// relEqual reports whether a and b agree within relative tolerance rel,
// falling back to absolute comparison near zero.
func relEqual(a, b, rel float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1e-12 {
		return math.Abs(a-b) <= rel
	}
	return math.Abs(a-b) <= rel*scale
}
