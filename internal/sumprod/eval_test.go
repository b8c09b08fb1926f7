package sumprod

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// memoFirstOrderTerms builds the first-order a-values of the memo's example
// (Eq. 60): a^A = (.38,.33,.29), a^B = (.13,.87), a^C = (.52,.48) over a
// 3×2×2 space.
func memoFirstOrderTerms() ([]int, []Term) {
	cards := []int{3, 2, 2}
	terms := []Term{
		{Vars: []int{0}, Coeffs: []float64{0.38, 0.33, 0.29}},
		{Vars: []int{1}, Coeffs: []float64{0.13, 0.87}},
		{Vars: []int{2}, Coeffs: []float64{0.52, 0.48}},
	}
	return cards, terms
}

func TestTermValidate(t *testing.T) {
	cards := []int{3, 2, 2}
	bad := []Term{
		{Vars: nil, Coeffs: []float64{1}},
		{Vars: []int{1, 0}, Coeffs: []float64{1, 1, 1, 1, 1, 1}},
		{Vars: []int{0, 0}, Coeffs: []float64{1, 1, 1, 1, 1, 1, 1, 1, 1}},
		{Vars: []int{3}, Coeffs: []float64{1}},
		{Vars: []int{0}, Coeffs: []float64{1, 1}}, // wrong size
	}
	for i, term := range bad {
		if err := term.Validate(cards); err == nil {
			t.Errorf("bad term %d accepted", i)
		}
	}
	good := Term{Vars: []int{0, 2}, Coeffs: make([]float64, 6)}
	if err := good.Validate(cards); err != nil {
		t.Errorf("good term rejected: %v", err)
	}
}

func TestNewEvaluatorValidation(t *testing.T) {
	if _, err := NewEvaluator(nil, nil); err == nil {
		t.Error("empty cards accepted")
	}
	if _, err := NewEvaluator([]int{0}, nil); err == nil {
		t.Error("zero cardinality accepted")
	}
	if _, err := NewEvaluator([]int{2}, []Term{{Vars: []int{5}, Coeffs: []float64{1}}}); err == nil {
		t.Error("invalid term accepted")
	}
}

func TestSumMatchesMemoNormalization(t *testing.T) {
	// With first-order probabilities as a-values, Σ = (Σa^A)(Σa^B)(Σa^C) = 1.
	cards, terms := memoFirstOrderTerms()
	e, err := NewEvaluator(cards, terms)
	if err != nil {
		t.Fatal(err)
	}
	want := (0.38 + 0.33 + 0.29) * (0.13 + 0.87) * (0.52 + 0.48)
	if got := e.Sum(); !almostEqual(got, want, 1e-12) {
		t.Errorf("Sum = %g, want %g", got, want)
	}
}

func TestSumAgainstFullJoint(t *testing.T) {
	cards := []int{3, 2, 2}
	terms := []Term{
		{Vars: []int{0}, Coeffs: []float64{0.5, 1.5, 2}},
		{Vars: []int{1}, Coeffs: []float64{0.9, 1.1}},
		{Vars: []int{0, 2}, Coeffs: []float64{1, 2, 3, 4, 5, 6}},
		{Vars: []int{1, 2}, Coeffs: []float64{0.25, 4, 1, 1}},
		{Vars: []int{0, 1, 2}, Coeffs: []float64{1, 1, 2, 1, 1, 1, 1, 3, 1, 1, 1, 1}},
	}
	e, err := NewEvaluator(cards, terms)
	if err != nil {
		t.Fatal(err)
	}
	brute := 0.0
	for _, v := range e.FullJoint() {
		brute += v
	}
	if got := e.Sum(); !almostEqual(got, brute, 1e-9*math.Abs(brute)+1e-12) {
		t.Errorf("recursive Sum = %g, brute force = %g", got, brute)
	}
}

func TestSumFixedAgainstBruteForce(t *testing.T) {
	cards := []int{3, 2, 2}
	terms := []Term{
		{Vars: []int{0}, Coeffs: []float64{0.5, 1.5, 2}},
		{Vars: []int{0, 2}, Coeffs: []float64{1, 2, 3, 4, 5, 6}},
		{Vars: []int{1, 2}, Coeffs: []float64{0.25, 4, 1, 1}},
	}
	e, err := NewEvaluator(cards, terms)
	if err != nil {
		t.Fatal(err)
	}
	joint := e.FullJoint()
	// Clamp attribute 0 = 1 and attribute 2 = 0 (cells i=1, k=0, any j).
	brute := 0.0
	for j := 0; j < 2; j++ {
		off := 1*(2*2) + j*2 + 0
		brute += joint[off]
	}
	got := e.SumFixed([]int{1, -1, 0})
	if !almostEqual(got, brute, 1e-12) {
		t.Errorf("SumFixed = %g, brute = %g", got, brute)
	}
	// fixed shorter than cards: tail free.
	got = e.SumFixed([]int{1})
	brute = 0.0
	for off := 4; off < 8; off++ {
		brute += joint[off]
	}
	if !almostEqual(got, brute, 1e-12) {
		t.Errorf("SumFixed(short) = %g, brute = %g", got, brute)
	}
	// Nothing fixed equals Sum.
	if !almostEqual(e.SumFixed(nil), e.Sum(), 1e-12) {
		t.Error("SumFixed(nil) != Sum()")
	}
}

func TestSumFixedAllClampedIsSingleCell(t *testing.T) {
	cards, terms := memoFirstOrderTerms()
	e, err := NewEvaluator(cards, terms)
	if err != nil {
		t.Fatal(err)
	}
	got := e.SumFixed([]int{2, 1, 0})
	want := 0.29 * 0.87 * 0.52
	if !almostEqual(got, want, 1e-12) {
		t.Errorf("fully clamped = %g, want %g", got, want)
	}
}

func TestRecursiveMatchesBruteProperty(t *testing.T) {
	// For random coefficient sets over a 2×3×2 space with random term
	// structures, the recursion equals brute-force summation.
	f := func(c1, c2, c3 [6]uint8, pick uint8) bool {
		cards := []int{2, 3, 2}
		mk := func(raw []uint8, n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = float64(raw[i%len(raw)])/32 + 0.05
			}
			return out
		}
		var terms []Term
		if pick&1 != 0 {
			terms = append(terms, Term{Vars: []int{0}, Coeffs: mk(c1[:], 2)})
		}
		if pick&2 != 0 {
			terms = append(terms, Term{Vars: []int{1}, Coeffs: mk(c2[:], 3)})
		}
		if pick&4 != 0 {
			terms = append(terms, Term{Vars: []int{0, 1}, Coeffs: mk(c1[:], 6)})
		}
		if pick&8 != 0 {
			terms = append(terms, Term{Vars: []int{1, 2}, Coeffs: mk(c3[:], 6)})
		}
		if pick&16 != 0 {
			terms = append(terms, Term{Vars: []int{0, 2}, Coeffs: mk(c2[:], 4)})
		}
		e, err := NewEvaluator(cards, terms)
		if err != nil {
			return false
		}
		brute := 0.0
		for _, v := range e.FullJoint() {
			brute += v
		}
		return almostEqual(e.Sum(), brute, 1e-9*brute+1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNoTermsSumsCellCount(t *testing.T) {
	// With no terms every cell contributes 1.
	e, err := NewEvaluator([]int{3, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Sum(); !almostEqual(got, 12, 1e-12) {
		t.Errorf("empty-term Sum = %g, want 12", got)
	}
}

func TestAppendixBChainEvaluation(t *testing.T) {
	// Reproduce Eq. 89's grouped evaluation by hand for the memo's 3×2×2
	// example using pairwise AB and BC terms, and check it against the
	// Evaluator.
	cards := []int{3, 2, 2}
	aA := []float64{0.38, 0.33, 0.29}
	aB := []float64{0.13, 0.87}
	aC := []float64{0.52, 0.48}
	aAB := []float64{1.1, 0.9, 1, 1, 0.8, 1.2} // 3×2
	aBC := []float64{1.05, 0.95, 1, 1}         // 2×2
	terms := []Term{
		{Vars: []int{0}, Coeffs: aA},
		{Vars: []int{1}, Coeffs: aB},
		{Vars: []int{2}, Coeffs: aC},
		{Vars: []int{0, 1}, Coeffs: aAB},
		{Vars: []int{1, 2}, Coeffs: aBC},
	}
	e, err := NewEvaluator(cards, terms)
	if err != nil {
		t.Fatal(err)
	}
	// Grouped chain: Σ_i a_i Σ_j a_j a_ij Σ_k a_k a_jk.
	// Inner: for each j, inner_j = Σ_k a_k * a_jk.
	inner := make([]float64, 2)
	for j := 0; j < 2; j++ {
		for k := 0; k < 2; k++ {
			inner[j] += aC[k] * aBC[j*2+k]
		}
	}
	total := 0.0
	for i := 0; i < 3; i++ {
		mid := 0.0
		for j := 0; j < 2; j++ {
			mid += aB[j] * aAB[i*2+j] * inner[j]
		}
		total += aA[i] * mid
	}
	if got := e.Sum(); !almostEqual(got, total, 1e-12) {
		t.Errorf("Evaluator Sum = %g, hand chain = %g", got, total)
	}
}
