package maxent

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"pka/internal/contingency"
)

// memoTable reconstructs the memo's Figure 1 data.
func memoTable(t testing.TB) *contingency.Table {
	t.Helper()
	tab := contingency.MustNew([]string{"A", "B", "C"}, []int{3, 2, 2})
	data := [3][2][2]int64{
		{{130, 110}, {410, 640}},
		{{62, 31}, {580, 460}},
		{{78, 22}, {520, 385}},
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			for k := 0; k < 2; k++ {
				if err := tab.Set(data[i][j][k], i, j, k); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return tab
}

// firstOrderModel builds and fits the memo's starting model (Eq. 48-60).
func firstOrderModel(t testing.TB) *Model {
	t.Helper()
	tab := memoTable(t)
	m, err := NewModel(tab.Names(), tab.Cards())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddFirstOrderConstraints(tab); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Fit(SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewModelValidation(t *testing.T) {
	if _, err := NewModel(nil, nil); err == nil {
		t.Error("no attributes accepted")
	}
	if _, err := NewModel(nil, []int{0}); err == nil {
		t.Error("zero cardinality accepted")
	}
	if _, err := NewModel([]string{"A"}, []int{2, 2}); err == nil {
		t.Error("name mismatch accepted")
	}
	// Wide joint spaces are accepted: they are served by the factored
	// engine and never materialized.
	if _, err := NewModel(nil, []int{1 << 15, 1 << 15}); err != nil {
		t.Errorf("wide joint rejected: %v", err)
	}
	m, err := NewModel(nil, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.R() != 2 || m.NumCells() != 6 || m.A0() != 1 {
		t.Errorf("fresh model: R=%d cells=%d a0=%g", m.R(), m.NumCells(), m.A0())
	}
}

func TestAddConstraintValidation(t *testing.T) {
	m, _ := NewModel(nil, []int{3, 2})
	bad := []Constraint{
		{Family: contingency.VarSet{}, Values: nil, Target: 0.5},
		{Family: contingency.NewVarSet(5), Values: []int{0}, Target: 0.5},
		{Family: contingency.NewVarSet(0), Values: []int{0, 1}, Target: 0.5},
		{Family: contingency.NewVarSet(0), Values: []int{9}, Target: 0.5},
		{Family: contingency.NewVarSet(0), Values: []int{0}, Target: -0.1},
		{Family: contingency.NewVarSet(0), Values: []int{0}, Target: 1.1},
	}
	for i, c := range bad {
		if err := m.AddConstraint(c); err == nil {
			t.Errorf("bad constraint %d accepted", i)
		}
	}
	good := Constraint{Family: contingency.NewVarSet(0), Values: []int{0}, Target: 0.4}
	if err := m.AddConstraint(good); err != nil {
		t.Fatalf("good constraint rejected: %v", err)
	}
	if err := m.AddConstraint(good); err == nil {
		t.Error("duplicate constraint accepted")
	}
	if !m.HasConstraint(good.Family, good.Values) {
		t.Error("HasConstraint missed a registered constraint")
	}
	if m.HasConstraint(good.Family, []int{1}) {
		t.Error("HasConstraint reported an absent constraint")
	}
}

func TestConstraintLabel(t *testing.T) {
	c := Constraint{
		Family: contingency.NewVarSet(0, 2),
		Values: []int{0, 1},
		Target: 0.219,
	}
	got := c.Label([]string{"A", "B", "C"})
	if got != "a^{A,C}_{1,2}" {
		t.Errorf("Label = %q", got)
	}
	// Missing names fall back to positions.
	got = c.Label(nil)
	if got != "a^{v0,v2}_{1,2}" {
		t.Errorf("Label without names = %q", got)
	}
}

func TestFirstOrderFitMatchesMemoEq60(t *testing.T) {
	// With only first-order constraints, the fitted model factorizes and
	// predicted cell probabilities are products of marginals (Eqs. 61-62).
	m := firstOrderModel(t)
	pA := []float64{1290.0 / 3428, 1133.0 / 3428, 1005.0 / 3428}
	pB := []float64{433.0 / 3428, 2995.0 / 3428}
	pC := []float64{1780.0 / 3428, 1648.0 / 3428}
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			for k := 0; k < 2; k++ {
				want := pA[i] * pB[j] * pC[k]
				got, err := m.CellProb([]int{i, j, k})
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(got-want) > 1e-9 {
					t.Errorf("p(%d%d%d) = %.9f, independence says %.9f", i+1, j+1, k+1, got, want)
				}
			}
		}
	}
}

func TestFirstOrderMarginalsSatisfied(t *testing.T) {
	m := firstOrderModel(t)
	resid, err := m.Residual()
	if err != nil {
		t.Fatal(err)
	}
	if resid > 1e-9 {
		t.Errorf("residual after fit = %g", resid)
	}
}

func TestJointSumsToOne(t *testing.T) {
	m := firstOrderModel(t)
	joint, err := m.Joint()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range joint {
		if p < 0 {
			t.Fatalf("negative probability %g", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("joint sums to %.15f", sum)
	}
}

func TestProbMatchesJointAggregation(t *testing.T) {
	m := firstOrderModel(t)
	// Add the memo's second-order constraint and refit so the model is not
	// a pure product — a stronger check for Prob.
	if err := m.AddConstraint(Constraint{
		Family: contingency.NewVarSet(0, 2),
		Values: []int{0, 1},
		Target: 750.0 / 3428,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Fit(SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	joint, err := m.Joint()
	if err != nil {
		t.Fatal(err)
	}
	// P(A=1) via Prob vs via joint.
	got, err := m.Prob(contingency.NewVarSet(0), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for j := 0; j < 2; j++ {
		for k := 0; k < 2; k++ {
			want += joint[0*4+j*2+k]
		}
	}
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Prob(A=1) = %.12f, joint sum = %.12f", got, want)
	}
	// P(A=1, C=2).
	got, err = m.Prob(contingency.NewVarSet(0, 2), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	want = joint[0*4+0*2+1] + joint[0*4+1*2+1]
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Prob(A=1,C=2) = %.12f, joint sum = %.12f", got, want)
	}
	// The constrained cell hits its target.
	if math.Abs(got-750.0/3428) > 1e-9 {
		t.Errorf("p^AC_12 = %.9f, target %.9f", got, 750.0/3428)
	}
}

func TestProbValidation(t *testing.T) {
	m := firstOrderModel(t)
	if _, err := m.Prob(contingency.NewVarSet(0), []int{0, 1}); err == nil {
		t.Error("value-count mismatch accepted")
	}
	if _, err := m.Prob(contingency.NewVarSet(7), []int{0}); err == nil {
		t.Error("out-of-range attribute accepted")
	}
	if _, err := m.Prob(contingency.NewVarSet(0), []int{5}); err == nil {
		t.Error("out-of-range value accepted")
	}
	if _, err := m.CellProb([]int{0}); err == nil {
		t.Error("short cell accepted")
	}
	if _, err := m.CellProb([]int{0, 0, 9}); err == nil {
		t.Error("out-of-range cell accepted")
	}
}

func TestCoefficientAccess(t *testing.T) {
	m := firstOrderModel(t)
	// First-order coefficients should be the marginal probabilities up to
	// the normalization split (their products match independence). Check
	// the accessor works and unconstrained family errors.
	v, err := m.Coefficient(contingency.NewVarSet(0), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 {
		t.Errorf("coefficient = %g", v)
	}
	if _, err := m.Coefficient(contingency.NewVarSet(0, 1), []int{0, 0}); err == nil {
		t.Error("missing family accepted")
	}
	if _, err := m.Coefficient(contingency.NewVarSet(0), []int{0, 1}); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := m.Coefficient(contingency.NewVarSet(0), []int{-1}); err == nil {
		t.Error("negative value accepted")
	}
}

func TestEntropyOfIndependentFit(t *testing.T) {
	// H of a product distribution is the sum of marginal entropies.
	m := firstOrderModel(t)
	h, err := m.Entropy()
	if err != nil {
		t.Fatal(err)
	}
	hm := func(ps []float64) float64 {
		s := 0.0
		for _, p := range ps {
			if p > 0 {
				s -= p * math.Log(p)
			}
		}
		return s
	}
	want := hm([]float64{1290.0 / 3428, 1133.0 / 3428, 1005.0 / 3428}) +
		hm([]float64{433.0 / 3428, 2995.0 / 3428}) +
		hm([]float64{1780.0 / 3428, 1648.0 / 3428})
	if math.Abs(h-want) > 1e-9 {
		t.Errorf("H = %.9f, sum of marginal entropies = %.9f", h, want)
	}
}

func TestCloneIsolation(t *testing.T) {
	m := firstOrderModel(t)
	cp := m.Clone()
	if err := cp.AddConstraint(Constraint{
		Family: contingency.NewVarSet(0, 1),
		Values: []int{0, 0},
		Target: 240.0 / 3428,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.Fit(SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	if m.NumConstraints() == cp.NumConstraints() {
		t.Error("clone shares constraint list")
	}
	// Original stays a pure product.
	p, _ := m.CellProb([]int{0, 0, 0})
	want := (1290.0 / 3428) * (433.0 / 3428) * (1780.0 / 3428)
	if math.Abs(p-want) > 1e-9 {
		t.Errorf("original perturbed by clone fit: %g vs %g", p, want)
	}
}

func TestModelJSONRoundTrip(t *testing.T) {
	m := firstOrderModel(t)
	if err := m.AddConstraint(Constraint{
		Family: contingency.NewVarSet(0, 2),
		Values: []int{0, 1},
		Target: 750.0 / 3428,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Fit(SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Model
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	// Same probabilities cell by cell.
	jm, _ := m.Joint()
	jb, err := back.Joint()
	if err != nil {
		t.Fatal(err)
	}
	for i := range jm {
		if math.Abs(jm[i]-jb[i]) > 1e-12 {
			t.Fatalf("cell %d: %.12f vs %.12f after round trip", i, jm[i], jb[i])
		}
	}
	if back.NumConstraints() != m.NumConstraints() {
		t.Error("constraint count changed in round trip")
	}
}

func TestModelJSONRejectsCorrupt(t *testing.T) {
	var m Model
	cases := []string{
		`{"names":["A"],"cards":[2],"a0":0,"constraints":[],"families":[]}`,
		`{"names":["A"],"cards":[2],"a0":1,"constraints":[],"families":[{"vars":[0],"coeffs":[1,1]}]}`,
		`{"names":["A"],"cards":[2],"a0":1,"constraints":[{"family":[0],"values":[0],"target":2}],"families":[]}`,
		`{"names":[],"cards":[],"a0":1}`,
		// A constraint family without its coefficients, and one whose
		// cardinality claims far more cells than the document carries.
		`{"names":["A"],"cards":[2],"a0":1,"constraints":[{"family":[0],"values":[0],"target":0.5}],"families":[]}`,
		`{"names":["A"],"cards":[4000000000],"a0":1,"constraints":[{"family":[0],"values":[0],"target":0.5}],"families":[{"vars":[0],"coeffs":[1,1]}]}`,
		`{"names":["A","B"],"cards":[4611686018427387905,4],"a0":1,"constraints":[{"family":[0,1],"values":[0,0],"target":0.5}],"families":[{"vars":[0,1],"coeffs":[1,1,1,1]}]}`,
		// Family members out of order or repeated: the coefficients would
		// be read as if the members ascended.
		`{"names":["A","B"],"cards":[2,3],"a0":1,"constraints":[{"family":[0,1],"values":[0,0],"target":0.5}],"families":[{"vars":[1,0],"coeffs":[1,1,1,1,1,1]}]}`,
		`{"names":["A","B"],"cards":[2,2],"a0":1,"constraints":[{"family":[0,1],"values":[0,0],"target":0.5}],"families":[{"vars":[0,0,1],"coeffs":[1,1,1,1]}]}`,
		`garbage`,
		// More attributes than MaxVars, with a constraint position past it.
		`{"cards":[` + strings.Repeat("2,", contingency.MaxVars) + `2],"a0":1,` +
			`"constraints":[{"family":[65536],"values":[0],"target":0.5}],"families":[]}`,
	}
	for _, c := range cases {
		if err := json.Unmarshal([]byte(c), &m); err == nil {
			t.Errorf("corrupt model accepted: %.300s", c)
		}
	}
}
