package maxent

import (
	"fmt"
	"math"
	"testing"

	"pka/internal/contingency"
)

func TestSolveOptionsDefaults(t *testing.T) {
	o, err := SolveOptions{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if o.Tol != 1e-9 || o.MaxSweeps != 10000 {
		t.Errorf("defaults = %+v", o)
	}
	if _, err := (SolveOptions{Tol: -1}).withDefaults(); err == nil {
		t.Error("negative tol accepted")
	}
	if _, err := (SolveOptions{MaxSweeps: -1}).withDefaults(); err == nil {
		t.Error("negative sweeps accepted")
	}
}

func TestFitRequiresConstraints(t *testing.T) {
	m, _ := NewModel(nil, []int{2, 2})
	if _, err := m.Fit(SolveOptions{}); err == nil {
		t.Error("fit with no constraints accepted")
	}
}

// TestTable2Reproduction replays the memo's Table 2: starting from the
// first-order solution, add the N^AC_12 constraint (target .219) and solve
// iteratively. The memo converges in 7 iterations at ~2-decimal precision;
// we verify the same convergence scale and that all constraints are met.
func TestTable2Reproduction(t *testing.T) {
	m := firstOrderModel(t)
	target := 750.0 / 3428 // the memo's (P^AC_12)data = .219
	if err := m.AddConstraint(Constraint{
		Family: contingency.NewVarSet(0, 2),
		Values: []int{0, 1},
		Target: target,
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Fit(SolveOptions{Tol: 1e-3, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatalf("did not converge: residual %g after %d sweeps", rep.Residual, rep.Sweeps)
	}
	// The memo's hand iteration took 7 passes at this precision; our
	// sequential scaling should land in the same order of magnitude.
	if rep.Sweeps > 10 {
		t.Errorf("took %d sweeps at tol 1e-3; memo's Table 2 took 7", rep.Sweeps)
	}
	if len(rep.Trace) != rep.Sweeps || len(rep.A0Trace) != rep.Sweeps {
		t.Errorf("trace has %d/%d rows for %d sweeps",
			len(rep.Trace), len(rep.A0Trace), rep.Sweeps)
	}
	if len(rep.Labels) != m.NumConstraints() {
		t.Errorf("labels = %d, constraints = %d", len(rep.Labels), m.NumConstraints())
	}
	// Constraint satisfaction at library precision.
	if _, err := m.Fit(SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	p, err := m.Prob(contingency.NewVarSet(0, 2), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-target) > 1e-8 {
		t.Errorf("p^AC_12 = %.9f, target %.9f", p, target)
	}
	// First-order marginals still hold (the memo's Eqs. 64-71).
	for i, want := range []float64{1290.0 / 3428, 1133.0 / 3428, 1005.0 / 3428} {
		got, err := m.Prob(contingency.NewVarSet(0), []int{i})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-8 {
			t.Errorf("p^A_%d = %.9f, want %.9f", i+1, got, want)
		}
	}
	// B is untouched by the AC constraint: predicted B marginals unchanged
	// (the memo notes Eqs. 68-69 "do not contribute").
	for j, want := range []float64{433.0 / 3428, 2995.0 / 3428} {
		got, err := m.Prob(contingency.NewVarSet(1), []int{j})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-8 {
			t.Errorf("p^B_%d = %.9f, want %.9f", j+1, got, want)
		}
	}
}

// TestTable2ConditionalIndependencePreserved: with only the AC constraint
// added, B must stay independent of (A, C) in the fitted model:
// p(ijk) = p^AC(ik) · p^B(j).
func TestTable2ConditionalIndependencePreserved(t *testing.T) {
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
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			for k := 0; k < 2; k++ {
				pijk, _ := m.CellProb([]int{i, j, k})
				pik, _ := m.Prob(contingency.NewVarSet(0, 2), []int{i, k})
				pj, _ := m.Prob(contingency.NewVarSet(1), []int{j})
				if math.Abs(pijk-pik*pj) > 1e-9 {
					t.Errorf("p(%d%d%d)=%.9f != p^AC·p^B = %.9f",
						i+1, j+1, k+1, pijk, pik*pj)
				}
			}
		}
	}
}

// requireCertified fails unless the constraint residual recomputed from
// the compiled engine (not the solver's running sums) is within tol.
// Together with the product form Fit maintains, that certifies the unique
// maximum-entropy solution.
func requireCertified(t *testing.T, m *Model, tol float64, label string) {
	t.Helper()
	r, err := m.Residual()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if r > tol {
		t.Fatalf("%s: residual %g above tolerance %g", label, r, tol)
	}
}

// TestFitResidualCertificate fits the memo's first-order model plus the
// AC cell N^AC_12 on the dense and the factored path and certifies each
// solution by its recomputed residual.
func TestFitResidualCertificate(t *testing.T) {
	for _, factored := range []bool{false, true} {
		label := fmt.Sprintf("factored=%v", factored)
		if factored {
			forceFactored(t, 6) // 12 cells; blocks AC (6 cells) and B (2)
		}
		m := firstOrderModel(t)
		if err := m.AddConstraint(Constraint{
			Family: contingency.NewVarSet(0, 2),
			Values: []int{0, 1},
			Target: 750.0 / 3428,
		}); err != nil {
			t.Fatal(err)
		}
		rep, err := m.Fit(SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Converged {
			t.Fatalf("%s: did not converge: residual %g", label, rep.Residual)
		}
		c, err := m.Compile()
		if err != nil {
			t.Fatal(err)
		}
		if c.Factored() != factored {
			t.Fatalf("%s: compiled engine factored=%v", label, c.Factored())
		}
		requireCertified(t, m, 1e-9, label)
	}
}

func TestFitZeroTargets(t *testing.T) {
	// A table with an empty cell: the zero first-order target must zero the
	// coefficient and the rest must renormalize.
	tab := contingency.MustNew([]string{"X", "Y"}, []int{3, 2})
	tab.Set(10, 0, 0)
	tab.Set(10, 0, 1)
	tab.Set(20, 1, 0)
	tab.Set(20, 1, 1)
	// X=2 never occurs.
	m, err := NewModel(tab.Names(), tab.Cards())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddFirstOrderConstraints(tab); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Fit(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatalf("no convergence: %+v", rep)
	}
	p, err := m.Prob(contingency.NewVarSet(0), []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 {
		t.Errorf("P(X=3) = %g, want exactly 0", p)
	}
	p, _ = m.Prob(contingency.NewVarSet(0), []int{0})
	if math.Abs(p-1.0/3) > 1e-9 {
		t.Errorf("P(X=1) = %g, want 1/3", p)
	}
}

func TestFitDegenerateAttribute(t *testing.T) {
	// An attribute whose entire mass sits on one value: target 1 plus
	// target 0 constraints. Zero-first ordering must make this solvable.
	tab := contingency.MustNew([]string{"X", "Y"}, []int{2, 2})
	tab.Set(7, 0, 0)
	tab.Set(3, 0, 1)
	m, err := NewModel(tab.Names(), tab.Cards())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddFirstOrderConstraints(tab); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Fit(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatalf("degenerate attribute did not converge: %+v", rep)
	}
	p, _ := m.Prob(contingency.NewVarSet(0), []int{0})
	if math.Abs(p-1) > 1e-9 {
		t.Errorf("P(X=1) = %g, want 1", p)
	}
	p, _ = m.CellProb([]int{0, 0})
	if math.Abs(p-0.7) > 1e-9 {
		t.Errorf("p(1,1) = %g, want 0.7", p)
	}
}

func TestFitInconsistentConstraint(t *testing.T) {
	// A second-order target that exceeds its first-order marginal cannot be
	// satisfied; Fit must not report convergence (or must error).
	m := firstOrderModel(t)
	if err := m.AddConstraint(Constraint{
		Family: contingency.NewVarSet(0, 2),
		Values: []int{0, 1},
		Target: 0.9, // p^A_1 is only .376
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Fit(SolveOptions{MaxSweeps: 200})
	if err == nil && rep.Converged {
		t.Error("inconsistent constraints reported converged")
	}
}

func TestFitMatchesEmpiricalWhenFullySpecified(t *testing.T) {
	// Constraining every cell of a 2×2 at order 2 forces the empirical
	// distribution exactly.
	tab := contingency.MustNew(nil, []int{2, 2})
	tab.Set(10, 0, 0)
	tab.Set(20, 0, 1)
	tab.Set(30, 1, 0)
	tab.Set(40, 1, 1)
	m, err := NewModel(nil, tab.Cards())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddFirstOrderConstraints(tab); err != nil {
		t.Fatal(err)
	}
	n := float64(tab.Total())
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if i == 1 && j == 1 {
				continue // implied by the others
			}
			if err := m.AddConstraint(Constraint{
				Family: contingency.NewVarSet(0, 1),
				Values: []int{i, j},
				Target: float64(tab.MustAt(i, j)) / n,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := m.Fit(SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	joint, _ := m.Joint()
	want := []float64{0.1, 0.2, 0.3, 0.4}
	for i := range want {
		if math.Abs(joint[i]-want[i]) > 1e-8 {
			t.Errorf("cell %d = %.9f, want %.9f", i, joint[i], want[i])
		}
	}
}

func TestRefitAfterAddingConstraintStartsWarm(t *testing.T) {
	// The memo re-solves "starting with the last previously calculated a
	// values". A warm refit of an already-satisfied model must converge in
	// one sweep.
	m := firstOrderModel(t)
	rep, err := m.Fit(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sweeps != 1 {
		t.Errorf("warm refit took %d sweeps, want 1", rep.Sweeps)
	}
}
