package maxent

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pka/internal/contingency"
)

// TestFitSatisfiesRandomConstraintsProperty: for random small tables and a
// random subset of second-order cells promoted to constraints, the fitted
// model matches every target (targets come from one empirical table, so
// they are always consistent).
func TestFitSatisfiesRandomConstraintsProperty(t *testing.T) {
	f := func(raw [12]uint8, pickMask uint16) bool {
		tab := contingency.MustNew(nil, []int{3, 2, 2})
		cell := make([]int, 3)
		total := int64(0)
		for off := 0; off < 12; off++ {
			tab.Unflatten(off, cell)
			// Keep all cells positive so no boundary cases arise.
			v := int64(raw[off]%50) + 1
			tab.Set(v, cell...)
			total += v
		}
		m, err := NewModel(nil, tab.Cards())
		if err != nil {
			return false
		}
		if err := m.AddFirstOrderConstraints(tab); err != nil {
			return false
		}
		// Promote a random subset of AB cells (at most 5 of 6 to avoid
		// fully determining the family against its marginals).
		fam := contingency.NewVarSet(0, 1)
		n := float64(tab.Total())
		added := 0
		for idx := 0; idx < 6 && added < 5; idx++ {
			if pickMask&(1<<uint(idx)) == 0 {
				continue
			}
			values := []int{idx / 2, idx % 2}
			obs, err := tab.MarginalCount(fam, values)
			if err != nil {
				return false
			}
			if err := m.AddConstraint(Constraint{
				Family: fam,
				Values: values,
				Target: float64(obs) / n,
			}); err != nil {
				return false
			}
			added++
		}
		rep, err := m.Fit(SolveOptions{Tol: 1e-10, MaxSweeps: 50000})
		if err != nil || !rep.Converged {
			return false
		}
		resid, err := m.Residual()
		return err == nil && resid < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestFitEntropyNeverBelowConstrainedProperty: adding constraints can only
// reduce (or keep) the maximum entropy.
func TestFitEntropyDecreasesWithConstraints(t *testing.T) {
	tab := memoTable(t)
	base, err := NewModel(tab.Names(), tab.Cards())
	if err != nil {
		t.Fatal(err)
	}
	if err := base.AddFirstOrderConstraints(tab); err != nil {
		t.Fatal(err)
	}
	if _, err := base.Fit(SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	h0, err := base.Entropy()
	if err != nil {
		t.Fatal(err)
	}
	prev := h0
	// Add the memo's three significant cells one by one.
	steps := []struct {
		fam    contingency.VarSet
		values []int
		count  float64
	}{
		{contingency.NewVarSet(0, 1), []int{0, 0}, 240},
		{contingency.NewVarSet(0, 2), []int{0, 0}, 540},
		{contingency.NewVarSet(1, 2), []int{0, 1}, 163},
	}
	for _, s := range steps {
		if err := base.AddConstraint(Constraint{
			Family: s.fam,
			Values: s.values,
			Target: s.count / 3428,
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := base.Fit(SolveOptions{}); err != nil {
			t.Fatal(err)
		}
		h, err := base.Entropy()
		if err != nil {
			t.Fatal(err)
		}
		if h > prev+1e-9 {
			t.Errorf("entropy rose from %.9f to %.9f after adding %v", prev, h, s.fam)
		}
		prev = h
	}
	// And the final entropy is still at least the empirical distribution's
	// (maxent dominates any distribution meeting the same constraints).
	emp, _ := tab.Probabilities()
	hEmp := 0.0
	for _, p := range emp {
		if p > 0 {
			hEmp -= p * math.Log(p)
		}
	}
	if prev < hEmp-1e-9 {
		t.Errorf("fitted entropy %.9f below empirical %.9f", prev, hEmp)
	}
}

// TestFitResidualCertificateProperty fits random 2x2x2 tables (every
// cell count >= 2) to their first-order margins plus one AB cell, on the
// dense and the factored path, and requires each fit to converge and to
// pass the recomputed-residual certificate. The generator seed is pinned
// so every run checks the same instances.
func TestFitResidualCertificateProperty(t *testing.T) {
	for _, factored := range []bool{false, true} {
		if factored {
			forceFactored(t, 4)
		}
		f := func(raw [8]uint8, pick uint8) bool {
			tab := contingency.MustNew(nil, []int{2, 2, 2})
			cell := make([]int, 3)
			for off := 0; off < 8; off++ {
				tab.Unflatten(off, cell)
				tab.Set(int64(raw[off]%40)+2, cell...)
			}
			m, _ := NewModel(nil, tab.Cards())
			m.AddFirstOrderConstraints(tab)
			values := []int{int(pick) % 2, int(pick/2) % 2}
			obs, _ := tab.MarginalCount(contingency.NewVarSet(0, 1), values)
			m.AddConstraint(Constraint{
				Family: contingency.NewVarSet(0, 1),
				Values: values,
				Target: float64(obs) / float64(tab.Total()),
			})
			if rep, err := m.Fit(SolveOptions{Tol: 1e-10}); err != nil || !rep.Converged {
				// Every cell holds count >= 2, so the solver must converge.
				return false
			}
			c, err := m.Compile()
			if err != nil || c.Factored() != factored {
				return false
			}
			r, err := m.Residual()
			return err == nil && r <= 1e-10
		}
		cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(11))}
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("factored=%v: %v", factored, err)
		}
	}
}

// TestTraceMonotoneResidual: the Gauss–Seidel residual decreases across
// sweeps on the memo's Table 2 problem (a sanity property of the recorded
// trace, not a general theorem).
func TestTraceResidualShrinks(t *testing.T) {
	tab := memoTable(t)
	m, err := NewModel(tab.Names(), tab.Cards())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddFirstOrderConstraints(tab); err != nil {
		t.Fatal(err)
	}
	if err := m.AddConstraint(Constraint{
		Family: contingency.NewVarSet(0, 2),
		Values: []int{0, 1},
		Target: 750.0 / 3428,
	}); err != nil {
		t.Fatal(err)
	}
	// Run two fits at different sweep budgets; residual must not rise.
	m1 := m.Clone()
	rep1, err := m1.Fit(SolveOptions{MaxSweeps: 2, Tol: 1e-15})
	if err != nil {
		t.Fatal(err)
	}
	m2 := m.Clone()
	rep2, err := m2.Fit(SolveOptions{MaxSweeps: 20, Tol: 1e-15})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Residual > rep1.Residual+1e-12 {
		t.Errorf("residual rose with more sweeps: %g -> %g", rep1.Residual, rep2.Residual)
	}
}
