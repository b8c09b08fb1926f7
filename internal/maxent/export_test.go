package maxent

import (
	"math"
	"strings"
	"testing"

	"pka/internal/contingency"
)

// exportRestore round-trips a fitted model through its serializable state.
func exportRestore(t *testing.T, m *Model) *Model {
	t.Helper()
	st, err := m.Export()
	if err != nil {
		t.Fatal(err)
	}
	rm, err := RestoreModel(st)
	if err != nil {
		t.Fatal(err)
	}
	return rm
}

// TestRestoreModelBitIdentical checks the restored model reproduces the
// saved one's probabilities exactly — the whole point of shipping solved
// coefficients (and block sums) instead of refitting.
func TestRestoreModelBitIdentical(t *testing.T) {
	m := firstOrderModel(t)
	rm := exportRestore(t, m)
	for pos := 0; pos < m.R(); pos++ {
		for v := 0; v < m.cards[pos]; v++ {
			vs := contingency.NewVarSet(pos)
			want, err := m.Prob(vs, []int{v})
			if err != nil {
				t.Fatal(err)
			}
			got, err := rm.Prob(vs, []int{v})
			if err != nil {
				t.Fatal(err)
			}
			if want != got {
				t.Errorf("attr %d=%d: restored %v != live %v", pos, v, got, want)
			}
		}
	}
}

// TestRestoredModelMutable checks the lazy constraint index: a restored
// model defers building conIdx until a mutation needs it, and every
// mutation entry point still behaves — lookup, duplicate detection,
// retargeting, and refit.
func TestRestoredModelMutable(t *testing.T) {
	m := firstOrderModel(t)
	rm := exportRestore(t, m)

	fam := contingency.NewVarSet(0)
	if !rm.HasConstraint(fam, []int{0}) {
		t.Error("restored model lost a constraint")
	}
	if rm.HasConstraint(contingency.NewVarSet(0, 1), []int{0, 0}) {
		t.Error("restored model invented a constraint")
	}

	dup := rm.cons[0]
	if err := rm.AddConstraint(dup); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate AddConstraint on restored model: %v", err)
	}
	// Add a new second-order constraint at the model's own probability for
	// that cell, so the enlarged system stays consistent and refittable.
	p, err := rm.Prob(contingency.NewVarSet(0, 1), []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := rm.AddConstraint(Constraint{
		Family: contingency.NewVarSet(0, 1), Values: []int{0, 0}, Target: p,
	}); err != nil {
		t.Fatal(err)
	}
	if err := rm.SetTarget(fam, []int{0}, 0.2); err != nil {
		t.Fatal(err)
	}
	if _, err := rm.Fit(SolveOptions{}); err != nil {
		t.Fatal(err)
	}

	// Clone of a not-yet-mutated restored model must preserve behavior too.
	cl := exportRestore(t, m).Clone()
	if !cl.HasConstraint(fam, []int{0}) {
		t.Error("clone of restored model lost a constraint")
	}
}

// TestRestoreModelValidation drives malformed state through RestoreModel:
// restore is bulk construction, but it must reject everything the
// AddConstraint path would.
func TestRestoreModelValidation(t *testing.T) {
	fresh := func(t *testing.T) *ModelState {
		st, err := firstOrderModel(t).Export()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	cases := []struct {
		name   string
		mutate func(*ModelState)
		want   string
	}{
		{"duplicate constraint", func(st *ModelState) {
			st.Constraints = append(st.Constraints, st.Constraints[0])
		}, "duplicate constraint"},
		{"constraint out of range", func(st *ModelState) {
			st.Constraints[0].Values = []int{99}
		}, "out of range"},
		{"unreferenced family", func(st *ModelState) {
			st.Families = append(st.Families, FamilyState{
				Vars: []int{0, 1}, Coeffs: make([]float64, 6),
			})
		}, "carry no constraints"},
		{"orphan constraint", func(st *ModelState) {
			st.Families = st.Families[1:]
		}, "no coefficients"},
		{"coefficient count mismatch", func(st *ModelState) {
			st.Families[0].Coeffs = st.Families[0].Coeffs[1:]
		}, "coefficients, want"},
		{"family members unsorted", func(st *ModelState) {
			st.Families[0].Vars = []int{1, 0}
		}, "not ascending"},
		{"negative coefficient", func(st *ModelState) {
			st.Families[0].Coeffs[0] = -5
		}, "want finite and non-negative"},
		{"nan coefficient", func(st *ModelState) {
			st.Families[0].Coeffs[0] = math.NaN()
		}, "want finite and non-negative"},
		{"infinite coefficient", func(st *ModelState) {
			st.Families[0].Coeffs[0] = math.Inf(1)
		}, "want finite and non-negative"},
		{"nan target", func(st *ModelState) {
			st.Constraints[0].Target = math.NaN()
		}, "outside [0,1]"},
		{"+inf target", func(st *ModelState) {
			st.Constraints[0].Target = math.Inf(1)
		}, "outside [0,1]"},
		{"-inf target", func(st *ModelState) {
			st.Constraints[0].Target = math.Inf(-1)
		}, "outside [0,1]"},
		{"zero a0", func(st *ModelState) { st.A0 = 0 }, "degenerate a0"},
		{"nan a0 rejected", func(st *ModelState) { st.A0 = math.NaN() }, "degenerate a0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := fresh(t)
			tc.mutate(st)
			_, err := RestoreModel(st)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestRestoreFactoredBlockSums checks factored round-trips pin per-block
// normalizer state: the restored compiled engine carries the exact stored
// sums, and degenerate sums are rejected.
func TestRestoreFactoredBlockSums(t *testing.T) {
	old := denseModelCells
	denseModelCells = 4 // force the factored path on a small model
	defer func() { denseModelCells = old }()

	m := firstOrderModel(t)
	st, err := m.Export()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Factored {
		t.Fatal("expected factored export under lowered dense ceiling")
	}
	rm, err := RestoreModel(st)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Prob(contingency.NewVarSet(0, 1), []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	got, err := rm.Prob(contingency.NewVarSet(0, 1), []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if want != got {
		t.Errorf("factored restore: %v != %v", got, want)
	}

	st.Blocks[0].Sum = math.Inf(1)
	if _, err := RestoreModel(st); err == nil || !strings.Contains(err.Error(), "degenerate sum") {
		t.Errorf("degenerate block sum accepted: %v", err)
	}
	st.Blocks[0].Sum = 1
	st.Blocks = st.Blocks[:len(st.Blocks)-1]
	if _, err := RestoreModel(st); err == nil || !strings.Contains(err.Error(), "blocks") {
		t.Errorf("block structure mismatch accepted: %v", err)
	}
}
