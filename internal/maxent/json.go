package maxent

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"pka/internal/contingency"
)

// constraintJSON is the wire form of a Constraint.
type constraintJSON struct {
	Family []int   `json:"family"`
	Values []int   `json:"values"`
	Target float64 `json:"target"`
}

// familyJSON carries one family's dense coefficient array.
type familyJSON struct {
	Vars   []int     `json:"vars"`
	Coeffs []float64 `json:"coeffs"`
}

// modelJSON is the persisted form of a fitted model: everything needed to
// answer queries without refitting.
type modelJSON struct {
	Names       []string         `json:"names"`
	Cards       []int            `json:"cards"`
	A0          float64          `json:"a0"`
	Constraints []constraintJSON `json:"constraints"`
	Families    []familyJSON     `json:"families"`
}

// MarshalJSON encodes the model, coefficients included.
func (m *Model) MarshalJSON() ([]byte, error) {
	w := modelJSON{
		Names: m.names,
		Cards: m.cards,
		A0:    m.a0,
	}
	for _, c := range m.cons {
		w.Constraints = append(w.Constraints, constraintJSON{
			Family: c.Family.Members(),
			Values: c.Values,
			Target: c.Target,
		})
	}
	for _, vs := range sortedFamilies(m.families) {
		ft := m.families[vs]
		w.Families = append(w.Families, familyJSON{Vars: ft.vars, Coeffs: ft.coeffs})
	}
	return json.Marshal(w)
}

// sortedFamilies returns family keys in deterministic (mask) order.
func sortedFamilies(fams map[contingency.VarSet]*familyTerm) []contingency.VarSet {
	keys := make([]contingency.VarSet, 0, len(fams))
	for k := range fams {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	return keys
}

// UnmarshalJSON decodes and validates a model. The receiver is overwritten.
// The document goes through modelFromState, the validating constructor
// the snapshot decoder uses, so both formats accept exactly the same
// models; coefficients are taken from the document as they stand, never
// allocated from its cardinalities. Unlike a snapshot, JSON carries no
// compiled engine state: the engine is compiled on first use.
func (m *Model) UnmarshalJSON(data []byte) error {
	var w modelJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("maxent: decoding model: %w", err)
	}
	st := &ModelState{
		Names:       w.Names,
		Cards:       w.Cards,
		A0:          w.A0,
		Constraints: make([]Constraint, len(w.Constraints)),
		Families:    make([]FamilyState, len(w.Families)),
	}
	// modelFromState rejects schemas over MaxVars, but only after the
	// families are built, and NewVarSet panics past it.
	r := min(len(w.Cards), contingency.MaxVars)
	for i, cj := range w.Constraints {
		if err := positionsInRange(cj.Family, r); err != nil {
			return fmt.Errorf("maxent: decoding model: constraint family: %w", err)
		}
		st.Constraints[i] = Constraint{
			Family: contingency.NewVarSet(cj.Family...),
			Values: cj.Values,
			Target: cj.Target,
		}
	}
	for i, fj := range w.Families {
		st.Families[i] = FamilyState{Vars: fj.Vars, Coeffs: fj.Coeffs}
	}
	nm, err := modelFromState(st)
	if err != nil {
		return fmt.Errorf("maxent: decoding model: %w", err)
	}
	*m = *nm
	return nil
}

// checkFamilySize verifies that the coefficient table over the family
// members vars has exactly n cells, multiplying no further than n so a
// hostile cardinality cannot overflow.
func checkFamilySize(cards []int, vars []int, n int) error {
	size := 1
	for _, p := range vars {
		if cards[p] > n/size {
			return fmt.Errorf("family %v has %d coefficients, want more", vars, n)
		}
		size *= cards[p]
	}
	if size != n {
		return fmt.Errorf("family %v has %d coefficients, want %d", vars, n, size)
	}
	return nil
}

// positionsInRange rejects attribute positions outside [0, r) before they
// reach contingency.NewVarSet, which panics on them.
func positionsInRange(positions []int, r int) error {
	for _, p := range positions {
		if p < 0 || p >= r {
			return fmt.Errorf("attribute position %d outside [0, %d)", p, r)
		}
	}
	return nil
}

// checkCoeffs rejects coefficients no fit produces: every one is a finite,
// non-negative factor. Zero is legal; it encodes an implied-zero cell.
func checkCoeffs(coeffs []float64) error {
	for i, c := range coeffs {
		if !(c >= 0) || math.IsInf(c, 1) {
			return fmt.Errorf("coefficient %d is %g, want finite and non-negative", i, c)
		}
	}
	return nil
}
