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
// Every constraint family must arrive with its coefficient array, and each
// array's length is checked against the cardinalities before the family is
// allocated, so a hostile document cannot make the decoder allocate more
// coefficients than it carries.
func (m *Model) UnmarshalJSON(data []byte) error {
	var w modelJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("maxent: decoding model: %w", err)
	}
	nm, err := NewModel(w.Names, w.Cards)
	if err != nil {
		return fmt.Errorf("maxent: decoding model: %w", err)
	}
	r := len(nm.cards)
	coeffs := make(map[contingency.VarSet][]float64, len(w.Families))
	for _, fj := range w.Families {
		if err := positionsInRange(fj.Vars, r); err != nil {
			return fmt.Errorf("maxent: decoding model: coefficient family: %w", err)
		}
		vs := contingency.NewVarSet(fj.Vars...)
		if _, dup := coeffs[vs]; dup {
			return fmt.Errorf("maxent: decoding model: duplicate coefficient family %v", vs)
		}
		if err := checkCoeffs(fj.Coeffs); err != nil {
			return fmt.Errorf("maxent: decoding model: family %v: %w", vs, err)
		}
		coeffs[vs] = fj.Coeffs
	}
	for _, cj := range w.Constraints {
		if err := positionsInRange(cj.Family, r); err != nil {
			return fmt.Errorf("maxent: decoding model: constraint family: %w", err)
		}
		c := Constraint{
			Family: contingency.NewVarSet(cj.Family...),
			Values: cj.Values,
			Target: cj.Target,
		}
		fc, ok := coeffs[c.Family]
		if !ok {
			return fmt.Errorf("maxent: decoding model: constraint family %v has no coefficients", c.Family)
		}
		if err := checkFamilySize(nm.cards, c.Family, len(fc)); err != nil {
			return fmt.Errorf("maxent: decoding model: %w", err)
		}
		if err := nm.AddConstraint(c); err != nil {
			return fmt.Errorf("maxent: decoding model: %w", err)
		}
	}
	// Overlay the persisted coefficient arrays onto the allocated families.
	for _, fj := range w.Families {
		vs := contingency.NewVarSet(fj.Vars...)
		ft, ok := nm.families[vs]
		if !ok {
			// A family can exist without constraints only through
			// corruption; reject.
			return fmt.Errorf("maxent: decoding model: coefficient family %v has no constraints", vs)
		}
		copy(ft.coeffs, fj.Coeffs)
	}
	if w.A0 <= 0 {
		return fmt.Errorf("maxent: decoding model: non-positive a0 %g", w.A0)
	}
	nm.a0 = w.A0
	*m = *nm
	return nil
}

// checkFamilySize verifies that family's coefficient table over cards has
// exactly n cells, multiplying no further than n so a hostile cardinality
// cannot overflow.
func checkFamilySize(cards []int, family contingency.VarSet, n int) error {
	size := 1
	for _, p := range family.Members() {
		if cards[p] > n/size {
			return fmt.Errorf("family %v has %d coefficients, want more", family, n)
		}
		size *= cards[p]
	}
	if size != n {
		return fmt.Errorf("family %v has %d coefficients, want %d", family, n, size)
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
