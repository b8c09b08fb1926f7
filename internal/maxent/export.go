package maxent

import (
	"fmt"
	"math"

	"pka/internal/contingency"
	"pka/internal/sumprod"
)

// Export/RestoreModel are the binary-snapshot hooks: a fitted model dumps
// everything its compiled engine was built from — coefficients, a0, and in
// factored mode the per-block normalizer state — and RestoreModel rebuilds
// model plus engine from that state without touching the solver. Engine
// compilation from known coefficients is cheap (a deep copy per term); the
// expensive part a snapshot skips is the iterative fit and, in factored
// mode, the per-block sum accumulation, whose float ordering differs from
// eng.Sum() and therefore must travel in the snapshot for the restored
// engine to be bit-identical to the saved one.

// FamilyState is one attribute family's dense coefficient array.
type FamilyState struct {
	Vars   []int // ascending attribute positions
	Coeffs []float64
}

// BlockState is one constraint block's solved normalizer state: the cached
// unnormalized block sum the compiled engine divides by, and (when the
// last fit populated it) the block's a0 contribution, which incremental
// refits reuse bit-for-bit for clean blocks.
type BlockState struct {
	Vars  []int // ascending attribute positions
	Sum   float64
	A0    float64
	HasA0 bool
}

// ModelState is the full serializable state of a fitted model. Blocks is
// populated only when Factored is set; block order matches the model's
// deterministic constraint-graph decomposition (ascending smallest member).
type ModelState struct {
	Names       []string
	Cards       []int
	A0          float64
	Constraints []Constraint // insertion order
	Families    []FamilyState
	Factored    bool
	Blocks      []BlockState
}

// Export captures the model's state for serialization, compiling first so
// the factored block state reflects the current coefficients. Slices in
// the returned state are copies; the caller may hold them across later
// model mutation.
func (m *Model) Export() (*ModelState, error) {
	c, err := m.Compile()
	if err != nil {
		return nil, err
	}
	st := &ModelState{
		Names:    append([]string(nil), m.names...),
		Cards:    append([]int(nil), m.cards...),
		A0:       m.a0,
		Factored: c.Factored(),
	}
	st.Constraints = make([]Constraint, len(m.cons))
	for i, con := range m.cons {
		st.Constraints[i] = Constraint{
			Family: con.Family,
			Values: append([]int(nil), con.Values...),
			Target: con.Target,
		}
	}
	for _, ft := range m.sortedFamilyTerms() {
		st.Families = append(st.Families, FamilyState{
			Vars:   append([]int(nil), ft.vars...),
			Coeffs: append([]float64(nil), ft.coeffs...),
		})
	}
	if st.Factored {
		st.Blocks = make([]BlockState, len(c.blocks))
		for i, b := range c.blocks {
			bs := BlockState{Vars: append([]int(nil), b.vars...), Sum: b.sum}
			if a0, ok := m.blockA0[contingency.NewVarSet(b.vars...)]; ok {
				bs.A0, bs.HasA0 = a0, true
			}
			st.Blocks[i] = bs
		}
	}
	return st, nil
}

// RestoreModel rebuilds a fitted model — compiled engine included — from
// exported state, skipping the solve entirely. The restored model is
// marked fit-clean with nothing dirty, so a later incremental refit treats
// every block whose targets did not move as converged, exactly as the
// saved model would have. The state is validated by modelFromState, and
// in factored mode the block structure must match what the constraint
// graph implies.
func RestoreModel(st *ModelState) (*Model, error) {
	nm, err := modelFromState(st)
	if err != nil {
		return nil, fmt.Errorf("maxent: restoring model: %w", err)
	}
	// The saved model had converged: start clean so incremental refits skip
	// unmoved blocks, and seed the block-a0 cache they reuse.
	nm.fitClean = true
	if st.Factored {
		nm.blockA0 = make(map[contingency.VarSet]float64, len(st.Blocks))
		for _, bs := range st.Blocks {
			if bs.HasA0 {
				nm.blockA0[contingency.NewVarSet(bs.Vars...)] = bs.A0
			}
		}
	}
	if err := nm.restoreCompiled(st); err != nil {
		return nil, err
	}
	return nm, nil
}

// modelFromState is the one validating constructor behind both model
// decoders, the snapshot's RestoreModel and the JSON UnmarshalJSON. It
// checks the state as strictly as the AddConstraint path would — dedupe,
// range checks, ascending family members, exact and overflow-safe
// coefficient sizes, family/constraint agreement, a usable a0 — but
// bulk-constructs the model, taking ownership of the state's slices,
// instead of building it one AddConstraint at a time: restore is the
// serving cold-start hot path. The model it returns has no compiled
// engine and is not marked fit-clean.
func modelFromState(st *ModelState) (*Model, error) {
	nm, err := NewModel(st.Names, st.Cards)
	if err != nil {
		return nil, err
	}
	totalCells := 0
	for _, fs := range st.Families {
		if len(fs.Vars) == 0 {
			return nil, fmt.Errorf("empty coefficient family")
		}
		prev := -1
		for _, p := range fs.Vars {
			if p <= prev || p >= len(nm.cards) {
				return nil, fmt.Errorf("family members %v not ascending in range", fs.Vars)
			}
			prev = p
		}
		if err := checkFamilySize(nm.cards, fs.Vars, len(fs.Coeffs)); err != nil {
			return nil, err
		}
		if err := checkCoeffs(fs.Coeffs); err != nil {
			return nil, fmt.Errorf("family %v: %w", fs.Vars, err)
		}
		vs := contingency.NewVarSet(fs.Vars...)
		if _, dup := nm.families[vs]; dup {
			return nil, fmt.Errorf("duplicate coefficient family %v", vs)
		}
		nm.families[vs] = &familyTerm{vars: fs.Vars, coeffs: fs.Coeffs}
		totalCells += len(fs.Coeffs)
	}
	nm.cons = make([]Constraint, 0, len(st.Constraints))
	// Dedupe via per-family cell bitmaps instead of conIdx: building the
	// index here costs a map insert per constraint on the cold-start path,
	// and a decoded model may never mutate. conIdx stays
	// nil; ensureConIdx builds it lazily if a mutation ever needs it. The
	// bitmap doubles as the family-coverage check.
	seen := make(map[contingency.VarSet][]bool, len(nm.families))
	cellsBuf := make([]bool, totalCells)
	for _, c := range st.Constraints {
		if err := c.validate(nm.cards); err != nil {
			return nil, err
		}
		ft, ok := nm.families[c.Family]
		if !ok {
			return nil, fmt.Errorf("constraint family %v has no coefficients", c.Family)
		}
		cells := seen[c.Family]
		if cells == nil {
			cells = cellsBuf[:len(ft.coeffs):len(ft.coeffs)]
			cellsBuf = cellsBuf[len(ft.coeffs):]
			seen[c.Family] = cells
		}
		off := ft.offset(nm.cards, c.Values)
		if cells[off] {
			return nil, fmt.Errorf("duplicate constraint on %s", c.Label(nm.names))
		}
		cells[off] = true
		nm.cons = append(nm.cons, c)
	}
	nm.conIdx = nil
	if len(seen) != len(nm.families) {
		return nil, fmt.Errorf("%d coefficient families carry no constraints",
			len(nm.families)-len(seen))
	}
	if !(st.A0 > 0) || math.IsInf(st.A0, 0) {
		return nil, fmt.Errorf("degenerate a0 %g", st.A0)
	}
	nm.a0 = st.A0
	return nm, nil
}

// restoreCompiled rebuilds the compiled engine from restored coefficients
// plus the stored per-block sums, bypassing the per-block Sum()
// accumulation whose result the snapshot pins bit-for-bit.
func (m *Model) restoreCompiled(st *ModelState) error {
	if !st.Factored {
		if m.NumCells() > maxDenseCells {
			return fmt.Errorf("maxent: restoring model: dense snapshot over %d attributes exceeds the dense ceiling", len(m.cards))
		}
		eng, err := sumprod.Compile(m.cards, m.terms())
		if err != nil {
			return fmt.Errorf("maxent: restoring model: %w", err)
		}
		c := m.newCompiled()
		c.eng = eng
		m.compiled.Store(c)
		return nil
	}
	blocks := m.blocks()
	if len(blocks) != len(st.Blocks) {
		return fmt.Errorf("maxent: restoring model: snapshot has %d blocks, constraint graph has %d",
			len(st.Blocks), len(blocks))
	}
	sums := make([]float64, len(blocks))
	for i, blk := range blocks {
		bs := st.Blocks[i]
		if len(bs.Vars) != len(blk) {
			return fmt.Errorf("maxent: restoring model: block %d structure mismatch", i)
		}
		for j, p := range blk {
			if bs.Vars[j] != p {
				return fmt.Errorf("maxent: restoring model: block %d structure mismatch", i)
			}
		}
		if !(bs.Sum > 0) || math.IsInf(bs.Sum, 0) {
			return fmt.Errorf("maxent: restoring model: degenerate sum %g for block %v", bs.Sum, blk)
		}
		sums[i] = bs.Sum
	}
	c, err := m.compileFactored(m.decompose(blocks), sums)
	if err != nil {
		return fmt.Errorf("maxent: restoring model: %w", err)
	}
	m.compiled.Store(c)
	return nil
}
