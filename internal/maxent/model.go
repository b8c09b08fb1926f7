package maxent

import (
	"fmt"
	"math"
	"sync/atomic"

	"pka/internal/contingency"
	"pka/internal/stats"
	"pka/internal/sumprod"
)

// Model is the product-form joint distribution of Eq. 12. Construct with
// NewModel, add constraints, then Fit. Until fitted, a0 is 1 and the model
// is unnormalized.
//
// Concurrency: mutation (AddConstraint, Fit, UnmarshalJSON) must be
// single-threaded and must not overlap queries. Query methods (Prob,
// Marginal, CellProb, Joint, ...) serve from an immutable compiled snapshot
// published through an atomic pointer, so any number of goroutines may
// query concurrently — even when the snapshot is stale and must be rebuilt,
// racing rebuilds are benign (each compiles the same coefficients).
type Model struct {
	names    []string
	cards    []int
	a0       float64
	families map[contingency.VarSet]*familyTerm
	cons     []Constraint
	conIdx   map[conKey]int
	// compiled caches the immutable inference engine for the current
	// coefficients; nil means no snapshot (invalidated by mutation). The
	// holder is a pointer so UnmarshalJSON's struct copy stays legal; Clone
	// gives the copy its own holder.
	compiled *atomic.Pointer[Compiled]
	// dirty tracks the families mutated (constraint added or retargeted)
	// since the last converged Fit; nil means unknown (everything dirty).
	// fitClean reports that the last Fit converged with this bookkeeping
	// intact — together they let an Incremental factored refit skip blocks
	// whose constraints did not move (see fitFactored).
	dirty    map[contingency.VarSet]bool
	fitClean bool
	// blockA0 caches each constraint block's a0 contribution from the last
	// factored fit, keyed by the block's member set. An Incremental refit
	// reuses a clean block's cached contribution bit-for-bit, so the refit
	// a0 stays exactly consistent with the previous fit; a clean block
	// missing from it is summed in one pass over its cells, the walk that
	// seeds the solver's weights. Dense solves invalidate it (coefficients
	// move outside block bookkeeping); nil means no cache.
	blockA0 map[contingency.VarSet]float64
}

// familyTerm holds the dense coefficient array of one attribute family.
// Cells without an attached constraint keep coefficient 1 (the memo's
// Eq. 116: non-significant a's are replaced by 1).
type familyTerm struct {
	vars   []int
	coeffs []float64
}

// NewModel creates an empty model over the given attribute space.
// names may be nil (attributes are then labeled v0, v1, ...).
func NewModel(names []string, cards []int) (*Model, error) {
	if len(cards) == 0 {
		return nil, fmt.Errorf("maxent: model needs at least one attribute")
	}
	if len(cards) > contingency.MaxVars {
		return nil, fmt.Errorf("maxent: %d attributes exceeds limit %d",
			len(cards), contingency.MaxVars)
	}
	for i, c := range cards {
		if c < 1 {
			return nil, fmt.Errorf("maxent: attribute %d has cardinality %d", i, c)
		}
	}
	if names != nil && len(names) != len(cards) {
		return nil, fmt.Errorf("maxent: %d names for %d attributes", len(names), len(cards))
	}
	m := &Model{
		cards:    append([]int(nil), cards...),
		a0:       1,
		families: make(map[contingency.VarSet]*familyTerm),
		conIdx:   make(map[conKey]int),
		compiled: &atomic.Pointer[Compiled]{},
		dirty:    make(map[contingency.VarSet]bool),
	}
	if names == nil {
		m.names = make([]string, len(cards))
		for i := range m.names {
			m.names[i] = fmt.Sprintf("v%d", i)
		}
	} else {
		m.names = append([]string(nil), names...)
	}
	return m, nil
}

// R returns the number of attributes.
func (m *Model) R() int { return len(m.cards) }

// Cards returns a copy of the attribute cardinalities.
func (m *Model) Cards() []int { return append([]int(nil), m.cards...) }

// Names returns a copy of the attribute names.
func (m *Model) Names() []string { return append([]string(nil), m.names...) }

// NumCells returns the size of the joint space, saturating at MaxInt for
// wide attribute spaces whose cell count overflows — models over such
// spaces are served by the factored (block-decomposed) engine and never
// materialize the joint.
func (m *Model) NumCells() int {
	size := 1
	for _, c := range m.cards {
		if size > math.MaxInt/c {
			return math.MaxInt
		}
		size *= c
	}
	return size
}

// Constraints returns a copy of the registered constraints in insertion
// order.
func (m *Model) Constraints() []Constraint {
	return append([]Constraint(nil), m.cons...)
}

// NumConstraints returns how many constraints are registered.
func (m *Model) NumConstraints() int { return len(m.cons) }

// HasConstraint reports whether a constraint on exactly this family cell is
// registered.
func (m *Model) HasConstraint(family contingency.VarSet, values []int) bool {
	c := Constraint{Family: family, Values: values}
	if c.validate(m.cards) != nil {
		return false
	}
	m.ensureConIdx()
	_, ok := m.conIdx[c.indexKey(m.cards)]
	return ok
}

// ensureConIdx builds the constraint lookup index on first use. A restored
// model leaves conIdx nil — snapshot loads never mutate, so paying for the
// index up front would tax every cold start for a map
// most servers never touch. Mutation entry points call this before reading
// the map; like all Model mutation it assumes the single-writer contract.
func (m *Model) ensureConIdx() {
	if m.conIdx != nil {
		return
	}
	m.conIdx = make(map[conKey]int, len(m.cons))
	for i, c := range m.cons {
		m.conIdx[c.indexKey(m.cards)] = i
	}
}

// AddConstraint registers a constraint and allocates its coefficient.
// Adding the same family cell twice is an error — the discovery loop must
// never re-add a significant cell.
func (m *Model) AddConstraint(c Constraint) error {
	if err := c.validate(m.cards); err != nil {
		return err
	}
	m.ensureConIdx()
	k := c.indexKey(m.cards)
	if _, dup := m.conIdx[k]; dup {
		return fmt.Errorf("maxent: duplicate constraint on %s", c.Label(m.names))
	}
	if _, ok := m.families[c.Family]; !ok {
		members := c.Family.Members()
		size := 1
		for _, p := range members {
			size *= m.cards[p]
		}
		ft := &familyTerm{vars: members, coeffs: make([]float64, size)}
		for i := range ft.coeffs {
			ft.coeffs[i] = 1
		}
		m.families[c.Family] = ft
	}
	m.conIdx[k] = len(m.cons)
	m.cons = append(m.cons, Constraint{
		Family: c.Family,
		Values: append([]int(nil), c.Values...),
		Target: c.Target,
	})
	m.markDirty(c.Family)
	m.compiled.Store(nil) // coefficient layout changed; snapshot is stale
	return nil
}

// markDirty records that a family's constraints moved since the last
// converged fit. A nil dirty map means the bookkeeping is already
// "everything dirty" and stays that way.
func (m *Model) markDirty(family contingency.VarSet) {
	if m.dirty != nil {
		m.dirty[family] = true
	}
}

// SetTarget updates the target of an existing constraint in place — the
// streaming-refit mutation: observed counts moved but the constraint
// structure did not. Coefficients stay put, so the next Fit warm-starts
// from the previous solution instead of re-solving from uniform; only the
// compiled snapshot is invalidated. Retargeting a zero-target constraint to
// a positive target resets its coefficient to 1 (the zeroing update is not
// invertible, and a zero coefficient would leave the new target without
// model support).
func (m *Model) SetTarget(family contingency.VarSet, values []int, target float64) error {
	c := Constraint{Family: family, Values: values, Target: target}
	if err := c.validate(m.cards); err != nil {
		return err
	}
	m.ensureConIdx()
	i, ok := m.conIdx[c.indexKey(m.cards)]
	if !ok {
		return fmt.Errorf("maxent: no constraint on %s to retarget", c.Label(m.names))
	}
	if m.cons[i].Target == target {
		return nil
	}
	if m.cons[i].Target == 0 && target != 0 {
		ft := m.families[family]
		ft.coeffs[ft.offset(m.cards, m.cons[i].Values)] = 1
	}
	m.cons[i].Target = target
	m.markDirty(family)
	m.compiled.Store(nil)
	return nil
}

// AddFirstOrderConstraints registers the memo's Eq. 48 starting constraints:
// p_i = N_i / N for every value of every attribute of the counts backend
// (dense or sparse).
func (m *Model) AddFirstOrderConstraints(t contingency.Counts) error {
	if t.R() != m.R() {
		return fmt.Errorf("maxent: table has %d attributes, model has %d", t.R(), m.R())
	}
	if t.Total() == 0 {
		return fmt.Errorf("maxent: empty table")
	}
	for axis := 0; axis < t.R(); axis++ {
		if t.Card(axis) != m.cards[axis] {
			return fmt.Errorf("maxent: axis %d cardinality mismatch: table %d, model %d",
				axis, t.Card(axis), m.cards[axis])
		}
		fam := contingency.NewVarSet(axis)
		for v := 0; v < t.Card(axis); v++ {
			n, err := t.MarginalCount(fam, []int{v})
			if err != nil {
				return err
			}
			c := Constraint{
				Family: fam,
				Values: []int{v},
				Target: float64(n) / float64(t.Total()),
			}
			if err := m.AddConstraint(c); err != nil {
				return err
			}
		}
	}
	return nil
}

// famOffset converts family-cell values (ascending member order) to the
// family's dense coefficient offset.
func (ft *familyTerm) offset(cards []int, values []int) int {
	off := 0
	for i, p := range ft.vars {
		off = off*cards[p] + values[i]
	}
	return off
}

// Coefficient returns the a-value attached to the given family cell
// (1 when the family exists but the cell is unconstrained; an error when no
// constraint family covers those attributes).
func (m *Model) Coefficient(family contingency.VarSet, values []int) (float64, error) {
	ft, ok := m.families[family]
	if !ok {
		return 0, fmt.Errorf("maxent: no coefficient family %v", family)
	}
	if len(values) != len(ft.vars) {
		return 0, fmt.Errorf("maxent: %d values for family %v", len(values), family)
	}
	for i, p := range ft.vars {
		if values[i] < 0 || values[i] >= m.cards[p] {
			return 0, fmt.Errorf("maxent: value %d out of range for attribute %d", values[i], p)
		}
	}
	return ft.coeffs[ft.offset(m.cards, values)], nil
}

// A0 returns the normalizing coefficient a0 (Eq. 13); 1 before fitting.
func (m *Model) A0() float64 { return m.a0 }

// terms flattens the family coefficient arrays into sumprod terms, in
// deterministic family order so floating-point results are reproducible
// run to run.
func (m *Model) terms() []sumprod.Term {
	out := make([]sumprod.Term, 0, len(m.families))
	for _, ft := range m.sortedFamilyTerms() {
		out = append(out, sumprod.Term{Vars: ft.vars, Coeffs: ft.coeffs})
	}
	return out
}

// evaluator builds the per-use Appendix B evaluator over the current
// coefficients — the original per-cell path, retained as the reference
// implementation the compiled engine is equivalence-tested against.
func (m *Model) evaluator() (*sumprod.Evaluator, error) {
	return sumprod.NewEvaluator(m.cards, m.terms())
}

// CellProb returns the normalized probability of one full cell: Eq. 12
// evaluated directly as a0 times the product of family coefficients.
func (m *Model) CellProb(cell []int) (float64, error) {
	c, err := m.Compile()
	if err != nil {
		return 0, err
	}
	return c.CellProb(cell)
}

// Prob returns the normalized probability that the attributes of `vars`
// take `values` (ascending member order) — a marginal of the model computed
// by the Appendix B recursion, never by materializing the joint.
func (m *Model) Prob(vars contingency.VarSet, values []int) (float64, error) {
	c, err := m.Compile()
	if err != nil {
		return 0, err
	}
	return c.Prob(vars, values)
}

// Marginal returns the model's marginal distribution over every cell of the
// family in one batch elimination sweep — see Compiled.Marginal.
func (m *Model) Marginal(vars contingency.VarSet) ([]float64, error) {
	c, err := m.Compile()
	if err != nil {
		return nil, err
	}
	return c.Marginal(vars)
}

// Marginals returns the model's marginal distribution over every family
// of the batch — see Compiled.Marginals. Each discovery scan pass makes
// one such call for its candidate families.
func (m *Model) Marginals(families []contingency.VarSet, workers int) ([][]float64, error) {
	c, err := m.Compile()
	if err != nil {
		return nil, err
	}
	return c.Marginals(families, workers)
}

// Joint materializes the full normalized joint distribution in row-major
// order (attribute 0 slowest). Intended for small spaces and tests; it
// fails on factored models whose joint space exceeds maxDenseCells.
func (m *Model) Joint() ([]float64, error) {
	c, err := m.Compile()
	if err != nil {
		return nil, err
	}
	return c.Joint()
}

// Entropy returns H of the fitted joint in nats (Eq. 7).
func (m *Model) Entropy() (float64, error) {
	joint, err := m.Joint()
	if err != nil {
		return 0, err
	}
	return stats.Entropy(joint), nil
}

// Residual returns the largest |predicted - target| over all constraints —
// the convergence measure of Figure 4.
func (m *Model) Residual() (float64, error) {
	c, err := m.Compile()
	if err != nil {
		return 0, err
	}
	sum := c.Sum()
	if sum <= 0 || math.IsNaN(sum) || math.IsInf(sum, 0) {
		return 0, fmt.Errorf("maxent: degenerate model sum %g", sum)
	}
	worst := 0.0
	for _, cons := range m.cons {
		q := c.constraintRatio(cons, sum)
		if d := math.Abs(q - cons.Target); d > worst {
			worst = d
		}
	}
	return worst, nil
}

// Clone returns a deep copy of the model, constraints and coefficients
// included. The discovery engine clones before speculative refits.
func (m *Model) Clone() *Model {
	cp := &Model{
		names:    append([]string(nil), m.names...),
		cards:    append([]int(nil), m.cards...),
		a0:       m.a0,
		families: make(map[contingency.VarSet]*familyTerm, len(m.families)),
		cons:     make([]Constraint, len(m.cons)),
	}
	for vs, ft := range m.families {
		cp.families[vs] = &familyTerm{
			vars:   append([]int(nil), ft.vars...),
			coeffs: append([]float64(nil), ft.coeffs...),
		}
	}
	for i, c := range m.cons {
		cp.cons[i] = Constraint{
			Family: c.Family,
			Values: append([]int(nil), c.Values...),
			Target: c.Target,
		}
	}
	// A nil conIdx (restored-from-snapshot model, index not yet demanded)
	// stays nil in the clone; ensureConIdx rebuilds it on first mutation.
	if m.conIdx != nil {
		cp.conIdx = make(map[conKey]int, len(m.conIdx))
		for k, v := range m.conIdx {
			cp.conIdx[k] = v
		}
	}
	if m.dirty != nil {
		cp.dirty = make(map[contingency.VarSet]bool, len(m.dirty))
		for vs := range m.dirty {
			cp.dirty[vs] = true
		}
	}
	if m.blockA0 != nil {
		cp.blockA0 = make(map[contingency.VarSet]float64, len(m.blockA0))
		for vs, a := range m.blockA0 {
			cp.blockA0[vs] = a
		}
	}
	cp.fitClean = m.fitClean
	// The compiled snapshot is immutable and matches the copied
	// coefficients, so the clone can share it until its next mutation —
	// but in its own holder, so invalidation never crosses models.
	cp.compiled = &atomic.Pointer[Compiled]{}
	cp.compiled.Store(m.compiled.Load())
	return cp
}

// ConstraintLabels returns the memo-style a-labels of all constraints in
// insertion order, for trace rendering (Table 2's column headers).
func (m *Model) ConstraintLabels() []string {
	out := make([]string, len(m.cons))
	for i, c := range m.cons {
		out[i] = c.Label(m.names)
	}
	return out
}
