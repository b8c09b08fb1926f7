package maxent

import (
	"errors"
	"fmt"
	"math"

	"pka/internal/contingency"
)

// Method selects the fitting algorithm.
type Method int

const (
	// GaussSeidel visits constraints sequentially, each update an exact
	// binary-partition IPF step — the memo's Figure 4 procedure.
	GaussSeidel Method = iota
	// Jacobi computes all updates from one snapshot and applies them
	// together with damping. The ablation baseline of experiment X3.
	Jacobi
)

// String names the method.
func (m Method) String() string {
	switch m {
	case GaussSeidel:
		return "gauss-seidel"
	case Jacobi:
		return "jacobi"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// SolveOptions tunes Fit. The zero value asks for defaults (Gauss–Seidel,
// tolerance 1e-9, 10000 sweeps, no trace).
type SolveOptions struct {
	// Method selects the solver; default GaussSeidel.
	Method Method
	// Tol is the convergence threshold on max |predicted - target|.
	// Default 1e-9.
	Tol float64
	// MaxSweeps bounds the number of passes over the constraints.
	// Default 10000.
	MaxSweeps int
	// Damping (Jacobi only) exponentiates each multiplicative update;
	// default 0.5. Must be in (0, 1].
	Damping float64
	// RecordTrace stores per-sweep snapshots of all constraint
	// coefficients in the report — the memo's Table 2.
	RecordTrace bool
	// Incremental enables the streaming-refit fast path: when the model's
	// last Fit converged and a constraint block's targets have not moved
	// since (no AddConstraint or SetTarget touched its families), the
	// factored solver keeps that block's converged coefficients instead of
	// re-sweeping it, and a fully clean model skips the solve outright.
	// Off, every block is re-solved — the historical behaviour.
	Incremental bool
	// Workers fans the factored solver's independent constraint blocks out
	// over a goroutine pool: each block is solved densely over its own
	// sub-space, and blocks share no coefficients, so they are the natural
	// unit of parallel work. <= 0 uses GOMAXPROCS (matching every worker
	// knob in this module), 1 forces the sequential block loop. The fitted
	// coefficients, a0, and report are bit-identical either way — per-block
	// results are collected into indexed slots and reduced in block order —
	// so the knob trades only wall time. Dense (single-block) solves are
	// unaffected.
	Workers int
}

func (o SolveOptions) withDefaults() (SolveOptions, error) {
	if o.Tol == 0 {
		o.Tol = 1e-9
	}
	if o.Tol < 0 {
		return o, fmt.Errorf("maxent: negative tolerance %g", o.Tol)
	}
	if o.MaxSweeps == 0 {
		o.MaxSweeps = 10000
	}
	if o.MaxSweeps < 0 {
		return o, fmt.Errorf("maxent: negative sweep limit %d", o.MaxSweeps)
	}
	if o.Damping == 0 {
		o.Damping = 0.5
	}
	if o.Damping < 0 || o.Damping > 1 {
		return o, fmt.Errorf("maxent: damping %g outside (0,1]", o.Damping)
	}
	return o, nil
}

// Report describes a Fit run.
type Report struct {
	Method    Method
	Sweeps    int
	Residual  float64 // final max |predicted - target|
	Converged bool
	// Trace[s] is the coefficient snapshot after sweep s+1 (one value per
	// constraint, insertion order), present when RecordTrace was set.
	// Labels carries the memo-style coefficient names.
	Trace  [][]float64
	Labels []string
	// A0Trace[s] is the implied a0 after sweep s+1.
	A0Trace []float64
	// BlocksFit and BlocksSkipped count, on the factored path, how many
	// constraint blocks were re-solved versus kept as-is by an Incremental
	// refit (unconstrained blocks count as skipped only under Incremental;
	// both stay zero on the dense path).
	BlocksFit     int
	BlocksSkipped int
}

// Fit adjusts the model's coefficients until all constraint targets are met
// (Figure 4). On success the model is normalized: a0 = 1/Σ products.
//
// Inconsistent or unreachable constraints (a positive target on a cell with
// zero model support, or probabilities that cannot coexist) surface as an
// error or as Converged == false with the residual reported.
//
// Joint spaces up to denseModelCells solve densely (the memo's procedure
// verbatim); wider models dispatch to the factored solver, which fits each
// constraint block independently — see blocks.go. When the factored solver
// cannot serve the model (a block too densely coupled, or a RecordTrace
// request) and the full joint still fits under maxDenseCells, the dense
// solver absorbs it; only beyond that ceiling does Fit fail.
func (m *Model) Fit(opts SolveOptions) (*Report, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(m.cons) == 0 {
		return nil, fmt.Errorf("maxent: no constraints to fit")
	}
	if opts.Incremental && m.fitClean && m.dirty != nil && len(m.dirty) == 0 {
		// Nothing moved since the last converged fit: the coefficients are
		// already the solution, bit for bit. Refresh the snapshot and go.
		if _, err := m.Compile(); err != nil {
			return nil, err
		}
		return &Report{Method: opts.Method, Converged: true}, nil
	}
	rep, err := m.fitDispatch(opts)
	// Converged fits reset the dirty bookkeeping: the current coefficients
	// solve the current targets, so future Incremental refits may trust it.
	m.fitClean = err == nil && rep.Converged
	if m.fitClean {
		m.dirty = make(map[contingency.VarSet]bool)
	} else if m.dirty != nil && err == nil {
		// Coefficients moved without converging; the map no longer tells
		// which blocks are at their solution.
		m.dirty = nil
	}
	return rep, err
}

// fitDispatch routes between the dense and factored solvers (Fit's
// historical body, minus the dirty bookkeeping wrapped around it).
func (m *Model) fitDispatch(opts SolveOptions) (*Report, error) {
	cells := m.NumCells()
	if cells <= denseModelCells {
		return m.fitDense(opts)
	}
	if opts.RecordTrace {
		if cells <= maxDenseCells {
			return m.fitDense(opts)
		}
		return nil, fmt.Errorf("maxent: RecordTrace is not supported on the factored (wide-model) solve path")
	}
	rep, err := m.fitFactored(opts)
	if err != nil && errors.Is(err, errBlockTooDense) && cells <= maxDenseCells {
		return m.fitDense(opts)
	}
	return rep, err
}

// fitDense is the dense-joint solve plus the compiled-snapshot refresh the
// public Fit contract promises: opts must already be validated and
// defaulted, and at least one constraint registered.
func (m *Model) fitDense(opts SolveOptions) (*Report, error) {
	rep, err := m.fitDenseCore(opts)
	if err != nil {
		return nil, err
	}
	// Refresh the compiled snapshot so the fitted model serves queries —
	// including the concurrent scan's batch marginals — without a rebuild.
	if _, err := m.Compile(); err != nil {
		return nil, err
	}
	return rep, nil
}

// fitDenseCore runs the dense solve without compiling a snapshot — the
// factored solver fits throwaway per-block sub-models through it and
// compiles the parent once at the end instead.
func (m *Model) fitDenseCore(opts SolveOptions) (*Report, error) {
	m.compiled.Store(nil) // coefficients are about to move; drop the snapshot
	m.blockA0 = nil       // a dense solve moves coefficients outside the block bookkeeping
	s := newSolverState(m)
	rep := &Report{Method: opts.Method}
	if opts.RecordTrace {
		rep.Labels = m.ConstraintLabels()
	}
	for sweep := 1; sweep <= opts.MaxSweeps; sweep++ {
		var resid float64
		var serr error
		switch opts.Method {
		case GaussSeidel:
			resid, serr = s.sweepGaussSeidel()
		case Jacobi:
			resid, serr = s.sweepJacobi(opts.Damping)
		default:
			return nil, fmt.Errorf("maxent: unknown method %v", opts.Method)
		}
		if serr != nil {
			return nil, serr
		}
		rep.Sweeps = sweep
		rep.Residual = resid
		if opts.RecordTrace {
			rep.Trace = append(rep.Trace, s.coefficientSnapshot())
			rep.A0Trace = append(rep.A0Trace, 1/s.sumW)
		}
		if resid < opts.Tol {
			rep.Converged = true
			break
		}
	}
	if s.sumW <= 0 || math.IsNaN(s.sumW) || math.IsInf(s.sumW, 0) {
		return nil, fmt.Errorf("maxent: degenerate weight sum %g after fitting", s.sumW)
	}
	m.a0 = 1 / s.sumW
	return rep, nil
}

// solverState caches the dense unnormalized joint w = Π coefficients so
// constraint updates cost O(matching cells) instead of a full recursion.
// The normalized model probability of a cell is w[cell]/sumW throughout.
type solverState struct {
	m       *Model
	strides []int
	w       []float64
	sumW    float64
	// match[i] lists the flat joint offsets covered by constraint i.
	match [][]int
	// order visits zero-target constraints first, so degenerate values are
	// zeroed before their complement constraints (which then read target 1
	// trivially satisfied) are touched.
	order []int
}

func newSolverState(m *Model) *solverState {
	size := m.NumCells()
	s := &solverState{
		m:       m,
		strides: make([]int, len(m.cards)),
		w:       make([]float64, size),
		match:   make([][]int, len(m.cons)),
	}
	stride := 1
	for i := len(m.cards) - 1; i >= 0; i-- {
		s.strides[i] = stride
		stride *= m.cards[i]
	}
	// Initialize weights from current coefficients (all 1 on a fresh model;
	// refits after discovery start from the previous solution, the memo's
	// "starting with the last previously calculated a values").
	famOrder := sortedFamilies(m.families)
	cell := make([]int, len(m.cards))
	for off := 0; off < size; off++ {
		rem := off
		for i := len(m.cards) - 1; i >= 0; i-- {
			cell[i] = rem % m.cards[i]
			rem /= m.cards[i]
		}
		p := 1.0
		for _, vs := range famOrder {
			ft := m.families[vs]
			fo := 0
			for _, pos := range ft.vars {
				fo = fo*m.cards[pos] + cell[pos]
			}
			p *= ft.coeffs[fo]
		}
		s.w[off] = p
		s.sumW += p
	}
	for i, c := range m.cons {
		s.match[i] = s.matchingOffsets(c)
	}
	s.order = make([]int, 0, len(m.cons))
	for i, c := range m.cons {
		if c.Target == 0 {
			s.order = append(s.order, i)
		}
	}
	for i, c := range m.cons {
		if c.Target != 0 {
			s.order = append(s.order, i)
		}
	}
	return s
}

// matchingOffsets enumerates the flat joint offsets whose coordinates agree
// with the constraint's family cell.
func (s *solverState) matchingOffsets(c Constraint) []int {
	members := c.Family.Members()
	base := 0
	for i, p := range members {
		base += c.Values[i] * s.strides[p]
	}
	var free []int
	for axis := range s.m.cards {
		if !c.Family.Has(axis) {
			free = append(free, axis)
		}
	}
	count := 1
	for _, axis := range free {
		count *= s.m.cards[axis]
	}
	out := make([]int, 0, count)
	idx := make([]int, len(free))
	for {
		off := base
		for i, axis := range free {
			off += idx[i] * s.strides[axis]
		}
		out = append(out, off)
		i := len(free) - 1
		for i >= 0 {
			idx[i]++
			if idx[i] < s.m.cards[free[i]] {
				break
			}
			idx[i] = 0
			i--
		}
		if i < 0 {
			break
		}
	}
	return out
}

// updateFactors returns the exact binary-partition IPF factors for
// constraint c at model mass q: matched cells scale by f = target/q,
// complement by g = (1-target)/(1-q). In product form this is a single
// odds-ratio update of the constraint's coefficient (× f/g) since the
// complement factor cancels in normalization. The constraint's label is
// formatted from names only on the error path: sweeps call this once per
// constraint per sweep.
func updateFactors(q float64, c Constraint, names []string) (f, g float64, err error) {
	target := c.Target
	switch {
	case q == target:
		return 1, 1, nil
	case q <= 0:
		if target == 0 {
			return 1, 1, nil
		}
		return 0, 0, fmt.Errorf("maxent: constraint %s target %g has zero model support", c.Label(names), target)
	case q >= 1:
		if target == 1 {
			return 1, 1, nil
		}
		return 0, 0, fmt.Errorf("maxent: constraint %s target %g but model mass is all on the cell", c.Label(names), target)
	case target == 0:
		return 0, 1 / (1 - q), nil
	case target == 1:
		return 0, 0, fmt.Errorf("maxent: constraint %s target 1 requires emptying its complement; declare the attribute with cardinality 1 instead", c.Label(names))
	default:
		return target / q, (1 - target) / (1 - q), nil
	}
}

// sweepGaussSeidel performs one pass of sequential exact updates and returns
// the max pre-update residual.
func (s *solverState) sweepGaussSeidel() (float64, error) {
	maxResid := 0.0
	for _, ci := range s.order {
		c := s.m.cons[ci]
		var matchSum float64
		for _, off := range s.match[ci] {
			matchSum += s.w[off]
		}
		q := matchSum / s.sumW
		if d := math.Abs(q - c.Target); d > maxResid {
			maxResid = d
		}
		f, g, err := updateFactors(q, c, s.m.names)
		if err != nil {
			return 0, err
		}
		if f == 1 && g == 1 {
			continue
		}
		// Stored weights are coefficient products: matched cells absorb
		// f/g; the uniform complement factor g cancels against a0.
		odds := f / g
		ft := s.m.families[c.Family]
		ft.coeffs[ft.offset(s.m.cards, c.Values)] *= odds
		newMatch := 0.0
		for _, off := range s.match[ci] {
			s.w[off] *= odds
			newMatch += s.w[off]
		}
		s.sumW += newMatch - matchSum
	}
	// Guard against incremental drift across many sweeps.
	s.recomputeSum()
	return maxResid, nil
}

// sweepJacobi computes all factors from the current snapshot, then applies
// them damped. Returns the max pre-update residual.
func (s *solverState) sweepJacobi(damping float64) (float64, error) {
	type upd struct {
		ci   int
		odds float64
	}
	maxResid := 0.0
	updates := make([]upd, 0, len(s.m.cons))
	for _, ci := range s.order {
		c := s.m.cons[ci]
		var matchSum float64
		for _, off := range s.match[ci] {
			matchSum += s.w[off]
		}
		q := matchSum / s.sumW
		if d := math.Abs(q - c.Target); d > maxResid {
			maxResid = d
		}
		f, g, err := updateFactors(q, c, s.m.names)
		if err != nil {
			return 0, err
		}
		if f == 1 && g == 1 {
			continue
		}
		if f == 0 {
			updates = append(updates, upd{ci: ci, odds: 0})
			continue
		}
		updates = append(updates, upd{ci: ci, odds: math.Pow(f/g, damping)})
	}
	for _, u := range updates {
		c := s.m.cons[u.ci]
		ft := s.m.families[c.Family]
		ft.coeffs[ft.offset(s.m.cards, c.Values)] *= u.odds
		for _, wOff := range s.match[u.ci] {
			s.w[wOff] *= u.odds
		}
	}
	s.recomputeSum()
	return maxResid, nil
}

func (s *solverState) recomputeSum() {
	total := 0.0
	for _, v := range s.w {
		total += v
	}
	s.sumW = total
}

// coefficientSnapshot returns the current coefficient of every constraint in
// insertion order.
func (s *solverState) coefficientSnapshot() []float64 {
	out := make([]float64, len(s.m.cons))
	for i, c := range s.m.cons {
		ft := s.m.families[c.Family]
		out[i] = ft.coeffs[ft.offset(s.m.cards, c.Values)]
	}
	return out
}
