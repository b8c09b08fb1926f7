package maxent

import (
	"errors"
	"fmt"
	"math"

	"pka/internal/contingency"
	"pka/internal/sumprod"
)

// SolveOptions tunes Fit, which always runs the memo's Gauss–Seidel
// iterative scaling (Figure 4). The zero value asks for defaults
// (tolerance 1e-9, 10000 sweeps, no trace).
type SolveOptions struct {
	// Tol is the convergence threshold on max |predicted - target|.
	// Default 1e-9.
	Tol float64
	// MaxSweeps bounds the number of passes over the constraints.
	// Default 10000.
	MaxSweeps int
	// RecordTrace stores per-sweep snapshots of all constraint
	// coefficients in the report — the memo's Table 2.
	RecordTrace bool
	// Incremental enables the streaming-refit fast path: when the model's
	// last Fit converged and a constraint block's targets have not moved
	// since (no AddConstraint or SetTarget touched its families), the
	// factored solver keeps that block's converged coefficients instead of
	// re-sweeping it, and takes the block's a0 from the last fit, or from
	// one pass over its cells when none is cached (a restored model); a
	// fully clean model skips the solve outright. Off, every block is
	// re-solved — the historical behaviour.
	Incremental bool
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
	return o, nil
}

// Report describes a Fit run.
type Report struct {
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
		return &Report{Converged: true}, nil
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
// defaulted, and at least one constraint registered. It runs the block
// solver over the identity view.
func (m *Model) fitDense(opts SolveOptions) (*Report, error) {
	m.compiled.Store(nil) // coefficients are about to move; drop the snapshot
	m.blockA0 = nil       // a dense solve moves coefficients outside the block bookkeeping
	rep, a0, err := m.solve(m.wholeView(), opts)
	if err != nil {
		return nil, err
	}
	m.a0 = a0
	// Refresh the compiled snapshot so the fitted model serves queries —
	// including the concurrent scan's batch marginals — without a rebuild.
	if _, err := m.Compile(); err != nil {
		return nil, err
	}
	return rep, nil
}

// solve runs the Gauss–Seidel sweeps over one view of the model, writing
// the model's coefficients in place, and returns the report and the
// view's a0, 1/Σ products. opts must already be validated and defaulted.
func (m *Model) solve(v *blockView, opts SolveOptions) (*Report, float64, error) {
	s := newSolverState(v, m.cons, m.names)
	rep := &Report{}
	if opts.RecordTrace {
		rep.Labels = m.ConstraintLabels()
	}
	for sweep := 1; sweep <= opts.MaxSweeps; sweep++ {
		resid, err := s.sweepGaussSeidel()
		if err != nil {
			return nil, 0, err
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
		return nil, 0, fmt.Errorf("maxent: degenerate weight sum %g after fitting", s.sumW)
	}
	return rep, 1 / s.sumW, nil
}

// solverState caches the dense unnormalized joint w = Π coefficients of
// one view so constraint updates cost O(matching cells) instead of a full
// recursion. The normalized probability of a cell is w[cell]/sumW
// throughout.
//
// A constraint's matched cells come in contiguous runs: every attribute
// above the family's highest member is free, and those are the fastest
// digits of the row-major joint, so the cells agreeing with the family
// cell are n = Π cards above that member consecutive offsets per
// combination of the free attributes below it. Sweeps walk w[st:st+n] for
// each start in ascending order — the same cells in the same order as a
// per-offset list, at a fraction of its memory.
type solverState struct {
	w    []float64
	sumW float64
	// cons and names are the model's: the view's constraints index cons,
	// and error labels name them as the model does.
	cons  []Constraint
	names []string
	// runs[k] holds the matched runs and coefficient of the view's k-th
	// constraint, cons[idx[k]].
	idx  []int
	runs []matchRuns
	// order lists the runs to visit, zero-target constraints first, so
	// degenerate values are zeroed before their complement constraints
	// (which then read target 1 trivially satisfied) are touched.
	order []int
}

func newSolverState(v *blockView, cons []Constraint, names []string) *solverState {
	s := &solverState{
		w:     make([]float64, v.numCells()),
		cons:  cons,
		names: names,
		idx:   v.cons,
		runs:  make([]matchRuns, len(v.cons)),
	}
	// Initialize weights from current coefficients (all 1 on a fresh model;
	// refits after discovery start from the previous solution, the memo's
	// "starting with the last previously calculated a values").
	s.sumW = v.weights(s.w)
	strides := make([]int, len(v.cards))
	stride := 1
	for i := len(v.cards) - 1; i >= 0; i-- {
		strides[i] = stride
		stride *= v.cards[i]
	}
	for k, ci := range v.cons {
		c := cons[ci]
		s.runs[k] = matchingRuns(c.Values, v.term(c.Family), v.cards, strides)
	}
	s.order = make([]int, 0, len(v.cons))
	for k, ci := range v.cons {
		if cons[ci].Target == 0 {
			s.order = append(s.order, k)
		}
	}
	for k, ci := range v.cons {
		if cons[ci].Target != 0 {
			s.order = append(s.order, k)
		}
	}
	return s
}

// matchRuns is one constraint's bookkeeping, resolved once per solver
// state so sweeps never look the family up.
type matchRuns struct {
	starts []int    // first offset of each run, ascending
	n      int      // common run length
	coeff  *float64 // the coefficient the constraint adjusts
}

// matchingRuns enumerates the contiguous runs of flat offsets, in a view
// with cards and row-major strides, whose coordinates agree with the
// family cell values of term t: one start per combination of the free
// attributes below the family's highest member (odometer order, last
// fastest), each run strides[highest] cells long. The coefficient is the
// cell's entry in t.Coeffs.
func matchingRuns(values []int, t sumprod.Term, cards, strides []int) matchRuns {
	top := t.Vars[len(t.Vars)-1]
	base, coeff := 0, 0
	for i, p := range t.Vars {
		base += values[i] * strides[p]
		coeff = coeff*cards[p] + values[i]
	}
	var free []int
	count, next := 1, 0
	for axis := 0; axis < top; axis++ {
		if axis == t.Vars[next] {
			next++
			continue
		}
		free = append(free, axis)
		count *= cards[axis]
	}
	out := make([]int, 0, count)
	idx := make([]int, len(free))
	for {
		off := base
		for i, axis := range free {
			off += idx[i] * strides[axis]
		}
		out = append(out, off)
		i := len(free) - 1
		for i >= 0 {
			idx[i]++
			if idx[i] < cards[free[i]] {
				break
			}
			idx[i] = 0
			i--
		}
		if i < 0 {
			break
		}
	}
	return matchRuns{starts: out, n: strides[top], coeff: &t.Coeffs[coeff]}
}

// matchSum returns Σ w over run k's matched cells, ascending.
func (s *solverState) matchSum(k int) float64 {
	var sum float64
	mr := &s.runs[k]
	for _, st := range mr.starts {
		for _, v := range s.w[st : st+mr.n] {
			sum += v
		}
	}
	return sum
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
	for _, k := range s.order {
		c := s.cons[s.idx[k]]
		matchSum := s.matchSum(k)
		q := matchSum / s.sumW
		if d := math.Abs(q - c.Target); d > maxResid {
			maxResid = d
		}
		f, g, err := updateFactors(q, c, s.names)
		if err != nil {
			return 0, err
		}
		if f == 1 && g == 1 {
			continue
		}
		// Stored weights are coefficient products: matched cells absorb
		// f/g; the uniform complement factor g cancels against a0.
		odds := f / g
		mr := &s.runs[k]
		*mr.coeff *= odds
		newMatch := 0.0
		for _, st := range mr.starts {
			run := s.w[st : st+mr.n]
			for k := range run {
				run[k] *= odds
				newMatch += run[k]
			}
		}
		s.sumW += newMatch - matchSum
	}
	// Guard against incremental drift across many sweeps.
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

// coefficientSnapshot returns the current coefficient of every constraint
// of the view, in its order.
func (s *solverState) coefficientSnapshot() []float64 {
	out := make([]float64, len(s.runs))
	for i := range s.runs {
		out[i] = *s.runs[i].coeff
	}
	return out
}
