package maxent

import (
	"errors"
	"fmt"
	"sync"

	"pka/internal/contingency"
	"pka/internal/sumprod"
)

// Compiled is an immutable snapshot of a model bound to a compiled
// sum-product engine: the separation of the mutable fitting model from the
// query engine. It is safe for concurrent use by any number of goroutines —
// coefficients are deep-copied at Compile time and scratch state is pooled —
// and every probability it returns is bit-identical to the equivalent
// Model method evaluated on the snapshot's coefficients.
//
// Snapshots come in two modes. Joint spaces up to denseModelCells compile
// one global engine (eng). Wider models compile in factored mode: one
// engine per constraint block (see blocks.go), with probabilities combined
// as products of per-block sums — no dense joint structure is ever
// allocated. A factored snapshot indexes the attribute space once, by
// blockOf and localOf, so a query finds the blocks its attributes and pins
// touch without probing every block: it runs an engine only on those
// blocks and multiplies in every other block's cached sum.
type Compiled struct {
	names  []string
	cards  []int
	a0     float64
	eng    *sumprod.Compiled // dense mode; nil in factored mode
	blocks []compiledBlock   // factored mode; nil in dense mode
	// blockOf and localOf are the factored attribute index: attribute p is
	// blocks[blockOf[p]].vars[localOf[p]].
	blockOf []int
	localOf []int
	// blockScratch pools a cell buffer sized to the widest block for the
	// factored per-cell paths (CellProb is called once per occupied cell
	// by goodness-of-fit and log-loss scoring).
	blockScratch sync.Pool
}

// compiledBlock is one constraint block's sub-engine: a dense sum-product
// engine over the block's attributes, addressed by block-local positions
// (the snapshot's localOf).
type compiledBlock struct {
	vars  []int // global attribute positions, ascending
	cards []int // cardinalities of vars
	eng   *sumprod.Compiled
	sum   float64 // cached unnormalized block sum Σ Π coeffs
}

// Compile returns the model's compiled inference engine, building it from
// the current coefficients if no snapshot is cached. The cache is
// invalidated by AddConstraint and refreshed by every successful Fit, so a
// fitted model hands out an up-to-date engine for free.
//
// Concurrency: safe to call from any number of goroutines as long as no
// mutation (AddConstraint, Fit) is in flight — the snapshot is published
// through an atomic pointer, and concurrent rebuilds of a stale cache each
// compile the same coefficients, so whichever publication wins is correct.
func (m *Model) Compile() (*Compiled, error) {
	if c := m.compiled.Load(); c != nil {
		return c, nil
	}
	if cells := m.NumCells(); cells > denseModelCells {
		c, err := m.compileFactored(m.decompose(m.blocks()), nil)
		if err == nil {
			m.compiled.Store(c)
			return c, nil
		}
		if !(errors.Is(err, errBlockTooDense) && cells <= maxDenseCells) {
			return nil, err
		}
		// A too-dense block under the absolute ceiling falls through to
		// the dense engine, mirroring Fit's fallback.
	}
	eng, err := sumprod.Compile(m.cards, m.terms())
	if err != nil {
		return nil, err
	}
	c := m.newCompiled()
	c.eng = eng
	m.compiled.Store(c)
	return c, nil
}

// newCompiled starts a snapshot of the model's schema and a0, with no
// engine yet.
func (m *Model) newCompiled() *Compiled {
	return &Compiled{
		names: append([]string(nil), m.names...),
		cards: append([]int(nil), m.cards...),
		a0:    m.a0,
	}
}

// Factored reports whether the snapshot runs in factored (block-decomposed)
// mode — i.e. its joint space is too wide to materialize, so consumers must
// score over occupied cells instead of a dense joint walk.
func (c *Compiled) Factored() bool { return c.eng == nil }

// NumBlocks returns the number of constraint blocks of a factored snapshot
// (0 in dense mode).
func (c *Compiled) NumBlocks() int { return len(c.blocks) }

// BlockVars returns a copy of block i's global attribute positions,
// ascending.
func (c *Compiled) BlockVars(i int) []int {
	return append([]int(nil), c.blocks[i].vars...)
}

// compileFactored builds a factored snapshot over the model's block
// decomposition d, which fitFactored shares with its block solves. Each
// block's engine is compiled from the view's terms and its cached sum is
// the engine's Sum(), unless sums is non-nil: the snapshot restore path
// passes the stored sums, so the restored engine reproduces the saved one
// bit for bit. The snapshot takes d's attribute index and block vars and
// cardinalities, which nothing modifies afterwards.
func (m *Model) compileFactored(d *decomposition, sums []float64) (*Compiled, error) {
	c := m.newCompiled()
	c.blockOf, c.localOf = d.blockOf, d.localOf
	c.blocks = make([]compiledBlock, len(d.blocks))
	maxW := 0
	for bi := range d.blocks {
		v := &d.blocks[bi]
		if err := m.checkBlockSize(v.vars); err != nil {
			return nil, err
		}
		maxW = max(maxW, len(v.vars))
		eng, err := sumprod.Compile(v.cards, v.terms)
		if err != nil {
			return nil, err
		}
		b := &c.blocks[bi]
		b.vars, b.cards, b.eng = v.vars, v.cards, eng
		if sums != nil {
			b.sum = sums[bi]
		} else {
			b.sum = eng.Sum()
		}
	}
	c.blockScratch.New = func() any {
		s := make([]int, maxW)
		return &s
	}
	return c, nil
}

// R returns the number of attributes.
func (c *Compiled) R() int { return len(c.cards) }

// Cards returns a copy of the attribute cardinalities.
func (c *Compiled) Cards() []int { return append([]int(nil), c.cards...) }

// Names returns a copy of the attribute names.
func (c *Compiled) Names() []string { return append([]string(nil), c.names...) }

// A0 returns the snapshot's normalizing coefficient.
func (c *Compiled) A0() float64 { return c.a0 }

// checkCell validates (vars, values) against the attribute space.
func (c *Compiled) checkCell(vars contingency.VarSet, values []int) ([]int, error) {
	members := vars.Members()
	if len(members) != len(values) {
		return nil, fmt.Errorf("maxent: %d values for attribute set %v", len(values), vars)
	}
	if len(members) > 0 && members[len(members)-1] >= len(c.cards) {
		return nil, fmt.Errorf("maxent: attribute set %v exceeds %d attributes", vars, len(c.cards))
	}
	for i, p := range members {
		if values[i] < 0 || values[i] >= c.cards[p] {
			return nil, fmt.Errorf("maxent: value %d out of range for attribute %d", values[i], p)
		}
	}
	return members, nil
}

// Prob returns the normalized probability that the attributes of vars take
// values — one pooled-scratch elimination sweep, no per-call engine build.
// In factored mode the sweep runs per block touched by the pins; untouched
// blocks contribute their cached sums.
func (c *Compiled) Prob(vars contingency.VarSet, values []int) (float64, error) {
	members, err := c.checkCell(vars, values)
	if err != nil {
		return 0, err
	}
	if c.eng != nil {
		return c.a0 * c.eng.SumPinned(members, values), nil
	}
	var tb [8]int
	touched := c.touchedBlocks(tb[:0], members, nil)
	res := c.a0
	lv := make([]int, 0, len(members))
	lvals := make([]int, 0, len(members))
	next := 0
	for bi := range c.blocks {
		b := &c.blocks[bi]
		if next == len(touched) || touched[next] != bi {
			res *= b.sum
			continue
		}
		next++
		lv, lvals = c.localPins(lv[:0], lvals[:0], bi, members, values)
		res *= b.eng.SumPinned(lv, lvals)
	}
	return res, nil
}

// touchedBlocks appends to dst, ascending and without repeats, the blocks
// that hold a member or a pinned attribute (fixed[v] >= 0) of a factored
// snapshot. A query touches few blocks, so insertion into the sorted
// prefix is cheaper than marking all of them.
func (c *Compiled) touchedBlocks(dst, members, fixed []int) []int {
	add := func(bi int) {
		i := len(dst)
		for i > 0 && dst[i-1] > bi {
			i--
		}
		if i > 0 && dst[i-1] == bi {
			return
		}
		dst = append(dst, 0)
		copy(dst[i+1:], dst[i:])
		dst[i] = bi
	}
	for _, p := range members {
		add(c.blockOf[p])
	}
	for v := 0; v < len(fixed) && v < len(c.blockOf); v++ {
		if fixed[v] >= 0 {
			add(c.blockOf[v])
		}
	}
	return dst
}

// localPins appends to lv and lvals the block-local positions and values
// of the members that lie in block bi, in member order.
func (c *Compiled) localPins(lv, lvals []int, bi int, members, values []int) ([]int, []int) {
	for i, p := range members {
		if c.blockOf[p] == bi {
			lv = append(lv, c.localOf[p])
			lvals = append(lvals, values[i])
		}
	}
	return lv, lvals
}

// Marginal returns the model's full marginal distribution over the family:
// every cell's probability, dense row-major over the members ascending
// (first member slowest), computed in a single batch elimination sweep.
// Each entry is bit-identical to the Prob call for that cell.
func (c *Compiled) Marginal(vars contingency.VarSet) ([]float64, error) {
	members := vars.Members()
	if len(members) == 0 {
		return nil, fmt.Errorf("maxent: empty attribute set for marginal")
	}
	if members[len(members)-1] >= len(c.cards) {
		return nil, fmt.Errorf("maxent: attribute set %v exceeds %d attributes", vars, len(c.cards))
	}
	if c.eng == nil {
		return c.factoredMarginal(members, nil)
	}
	out, err := c.eng.Marginal(members)
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i] = c.a0 * out[i]
	}
	return out, nil
}

// MarginalGiven returns the joint probability of every cell of vars together
// with the clamped evidence: fixed[v] >= 0 pins attribute v (which must not
// be a member of vars), -1 leaves it summed over. One batch sweep computes
// the whole conditional slice's numerators.
func (c *Compiled) MarginalGiven(vars contingency.VarSet, fixed []int) ([]float64, error) {
	members := vars.Members()
	if len(members) == 0 {
		return nil, fmt.Errorf("maxent: empty attribute set for marginal")
	}
	if members[len(members)-1] >= len(c.cards) {
		return nil, fmt.Errorf("maxent: attribute set %v exceeds %d attributes", vars, len(c.cards))
	}
	for v := 0; v < len(fixed) && v < len(c.cards); v++ {
		if fixed[v] >= c.cards[v] {
			return nil, fmt.Errorf("maxent: value %d out of range for attribute %d", fixed[v], v)
		}
	}
	if c.eng == nil {
		return c.factoredMarginal(members, fixed)
	}
	out, err := c.eng.MarginalFixed(members, fixed)
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i] = c.a0 * out[i]
	}
	return out, nil
}

// factoredMarginal assembles a (possibly clamped) batch marginal in
// factored mode: each block touched by the family computes its own dense
// sub-marginal in one sweep, blocks touched only by clamps contribute a
// pinned scalar sum, untouched blocks their cached sums, and the family's
// row-major result is the outer product of the parts. The scalar takes
// its factors in block order, as a walk over every block would, so the
// bits match that walk; only the touched blocks run an engine.
func (c *Compiled) factoredMarginal(members []int, fixed []int) ([]float64, error) {
	var tb [8]int
	touched := c.touchedBlocks(tb[:0], members, fixed)
	scalar := c.a0
	type part struct {
		midx []int // indices into members served by this block
		dims []int // cardinalities of those members
		arr  []float64
	}
	var parts []part
	next := 0
	for bi := range c.blocks {
		b := &c.blocks[bi]
		if next == len(touched) || touched[next] != bi {
			scalar *= b.sum
			continue
		}
		next++
		var lm, midx, dims []int
		for i, p := range members {
			if c.blockOf[p] == bi {
				lm = append(lm, c.localOf[p])
				midx = append(midx, i)
				dims = append(dims, c.cards[p])
			}
		}
		var localFixed []int
		for li, p := range b.vars {
			if p < len(fixed) && fixed[p] >= 0 {
				if localFixed == nil {
					localFixed = make([]int, len(b.vars))
					for j := range localFixed {
						localFixed[j] = -1
					}
				}
				localFixed[li] = fixed[p]
			}
		}
		switch {
		case len(lm) > 0:
			arr, err := b.eng.MarginalFixed(lm, localFixed)
			if err != nil {
				return nil, err
			}
			parts = append(parts, part{midx: midx, dims: dims, arr: arr})
		default:
			scalar *= b.eng.SumFixed(localFixed)
		}
	}
	size := 1
	for _, p := range members {
		size *= c.cards[p]
	}
	out := make([]float64, size)
	values := make([]int, len(members))
	for i := 0; i < size; i++ {
		v := scalar
		for _, pt := range parts {
			off := 0
			for k, mi := range pt.midx {
				off = off*pt.dims[k] + values[mi]
			}
			v *= pt.arr[off]
		}
		out[i] = v
		for j := len(members) - 1; j >= 0; j-- {
			values[j]++
			if values[j] < c.cards[members[j]] {
				break
			}
			values[j] = 0
		}
	}
	return out, nil
}

// CellProb returns the normalized probability of one full cell by direct
// product evaluation, multiplying the family coefficients onto a0 in the
// same order Model.CellProb does.
func (c *Compiled) CellProb(cell []int) (float64, error) {
	if len(cell) != len(c.cards) {
		return 0, fmt.Errorf("maxent: cell has %d coordinates, model has %d attributes",
			len(cell), len(c.cards))
	}
	for i, v := range cell {
		if v < 0 || v >= c.cards[i] {
			return 0, fmt.Errorf("maxent: coordinate %d = %d out of range", i, v)
		}
	}
	if c.eng != nil {
		return c.eng.CellValue(c.a0, cell), nil
	}
	scratch := c.blockScratch.Get().(*[]int)
	p := c.a0
	for bi := range c.blocks {
		b := &c.blocks[bi]
		localCell := (*scratch)[:len(b.vars)]
		for li, gp := range b.vars {
			localCell[li] = cell[gp]
		}
		p = b.eng.CellValue(p, localCell)
	}
	c.blockScratch.Put(scratch)
	return p, nil
}

// MaxCell returns the most probable full cell agreeing with fixed
// (fixed[i] >= 0 pins attribute i; any negative entry leaves it free; nil
// leaves every attribute free) and that cell's normalized probability —
// the MPE/MAP primitive. Ties break toward lexicographically smaller
// cells. Dense snapshots enumerate the pinned joint space; factored
// snapshots take the argmax independently per block — exact, because the
// distribution is a product over blocks — so wide-model MPE costs the sum
// of the block sizes, never the joint.
func (c *Compiled) MaxCell(fixed []int) ([]int, float64, error) {
	r := len(c.cards)
	if fixed == nil {
		fixed = make([]int, r)
		for i := range fixed {
			fixed[i] = -1
		}
	}
	if len(fixed) != r {
		return nil, 0, fmt.Errorf("maxent: %d pins for %d attributes", len(fixed), r)
	}
	for i, v := range fixed {
		if v >= c.cards[i] {
			return nil, 0, fmt.Errorf("maxent: value %d out of range for attribute %d", v, i)
		}
	}
	best := make([]int, r)
	if c.eng != nil {
		cell := make([]int, r)
		var free []int
		for i, v := range fixed {
			if v >= 0 {
				cell[i] = v
			} else {
				free = append(free, i)
			}
		}
		bestP := -1.0
		for {
			if p := c.eng.CellValue(c.a0, cell); p > bestP {
				bestP = p
				copy(best, cell)
			}
			i := len(free) - 1
			for i >= 0 {
				cell[free[i]]++
				if cell[free[i]] < c.cards[free[i]] {
					break
				}
				cell[free[i]] = 0
				i--
			}
			if i < 0 || len(free) == 0 {
				break
			}
		}
		return best, bestP, nil
	}
	// Per-block argmax in local row-major order: within a block the local
	// order is the block's attributes ascending, so ArgmaxFixed's tie-break
	// keeps the block-lexicographically smallest maximizer — which composes
	// to the globally lexicographically smallest one, blocks being
	// independent.
	for bi := range c.blocks {
		b := &c.blocks[bi]
		localFixed := make([]int, len(b.vars))
		for li, p := range b.vars {
			localFixed[li] = -1
			if fixed[p] >= 0 {
				localFixed[li] = fixed[p]
			}
		}
		bestLocal, err := b.eng.ArgmaxFixed(localFixed)
		if err != nil {
			return nil, 0, err
		}
		for li, p := range b.vars {
			best[p] = bestLocal[li]
		}
	}
	p, err := c.CellProb(best)
	if err != nil {
		return nil, 0, err
	}
	return best, p, nil
}

// Joint materializes the full normalized joint distribution in row-major
// order (attribute 0 slowest). Intended for small spaces, validation, and
// tests. Factored-mode snapshots materialize by cell-probability products
// while the space fits under maxDenseCells and refuse beyond it — wide
// models must be queried through marginals instead.
func (c *Compiled) Joint() ([]float64, error) {
	if c.eng != nil {
		joint := c.eng.FullJoint()
		for i := range joint {
			joint[i] *= c.a0
		}
		return joint, nil
	}
	size := 1
	for _, card := range c.cards {
		if size > maxDenseCells/card {
			return nil, fmt.Errorf("maxent: joint space too large to materialize (factored model over %d attributes)", len(c.cards))
		}
		size *= card
	}
	joint := make([]float64, size)
	cell := make([]int, len(c.cards))
	for i := range joint {
		p, err := c.CellProb(cell)
		if err != nil {
			return nil, err
		}
		joint[i] = p
		for j := len(cell) - 1; j >= 0; j-- {
			cell[j]++
			if cell[j] < c.cards[j] {
				break
			}
			cell[j] = 0
		}
	}
	return joint, nil
}

// Sum returns the unnormalized total Σ Π coefficients (1/a0 after a fit);
// in factored mode, the product of the block sums.
func (c *Compiled) Sum() float64 {
	if c.eng != nil {
		return c.eng.Sum()
	}
	s := 1.0
	for bi := range c.blocks {
		s *= c.blocks[bi].sum
	}
	return s
}

// constraintRatio returns the model's predicted probability of a constraint
// cell — the convergence measure Residual compares against targets. sum is
// the caller's precomputed Sum(), shared across constraints so the dense
// branch does not repeat the full elimination sweep per constraint.
func (c *Compiled) constraintRatio(cons Constraint, sum float64) float64 {
	members := cons.Family.Members()
	if c.eng != nil {
		return c.eng.SumPinned(members, cons.Values) / sum
	}
	var tb [8]int
	ratio := 1.0
	lv := make([]int, 0, len(members))
	lvals := make([]int, 0, len(members))
	for _, bi := range c.touchedBlocks(tb[:0], members, nil) {
		b := &c.blocks[bi]
		lv, lvals = c.localPins(lv[:0], lvals[:0], bi, members, cons.Values)
		ratio *= b.eng.SumPinned(lv, lvals) / b.sum
	}
	return ratio
}
