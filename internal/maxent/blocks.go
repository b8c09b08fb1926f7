package maxent

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"pka/internal/contingency"
	"pka/internal/sumprod"
)

// Wide attribute spaces cannot be fit or queried through dense joint
// materialization: the memo's machinery is exponential in R. But the
// product-form model factorizes exactly over the connected components of
// its constraint graph — attributes joined through shared multi-attribute
// families. Constraints are block-local, the maximum-entropy objective
// separates over blocks, and every joint/marginal probability is a product
// of per-block quantities. The factored solver and engine exploit this:
// each block is solved and queried densely over its own (small) sub-space,
// and blocks are combined by multiplication. On discovery workloads blocks
// stay small — screening plus the level-wise scan admit few couplings — so
// the wide path costs the sum of small dense problems, never the joint.

// denseModelCells is the largest joint space fit and compiled densely by
// default; above it the factored path takes over. It is a variable so
// equivalence tests can force the factored path onto small models.
var denseModelCells = 1 << 20

// maxDenseCells is the absolute dense-joint ceiling (the former NewModel
// cap): when the factored path cannot serve a model — one constraint block
// too densely coupled, a solver-trace request, or a Joint()/Entropy()
// materialization — the dense path absorbs the work as long as the full
// joint still fits under this ceiling, preserving the pre-factored
// capability range. Only models beyond it hard-fail those operations. A
// variable so tests can exercise the refusal on small models.
var maxDenseCells = 1 << 28

// errBlockTooDense marks a factored-path failure the dense fallback in
// Fit and Compile may absorb.
var errBlockTooDense = errors.New("maxent: constraint block too densely coupled for the factored engine")

// checkBlockSize returns errBlockTooDense (wrapped with the block and cap)
// when one constraint block's dense cell count exceeds denseModelCells —
// the single bound both the factored solver and the factored compiler
// enforce.
func (m *Model) checkBlockSize(blk []int) error {
	size := 1
	for _, p := range blk {
		if size > denseModelCells/m.cards[p] {
			return fmt.Errorf("maxent: block %v exceeds %d dense cells: %w",
				blk, denseModelCells, errBlockTooDense)
		}
		size *= m.cards[p]
	}
	return nil
}

// blocks partitions the attribute positions into the connected components
// of the constraint graph (union-find over every order >= 2 family). Each
// block lists its members ascending; blocks are ordered by smallest member,
// so the decomposition is deterministic.
func (m *Model) blocks() [][]int {
	parent := make([]int, len(m.cards))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	for _, ft := range m.families {
		for _, p := range ft.vars[1:] {
			union(ft.vars[0], p)
		}
	}
	// A component's root is its smallest member (union keeps the smaller
	// root), so numbering the roots in position order numbers the blocks
	// by smallest member; bucketing the positions by block keeps each
	// block's members ascending. blocks() runs on every compile, including
	// the snapshot-restore cold-start path, so it uses no map.
	num := make([]int, len(m.cards))
	nb := 0
	for p := range m.cards {
		if find(p) == p {
			num[p] = nb
			nb++
		}
	}
	order, start := bucket(make([]int, len(m.cards)), make([]int, nb+1), func(p int) int {
		return num[find(p)]
	})
	out := make([][]int, nb)
	for b := range out {
		out[b] = order[start[b]:start[b+1]:start[b+1]]
	}
	return out
}

// decomposition partitions the model's attributes into blocks and holds
// each block in its own coordinates. One is built per fit, and the three
// jobs that work block by block read it: the Gauss–Seidel solve of a block,
// the one-pass sum of a clean block, and the snapshot compile. The dense
// fit is the same solver over the identity decomposition (wholeView).
type decomposition struct {
	// blockOf and localOf index the attributes: attribute p is
	// blocks[blockOf[p]].vars[localOf[p]].
	blockOf, localOf []int
	blocks           []blockView
}

// blockView is one block in block-local coordinates. A family's
// coefficients are row-major over its members ascending, and the
// relabelling keeps the members' order, so the array reads the same in
// both coordinates: the terms alias the model's arrays, and solving a view
// writes the model's coefficients in place. Keeping the order within a
// block also keeps the mask order, so the terms stay in sorted family
// order.
type blockView struct {
	vars  []int                // global attribute positions, ascending
	cards []int                // cardinalities of vars
	fams  []contingency.VarSet // fams[i] is terms[i]'s family, in global positions
	terms []sumprod.Term       // the block's families over local positions
	cons  []int                // the block's constraints: indices into the model's, in its order
}

// decompose builds the decomposition over blocks, which is m.blocks() or
// the identity partition; a family never straddles two blocks of either.
// Families and constraints are bucketed by block in one stable counting
// pass each, and the attribute index, the block cardinalities, the local
// member lists and the buckets are carved from one exactly sized buffer:
// this runs at every refit and on the snapshot-restore cold start, where a
// few allocations per block would dominate the profile.
func (m *Model) decompose(blocks [][]int) *decomposition {
	fams := m.sortedFamilyTerms()
	r, nb := len(m.cards), len(blocks)
	nv := 0
	for _, f := range fams {
		nv += len(f.vars)
	}
	buf := make([]int, 3*r+nv+len(fams)+len(m.cons)+2*(nb+1))
	carve := func(n int) []int {
		s := buf[:n:n]
		buf = buf[n:]
		return s
	}
	d := &decomposition{blockOf: carve(r), localOf: carve(r), blocks: make([]blockView, nb)}
	for bi, blk := range blocks {
		v := &d.blocks[bi]
		v.vars, v.cards = blk, carve(len(blk))
		for i, p := range blk {
			d.blockOf[p], d.localOf[p] = bi, i
			v.cards[i] = m.cards[p]
		}
	}
	famOrder, famStart := bucket(carve(len(fams)), carve(nb+1), func(i int) int {
		return d.blockOf[fams[i].vars[0]]
	})
	keys := make([]contingency.VarSet, len(fams))
	terms := make([]sumprod.Term, len(fams))
	for k, fi := range famOrder {
		f := fams[fi]
		lv := carve(len(f.vars))
		for i, p := range f.vars {
			lv[i] = d.localOf[p]
		}
		keys[k], terms[k] = f.vs, sumprod.Term{Vars: lv, Coeffs: f.coeffs}
	}
	conOrder, conStart := bucket(carve(len(m.cons)), carve(nb+1), func(i int) int {
		return d.blockOf[firstMember(m.cons[i].Family)]
	})
	for bi := range d.blocks {
		v := &d.blocks[bi]
		v.fams = keys[famStart[bi]:famStart[bi+1]]
		v.terms = terms[famStart[bi]:famStart[bi+1]]
		v.cons = conOrder[conStart[bi]:conStart[bi+1]]
	}
	return d
}

// wholeView is the one block of the identity decomposition, every
// attribute at its own position.
func (m *Model) wholeView() *blockView {
	all := make([]int, len(m.cards))
	for i := range all {
		all[i] = i
	}
	return &m.decompose([][]int{all}).blocks[0]
}

// bucket stably sorts the items 0..len(order)-1 by block into order, and
// fills start (one entry per block, plus one) so that block b's items are
// order[start[b]:start[b+1]].
func bucket(order, start []int, blockOf func(int) int) ([]int, []int) {
	for i := range order {
		start[blockOf(i)+1]++
	}
	for b := 1; b < len(start); b++ {
		start[b] += start[b-1]
	}
	for i := range order {
		b := blockOf(i)
		order[start[b]] = i
		start[b]++
	}
	// Each start[b] now holds its block's end, which is the next block's
	// start: shift back.
	copy(start[1:], start[:len(start)-1])
	start[0] = 0
	return order, start
}

// firstMember returns the smallest position of a nonempty set.
func firstMember(vs contingency.VarSet) int {
	for wi := 0; ; wi++ {
		if w := vs.Word(wi); w != 0 {
			return wi*64 + bits.TrailingZeros64(w)
		}
	}
}

// term returns the view's term of family vs, one of the block's families.
func (v *blockView) term(vs contingency.VarSet) sumprod.Term {
	return v.terms[sort.Search(len(v.fams), func(i int) bool { return !v.fams[i].Less(vs) })]
}

// numCells returns the size of the block's dense joint space.
func (v *blockView) numCells() int {
	size := 1
	for _, c := range v.cards {
		size *= c
	}
	return size
}

// weights walks the view's cells row-major, last attribute fastest, and
// returns Σ_cells Π_terms coefficient, each cell's product taken in term
// order; when w is not nil it also receives each cell's product. The
// solver's initial weights and the one-pass sum of a clean block are this
// one walk, so the two add the same products in the same order.
func (v *blockView) weights(w []float64) float64 {
	size := v.numCells()
	cell := make([]int, len(v.cards))
	sum := 0.0
	for off := 0; off < size; off++ {
		p := 1.0
		for _, t := range v.terms {
			fo := 0
			for _, pos := range t.Vars {
				fo = fo*v.cards[pos] + cell[pos]
			}
			p *= t.Coeffs[fo]
		}
		if w != nil {
			w[off] = p
		}
		sum += p
		for i := len(cell) - 1; i >= 0; i-- {
			cell[i]++
			if cell[i] < v.cards[i] {
				break
			}
			cell[i] = 0
		}
	}
	return sum
}

// fitFactored fits each constraint block independently with the block
// solver over its view and combines the normalizers: the separable
// maximum-entropy solution. Coefficients are written through the views'
// aliased terms; a0 becomes the product of the block a0s. The report
// aggregates worst-case sweeps and residual across blocks. Block sizes are
// validated up front, so an errBlockTooDense return leaves the model's
// coefficients untouched and the caller free to fall back. The one
// decomposition serves the solves and the snapshot compile.
//
// Under SolveOptions.Incremental, blocks none of whose families were
// touched since the last converged fit (the model's dirty bookkeeping)
// keep their converged coefficients: the block's a0 contribution from the
// last fit is reused, or, when none is cached (e.g. a restored model),
// recomputed in one pass over its cells, instead of a full iterative
// re-solve. This is the warm per-block refit of the streaming-ingest
// pipeline: a delta batch that moves one block's targets re-solves that
// block alone. An incremental refit that solved no block and landed on a
// bitwise-unchanged a0 keeps the existing compiled snapshot instead of
// recompiling every block's engine from scratch.
func (m *Model) fitFactored(opts SolveOptions) (*Report, error) {
	blocks := m.blocks()
	for _, blk := range blocks {
		if err := m.checkBlockSize(blk); err != nil {
			return nil, err
		}
	}
	d := m.decompose(blocks)
	var dirty []bool // nil: every constrained block is re-solved
	if opts.Incremental && m.fitClean && m.dirty != nil {
		dirty = make([]bool, len(blocks))
		for vs := range m.dirty {
			dirty[d.blockOf[firstMember(vs)]] = true
		}
	}
	agg := &Report{Converged: true}
	a0 := 1.0
	blockA0 := make(map[contingency.VarSet]float64, len(blocks))
	for bi := range d.blocks {
		v := &d.blocks[bi]
		vs := contingency.NewVarSet(v.vars...)
		var ba0 float64
		switch {
		case len(v.cons) == 0:
			// Unconstrained block: all coefficients are 1, the block sum
			// is its cell count, and nothing needs solving. Counted as
			// skipped under Incremental only (historical contract).
			ba0 = 1 / float64(v.numCells())
			if opts.Incremental {
				agg.BlocksSkipped++
			}
		case dirty != nil && !dirty[bi]:
			if cached, ok := m.blockA0[vs]; ok {
				ba0 = cached
			} else {
				ba0 = 1 / v.weights(nil)
			}
			agg.BlocksSkipped++
		default:
			rep, va0, err := m.solve(v, opts)
			if err != nil {
				return nil, err
			}
			ba0 = va0
			agg.BlocksFit++
			if rep.Sweeps > agg.Sweeps {
				agg.Sweeps = rep.Sweeps
			}
			if rep.Residual > agg.Residual {
				agg.Residual = rep.Residual
			}
			agg.Converged = agg.Converged && rep.Converged
		}
		a0 *= ba0 // float product is order-sensitive: always block order
		blockA0[vs] = ba0
	}
	m.blockA0 = blockA0
	if agg.BlocksFit == 0 && a0 == m.a0 && m.compiled.Load() != nil {
		// No block moved a coefficient and the normalizer reproduced
		// bitwise: the compiled snapshot still serves this exact model, so
		// keep it instead of recompiling every block's engine.
		return agg, nil
	}
	m.a0 = a0
	c, err := m.compileFactored(d, nil)
	if err != nil {
		m.compiled.Store(nil)
		return nil, err
	}
	m.compiled.Store(c)
	return agg, nil
}
