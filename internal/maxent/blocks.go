package maxent

import (
	"errors"
	"fmt"
	"math/bits"

	"pka/internal/contingency"
	"pka/internal/par"
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

// blockDenseSize returns the dense cell count of one constraint block, or
// errBlockTooDense (wrapped with the block and cap) when it exceeds
// denseModelCells — the single bound both the factored solver and the
// factored compiler enforce.
func (m *Model) blockDenseSize(blk []int) (int, error) {
	size := 1
	for _, p := range blk {
		if size > denseModelCells/m.cards[p] {
			return 0, fmt.Errorf("maxent: block %v exceeds %d dense cells: %w",
				blk, denseModelCells, errBlockTooDense)
		}
		size *= m.cards[p]
	}
	return size, nil
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
	for vs := range m.families {
		first := -1
		for wi, nw := 0, vs.NumWords(); wi < nw; wi++ {
			base := wi * 64
			for w := vs.Word(wi); w != 0; w &= w - 1 {
				p := base + bits.TrailingZeros64(w)
				if first < 0 {
					first = p
				} else {
					union(first, p)
				}
			}
		}
	}
	// Gather components without a map: count members per root, carve each
	// block out of one shared backing array, then fill in position order
	// (which keeps members ascending). blocks() runs on every compile,
	// including the snapshot-restore cold-start path.
	cnt := make([]int, len(m.cards))
	nb := 0
	for p := range m.cards {
		r := find(p)
		if cnt[r] == 0 {
			nb++
		}
		cnt[r]++
	}
	out := make([][]int, 0, nb)
	buf := make([]int, len(m.cards))
	cursor := make([]int, len(m.cards))
	pos := 0
	for p := range m.cards {
		if parent[p] == p {
			out = append(out, buf[pos:pos+cnt[p]:pos+cnt[p]]) // roots ascend: block order is by smallest member
			cursor[p] = pos
			pos += cnt[p]
		}
	}
	for p := range m.cards {
		r := find(p)
		buf[cursor[r]] = p
		cursor[r]++
	}
	return out
}

// subModels builds one dense model per block whose coefficient arrays
// ALIAS the parent's: fitting a sub-model writes the parent's coefficients
// in place. The family cell layout is preserved because family coefficients
// are row-major over members ascending, and each block keeps relative
// attribute order. Families and constraints are bucketed by block in one
// pass each — O(families + constraints), not O(blocks × (families +
// constraints)) — and every block keeps the parent's constraint order.
func (m *Model) subModels(blocks [][]int) ([]*Model, error) {
	// blockOf and local map each attribute to its block and its index
	// within that block.
	blockOf := make([]int, len(m.cards))
	local := make([]int, len(m.cards))
	subs := make([]*Model, len(blocks))
	for bi, blk := range blocks {
		names := make([]string, len(blk))
		cards := make([]int, len(blk))
		for i, p := range blk {
			blockOf[p], local[p] = bi, i
			names[i] = m.names[p]
			cards[i] = m.cards[p]
		}
		sub, err := NewModel(names, cards)
		if err != nil {
			return nil, err
		}
		subs[bi] = sub
	}
	for _, vs := range sortedFamilies(m.families) {
		ft := m.families[vs]
		bi := blockOf[ft.vars[0]]
		lv := make([]int, len(ft.vars))
		for i, p := range ft.vars {
			if blockOf[p] != bi {
				return nil, fmt.Errorf("maxent: family %v straddles blocks", vs)
			}
			lv[i] = local[p]
		}
		subs[bi].families[contingency.NewVarSet(lv...)] = &familyTerm{vars: lv, coeffs: ft.coeffs}
	}
	for _, c := range m.cons {
		ft := m.families[c.Family]
		sub := subs[blockOf[ft.vars[0]]]
		lv := make([]int, len(ft.vars))
		for i, p := range ft.vars {
			lv[i] = local[p]
		}
		lc := Constraint{
			Family: contingency.NewVarSet(lv...),
			Values: append([]int(nil), c.Values...),
			Target: c.Target,
		}
		sub.conIdx[lc.key()] = len(sub.cons)
		sub.cons = append(sub.cons, lc)
	}
	return subs, nil
}

// fitFactored fits each constraint block independently with the dense
// solver over its own sub-space and combines the normalizers: the
// separable maximum-entropy solution. Coefficients are written through the
// aliased sub-models; a0 becomes the product of the block a0s. The report
// aggregates worst-case sweeps and residual across blocks. Block sizes are
// validated up front, so an errBlockTooDense return leaves the model's
// coefficients untouched and the caller free to fall back. Building the
// sub-models costs one pass over the families and one over the
// constraints (subModels), not a scan of both per block — on a wide
// discovery the model splits into hundreds of mostly singleton blocks.
//
// Under SolveOptions.Incremental, blocks none of whose families were
// touched since the last converged fit (the model's dirty bookkeeping)
// keep their converged coefficients: only the block's unnormalized sum is
// recomputed — one pass over its cells — for the a0 product, instead of a
// full iterative re-solve. This is the warm per-block refit of the
// streaming-ingest pipeline: a delta batch that moves one block's targets
// re-solves that block alone. An incremental refit that solved no block
// and landed on a bitwise-unchanged a0 keeps the existing compiled
// snapshot instead of recompiling every block's engine from scratch.
//
// Constraint blocks are independent by construction — no two blocks share
// an attribute, a family, or a coefficient array — so SolveOptions.Workers
// fans the per-block work (solves and skipped-block normalizer sums alike)
// out over the shared pool. Each block writes only its own aliased
// coefficient arrays and its own result slot, and the a0 product, the
// worst-case sweep/residual aggregation, and the block counters are all
// reduced in block order afterwards, so the fitted model and the report
// are bit-identical to the sequential block loop regardless of how the
// scheduler interleaves the workers.
func (m *Model) fitFactored(opts SolveOptions) (*Report, error) {
	blocks := m.blocks()
	sizes := make([]int, len(blocks))
	for i, blk := range blocks {
		size, err := m.blockDenseSize(blk)
		if err != nil {
			return nil, err
		}
		sizes[i] = size
	}
	skipClean := opts.Incremental && m.fitClean && m.dirty != nil
	dirtyPos := make(map[int]bool)
	if skipClean {
		for vs := range m.dirty {
			for _, p := range vs.Members() {
				dirtyPos[p] = true
			}
		}
	}
	// Build every sub-model up front: subModels reads the parent's shared
	// maps, so construction stays on this goroutine, and only the disjoint
	// per-block work runs on the pool.
	subs, err := m.subModels(blocks)
	if err != nil {
		return nil, err
	}
	// blockOut is one block's contribution, collected per index slot and
	// reduced in block order below.
	type blockOut struct {
		a0      float64
		rep     *Report // nil when the block was skipped
		skipped bool    // counted under Incremental only (historical contract)
	}
	outs := make([]blockOut, len(blocks))
	err = par.Do(len(blocks), opts.Workers, func(bi int) error {
		blk, sub := blocks[bi], subs[bi]
		vs := contingency.NewVarSet(blk...)
		switch {
		case len(sub.cons) == 0:
			// Unconstrained block: all coefficients are 1, the block sum
			// is its cell count, and nothing needs solving.
			outs[bi] = blockOut{a0: 1 / float64(sizes[bi]), skipped: opts.Incremental}
		case skipClean && !blockDirty(blk, dirtyPos):
			// Converged coefficients for unmoved targets: keep them. The
			// block's a0 contribution from the last factored fit is reused
			// bit-for-bit when cached; only a cache miss (e.g. a loaded
			// model) pays the one-pass block sum for the normalizer.
			if cached, ok := m.blockA0[vs]; ok {
				outs[bi] = blockOut{a0: cached, skipped: true}
			} else {
				outs[bi] = blockOut{a0: 1 / sub.coefficientSum(), skipped: true}
			}
		default:
			rep, err := sub.fitDenseCore(opts)
			if err != nil {
				return err
			}
			outs[bi] = blockOut{a0: sub.a0, rep: rep}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	agg := &Report{Method: opts.Method, Converged: true}
	a0 := 1.0
	blockA0 := make(map[contingency.VarSet]float64, len(blocks))
	for bi := range blocks {
		o := outs[bi]
		a0 *= o.a0 // float product is order-sensitive: always block order
		blockA0[contingency.NewVarSet(blocks[bi]...)] = o.a0
		if o.rep == nil {
			if o.skipped {
				agg.BlocksSkipped++
			}
			continue
		}
		agg.BlocksFit++
		if o.rep.Sweeps > agg.Sweeps {
			agg.Sweeps = o.rep.Sweeps
		}
		if o.rep.Residual > agg.Residual {
			agg.Residual = o.rep.Residual
		}
		agg.Converged = agg.Converged && o.rep.Converged
	}
	m.blockA0 = blockA0
	if agg.BlocksFit == 0 && a0 == m.a0 && m.compiled.Load() != nil {
		// No block moved a coefficient and the normalizer reproduced
		// bitwise: the compiled snapshot still serves this exact model, so
		// keep it instead of recompiling every block's engine.
		return agg, nil
	}
	m.a0 = a0
	m.compiled.Store(nil)
	if _, err := m.Compile(); err != nil {
		return nil, err
	}
	return agg, nil
}

// blockDirty reports whether any attribute of the block belongs to a dirty
// family. Families never straddle blocks, so member-level containment is
// exact.
func blockDirty(blk []int, dirtyPos map[int]bool) bool {
	for _, p := range blk {
		if dirtyPos[p] {
			return true
		}
	}
	return false
}

// coefficientSum computes the model's unnormalized sum Σ_cells Π coeffs in
// one pass — the a0 input for a block whose solve was skipped. Cell order
// matches newSolverState's initialization, so the accumulation is
// deterministic.
func (m *Model) coefficientSum() float64 {
	size := m.NumCells()
	famOrder := sortedFamilies(m.families)
	cell := make([]int, len(m.cards))
	sum := 0.0
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
		sum += p
	}
	return sum
}
