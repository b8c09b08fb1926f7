package sumprod

import (
	"fmt"
	"sort"
	"sync"
)

// Compiled is an immutable, goroutine-safe inference engine over a snapshot
// of product-formula terms. Where Evaluator is rebuilt (and re-validated)
// per use, Compile is called once: it deep-copies the coefficient arrays,
// fixes the elimination order and groups terms by highest variable. Fold
// scratch comes from one pool shared by every engine, so steady-state
// queries allocate nothing beyond their result and an engine costs nothing
// to set up for it.
//
// The evaluation primitives are bit-identical to Evaluator: the fold visits
// levels, prefix cells, and term factors in exactly the same order, so every
// float64 it returns equals the corresponding Evaluator result bit for bit
// (the equivalence tests assert this with ==).
//
// On top of the per-query Sum/SumPinned primitives, Compiled adds a batch
// marginal: Marginal computes every cell of a family's marginal in one
// elimination sweep by keeping the family's variables un-eliminated, instead
// of running one full SumFixed recursion per cell.
//
// The levels above an unpinned batch marginal's highest kept variable sum
// out the same variables for every such marginal, so the engine caches
// them: the first one builds the shared eliminated suffix (one buffer per
// level; with every cardinality at least 2, under 2·size/cards[r-1]
// float64s in all) and every later one starts below it. Pinned queries and
// Sum neither build nor read it, so a cold engine's first conditional query
// costs what it always did.
type Compiled struct {
	cards   []int
	terms   []Term  // coefficient snapshots, deep-copied at Compile time
	byLevel [][]int // byLevel[n] = indices of terms whose highest var is n
	size    int     // full joint size
	// suffix is the shared eliminated suffix (see buildSuffix), written
	// once under suffixOnce by the first unpinned batch marginal and
	// immutable afterwards; every reader calls suffixOnce.Do first.
	suffixOnce sync.Once
	suffix     [][]float64
}

// foldScratch holds the per-call working state of one elimination sweep.
// Instances are pooled so concurrent callers never share one; scratchPool
// serves every engine, and getScratch sizes an instance to the engine.
type foldScratch struct {
	bufA, bufB []float64
	cell       []int
	edims      []int
	fixed      []int
	keep       []bool
}

// Compile validates the terms against the cardinalities and builds the
// immutable engine. The coefficient arrays are copied: later mutation of the
// caller's slices does not affect the compiled snapshot.
func Compile(cards []int, terms []Term) (*Compiled, error) {
	if len(cards) == 0 {
		return nil, fmt.Errorf("sumprod: compiled engine needs at least one attribute")
	}
	size := 1
	for i, card := range cards {
		if card < 1 {
			return nil, fmt.Errorf("sumprod: attribute %d has cardinality %d", i, card)
		}
		size *= card
	}
	c := &Compiled{
		cards:   append([]int(nil), cards...),
		terms:   make([]Term, len(terms)),
		byLevel: make([][]int, len(cards)),
		size:    size,
	}
	// The deep copies share one backing array per kind: engines are compiled
	// per block on the snapshot-restore cold-start path, where two
	// allocations per term dominate the profile.
	nv, nc := 0, 0
	for _, t := range terms {
		nv += len(t.Vars)
		nc += len(t.Coeffs)
	}
	vbuf := make([]int, nv)
	cbuf := make([]float64, nc)
	for ti, t := range terms {
		if err := t.Validate(cards); err != nil {
			return nil, err
		}
		tv := vbuf[:len(t.Vars):len(t.Vars)]
		vbuf = vbuf[len(t.Vars):]
		copy(tv, t.Vars)
		tc := cbuf[:len(t.Coeffs):len(t.Coeffs)]
		cbuf = cbuf[len(t.Coeffs):]
		copy(tc, t.Coeffs)
		c.terms[ti] = Term{Vars: tv, Coeffs: tc}
		h := t.Vars[len(t.Vars)-1]
		c.byLevel[h] = append(c.byLevel[h], ti)
	}
	return c, nil
}

// Cards returns a copy of the attribute cardinalities.
func (c *Compiled) Cards() []int { return append([]int(nil), c.cards...) }

// NumCells returns the size of the full joint space.
func (c *Compiled) NumCells() int { return c.size }

// scratchPool holds fold scratch for every engine.
var scratchPool = sync.Pool{New: func() any { return new(foldScratch) }}

// getScratch pops a scratch from the shared pool, sized to the engine's
// attribute count, with the pin state reset.
func (c *Compiled) getScratch() *foldScratch {
	sc := scratchPool.Get().(*foldScratch)
	r := len(c.cards)
	sc.cell, sc.edims = grow(sc.cell, r), grow(sc.edims, r)
	sc.fixed, sc.keep = grow(sc.fixed, r), grow(sc.keep, r)
	for v := range r {
		sc.fixed[v] = -1
		sc.keep[v] = false
	}
	//pkalint:poolhygiene accessor contract: every caller pairs getScratch with scratchPool.Put once the fold result is consumed
	return sc
}

// grow returns buf resized to n, reallocating only when capacity is short.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// fold runs the Appendix B elimination with the scratch's pin/keep state:
// sc.fixed[v] >= 0 clamps variable v, sc.keep[v] carries it through to the
// output instead of summing it out. The returned slice is scratch-owned
// (valid until the scratch is released) and holds the result indexed
// row-major by the kept variables in ascending position order — a single
// value when nothing is kept.
//
// The loop structure mirrors Evaluator.SumFixed exactly: levels fold from
// the highest position down, the level value is the fastest-moving digit,
// and each output accumulator receives its additions in the same order, so
// results are bit-identical to the per-cell path.
//
// An unpinned batch marginal whose highest kept variable (top) sits below
// the last attribute sums out the same levels above top as every other such
// marginal, so it starts at level top from the shared eliminated suffix
// (see buildSuffix), building that suffix first if no fold has yet. The
// cached buffer is only ever read: the ping-pong never recycles it as an
// output. Folds with a pin, and Sum, run every level themselves.
func (c *Compiled) fold(sc *foldScratch) []float64 {
	r := len(c.cards)
	edims, cell := sc.edims, sc.cell
	top, pinned := -1, false
	for v := 0; v < r; v++ {
		if !sc.keep[v] && sc.fixed[v] >= 0 {
			edims[v] = 1
			cell[v] = sc.fixed[v]
			pinned = true
		} else {
			edims[v] = c.cards[v]
			cell[v] = 0
		}
		if sc.keep[v] {
			top = v
		}
	}
	start := r - 1
	var in []float64 // nil stands for the all-ones input of the top level
	if !pinned && top >= 0 && top < r-1 {
		c.suffixOnce.Do(c.buildSuffix)
		start = top
		in = c.suffix[top]
	}
	out, spare := sc.bufA, sc.bufB
	borrowed := true // in is nil or the shared suffix: never written here
	tail := 1        // joint size of kept variables above the current level
	for n := start; n >= 0; n-- {
		pin := -1
		if !sc.keep[n] {
			pin = sc.fixed[n]
		}
		out = c.foldLevel(n, in, out, edims, cell, sc.keep[n], pin, tail)
		if sc.keep[n] {
			tail *= edims[n]
		}
		// Ping-pong: the just-written buffer becomes the next input; the
		// previous input (or the untouched spare, when the input was
		// borrowed) is overwritten next level.
		if borrowed {
			in, out = out, spare
			borrowed = false
		} else {
			in, out = out, in
		}
	}
	sc.bufA, sc.bufB = in, out // retain grown buffers for reuse
	return in
}

// prefixSize returns the product of the first n dims.
func prefixSize(dims []int, n int) int {
	size := 1
	for v := 0; v < n; v++ {
		size *= dims[v]
	}
	return size
}

// foldLevel eliminates (or, when keepN, carries through) variable n: it
// reads in — indexed row-major by variables 0..n at edims, then the tail of
// kept variables above n; nil stands for all ones — and writes out, resized
// to the level's output, with variable n summed out unless kept. pin >= 0
// clamps the variable. On entry cell holds the clamped values and zeros for
// the free variables below n; the prefix odometer wraps those back to zero.
func (c *Compiled) foldLevel(n int, in, out []float64, edims, cell []int, keepN bool, pin, tail int) []float64 {
	prefSize := prefixSize(edims, n)
	dn := edims[n]
	outSize := prefSize * tail
	if keepN {
		outSize *= dn
	}
	out = grow(out, outSize)
	clear(out)
	if pin >= 0 {
		cell[n] = pin
	}
	byL := c.byLevel[n]
	inRow := 0
	for p := 0; p < prefSize; p++ {
		outBase := p * tail
		for x := 0; x < dn; x++ {
			if pin < 0 {
				cell[n] = x
			}
			q := 1.0
			for _, ti := range byL {
				t := &c.terms[ti]
				off := 0
				for _, v := range t.Vars {
					off = off*c.cards[v] + cell[v]
				}
				q *= t.Coeffs[off]
			}
			oRow := outBase
			if keepN {
				oRow = inRow
			}
			if in == nil {
				for k := 0; k < tail; k++ {
					out[oRow+k] += q
				}
			} else {
				for k := 0; k < tail; k++ {
					out[oRow+k] += q * in[inRow+k]
				}
			}
			inRow += tail
		}
		// Advance the prefix odometer over variables 0..n-1 (clamped
		// variables have a single digit and never move).
		advance(cell, edims, n-1)
	}
	return out
}

// advance steps the odometer over cell[0..last] within edims, last position
// fastest; clamped variables have a single digit and never move. After the
// final cell it wraps every free digit back to zero.
func advance(cell, edims []int, last int) {
	for v := last; v >= 0; v-- {
		if edims[v] == 1 {
			continue
		}
		cell[v]++
		if cell[v] < edims[v] {
			return
		}
		cell[v] = 0
	}
}

// buildSuffix fills the shared eliminated suffix by running one unpinned,
// unkept fold from level r-1 down to level 1 through the same foldLevel loop
// a fold runs, so reading it performs exactly the additions the fold would,
// in the same order. Level n (0 <= n < r-1) is the buffer entering level n
// of a fold in which no variable above n is kept or pinned: every variable
// above n summed out, row-major over variables 0..n at full cardinality.
//
// Bound: level n holds Π_{v<=n} cards[v] = size/Π_{v>n} cards[v] values, so
// with every cardinality at least 2 the levels total at most
// size/cards[r-1]·(1 + ½ + ¼ + …) < 2·size/cards[r-1] float64s — no more
// than twice the first level of an unpinned fold. The suffix lives as long
// as the engine and is never serialized.
func (c *Compiled) buildSuffix() {
	r := len(c.cards)
	total := 0
	for n := 0; n < r-1; n++ {
		total += prefixSize(c.cards, n+1)
	}
	buf := make([]float64, total)
	levels := make([][]float64, r-1)
	cell := make([]int, r)
	var in []float64
	for n := r - 1; n >= 1; n-- {
		size := prefixSize(c.cards, n)
		levels[n-1] = c.foldLevel(n, in, buf[:size:size], c.cards, cell, false, -1, 1)
		buf = buf[size:]
		in = levels[n-1]
	}
	c.suffix = levels
}

// Sum returns Σ_cells Π_terms coeff over the full space.
func (c *Compiled) Sum() float64 {
	return c.SumFixed(nil)
}

// SumFixed returns the same sum with some attributes clamped, exactly as
// Evaluator.SumFixed: fixed[v] >= 0 pins attribute v, -1 leaves it summed
// over, and fixed may be nil or shorter than the attribute count.
func (c *Compiled) SumFixed(fixed []int) float64 {
	sc := c.getScratch()
	for v := 0; v < len(fixed) && v < len(sc.fixed); v++ {
		sc.fixed[v] = fixed[v]
	}
	res := c.fold(sc)[0]
	scratchPool.Put(sc)
	return res
}

// SumPinned is SumFixed with the clamps given sparsely: vars lists pinned
// attribute positions ascending, values their clamped values. It avoids the
// caller materializing a full-width fixed slice per query.
func (c *Compiled) SumPinned(vars []int, values []int) float64 {
	sc := c.getScratch()
	for i, v := range vars {
		sc.fixed[v] = values[i]
	}
	res := c.fold(sc)[0]
	scratchPool.Put(sc)
	return res
}

// Marginal computes every cell of the family's marginal sum in one
// elimination sweep: variables in vars (ascending attribute positions) are
// kept, all others are summed out. The result is dense row-major over the
// kept variables, first listed slowest — the order an odometer over the
// family's value space visits cells. Each entry is bit-identical to the
// SumFixed call that pins the family to that cell.
func (c *Compiled) Marginal(vars []int) ([]float64, error) {
	return c.MarginalFixed(vars, nil)
}

// MarginalFixed is Marginal with additional clamps: fixed[v] >= 0 pins
// variable v (which must not also be listed in vars), -1 or out-of-length
// leaves it summed over. This computes a whole conditional slice — e.g.
// every value of a target attribute under fixed evidence — in one sweep.
func (c *Compiled) MarginalFixed(vars []int, fixed []int) ([]float64, error) {
	if len(vars) == 0 {
		return nil, fmt.Errorf("sumprod: batch marginal needs at least one kept variable")
	}
	if !sort.IntsAreSorted(vars) {
		return nil, fmt.Errorf("sumprod: marginal variables %v not ascending", vars)
	}
	size := 1
	for i, v := range vars {
		if v < 0 || v >= len(c.cards) {
			return nil, fmt.Errorf("sumprod: marginal variable %d out of range [0,%d)", v, len(c.cards))
		}
		if i > 0 && vars[i-1] == v {
			return nil, fmt.Errorf("sumprod: marginal repeats variable %d", v)
		}
		if v < len(fixed) && fixed[v] >= 0 {
			return nil, fmt.Errorf("sumprod: marginal variable %d is also clamped", v)
		}
		size *= c.cards[v]
	}
	sc := c.getScratch()
	for v := 0; v < len(fixed) && v < len(sc.fixed); v++ {
		sc.fixed[v] = fixed[v]
	}
	for _, v := range vars {
		sc.keep[v] = true
	}
	out := make([]float64, size)
	copy(out, c.fold(sc))
	scratchPool.Put(sc)
	return out, nil
}

// CellValue returns init × Π_terms coeff(cell), multiplying the factors onto
// init in term order. Seeding init with a normalizing constant reproduces
// the exact multiplication order of direct product evaluation.
func (c *Compiled) CellValue(init float64, cell []int) float64 {
	p := init
	for i := range c.terms {
		t := &c.terms[i]
		off := 0
		for _, v := range t.Vars {
			off = off*c.cards[v] + cell[v]
		}
		p *= t.Coeffs[off]
	}
	return p
}

// ArgmaxFixed returns the cell maximizing CellValue(1, ·) among cells
// agreeing with fixed (fixed[v] >= 0 pins variable v; a negative entry or
// an out-of-length position leaves it free; nil leaves every variable
// free), breaking ties toward the lexicographically smallest cell. The
// enumeration visits free variables odometer-style, last position fastest —
// row-major lexicographic order — with a strict > keeping the first
// maximizer, so the tie-break is deterministic.
func (c *Compiled) ArgmaxFixed(fixed []int) ([]int, error) {
	r := len(c.cards)
	if len(fixed) > r {
		return nil, fmt.Errorf("sumprod: %d pins for %d variables", len(fixed), r)
	}
	cell := make([]int, r)
	var free []int
	for v := 0; v < r; v++ {
		fv := -1
		if v < len(fixed) {
			fv = fixed[v]
		}
		if fv >= c.cards[v] {
			return nil, fmt.Errorf("sumprod: value %d out of range for variable %d", fv, v)
		}
		if fv >= 0 {
			cell[v] = fv
		} else {
			free = append(free, v)
		}
	}
	best := make([]int, r)
	bestV := -1.0
	for {
		if v := c.CellValue(1, cell); v > bestV {
			bestV = v
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
	return best, nil
}

// FullJoint materializes the complete (unnormalized) product over every cell
// in row-major order, bit-identical to Evaluator.FullJoint.
func (c *Compiled) FullJoint() []float64 {
	out := make([]float64, c.size)
	cell := make([]int, len(c.cards))
	for off := 0; off < c.size; off++ {
		rem := off
		for v := len(c.cards) - 1; v >= 0; v-- {
			cell[v] = rem % c.cards[v]
			rem /= c.cards[v]
		}
		out[off] = c.CellValue(1, cell)
	}
	return out
}
