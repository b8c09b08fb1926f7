package contingency

import (
	"fmt"
)

// Marginalize sums the table over every axis NOT in keep, returning the
// marginal table over the kept axes in ascending position order. This is the
// memo's Eqs. 1-5: e.g. keeping {A,B} of an ABC table computes
// N_ij = Σ_k N_ijk (Eq. 1).
//
// keep must be a non-empty subset of the table's axes.
func (t *Table) Marginalize(keep VarSet) (*Table, error) {
	if keep.Empty() {
		return nil, fmt.Errorf("contingency: cannot marginalize to the empty attribute set")
	}
	members := keep.Members()
	if members[len(members)-1] >= t.R() {
		return nil, fmt.Errorf("contingency: attribute set %v exceeds table's %d axes", keep, t.R())
	}
	names := make([]string, len(members))
	cards := make([]int, len(members))
	for i, p := range members {
		names[i] = t.names[p]
		cards[i] = t.cards[p]
	}
	m, err := New(names, cards)
	if err != nil {
		return nil, err
	}
	// Walk the joint row-major with an odometer over every axis. mStride is
	// each axis's stride in the marginal table (0 when summed out), so the
	// marginal offset follows the odometer with one add per step and no
	// cell is decoded by division.
	mStride := make([]int, len(t.cards))
	for ki, p := range members {
		mStride[p] = m.strides[ki]
	}
	idx := make([]int, len(t.cards))
	mOff := 0
	for _, c := range t.counts {
		m.counts[mOff] += c
		for axis := len(t.cards) - 1; axis >= 0; axis-- {
			idx[axis]++
			if idx[axis] < t.cards[axis] {
				mOff += mStride[axis]
				break
			}
			mOff -= (idx[axis] - 1) * mStride[axis]
			idx[axis] = 0
		}
	}
	m.total = t.total
	return m, nil
}

// MarginalCount returns the marginal count for a partial assignment: the sum
// of all cells that agree with the given values on the axes of vars. For
// example MarginalCount({A}, [i]) is N_i (Eq. 4); MarginalCount({A,C}, [i,k])
// is N_ik (Eq. 2). values are given in ascending axis order of vars.
func (t *Table) MarginalCount(vars VarSet, values []int) (int64, error) {
	members := vars.Members()
	if len(members) != len(values) {
		return 0, fmt.Errorf("contingency: %d values for attribute set %v", len(values), vars)
	}
	if len(members) == 0 {
		return t.total, nil
	}
	if members[len(members)-1] >= t.R() {
		return 0, fmt.Errorf("contingency: attribute set %v exceeds table's %d axes", vars, t.R())
	}
	for i, p := range members {
		if values[i] < 0 || values[i] >= t.cards[p] {
			return 0, fmt.Errorf("contingency: value %d for axis %d out of range [0,%d)",
				values[i], p, t.cards[p])
		}
	}
	// Iterate the complement axes only.
	free := make([]int, 0, t.R()-len(members))
	for axis := 0; axis < t.R(); axis++ {
		if !vars.Has(axis) {
			free = append(free, axis)
		}
	}
	base := 0
	for i, p := range members {
		base += values[i] * t.strides[p]
	}
	if len(free) == 0 {
		return t.counts[base], nil
	}
	var sum int64
	idx := make([]int, len(free))
	for {
		off := base
		for i, axis := range free {
			off += idx[i] * t.strides[axis]
		}
		sum += t.counts[off]
		// Odometer increment over the free axes.
		i := len(free) - 1
		for i >= 0 {
			idx[i]++
			if idx[i] < t.cards[free[i]] {
				break
			}
			idx[i] = 0
			i--
		}
		if i < 0 {
			break
		}
	}
	return sum, nil
}

// FirstOrderProbabilities returns, per axis, the relative frequencies
// p_i = N_i / N of Eq. 48 — the initial constraints of the discovery run.
func (t *Table) FirstOrderProbabilities() ([][]float64, error) {
	if t.total == 0 {
		return nil, fmt.Errorf("contingency: empty table has no marginal probabilities")
	}
	out := make([][]float64, t.R())
	for axis := 0; axis < t.R(); axis++ {
		m, err := t.Marginalize(NewVarSet(axis))
		if err != nil {
			return nil, err
		}
		p := make([]float64, t.cards[axis])
		for v := 0; v < t.cards[axis]; v++ {
			p[v] = float64(m.counts[v]) / float64(t.total)
		}
		out[axis] = p
	}
	return out, nil
}

// CheckConsistency verifies the bookkeeping invariants: the cached total
// equals the cell sum and no cell is negative. The discovery engine calls
// this once on input; it exists so corrupted tables fail loudly.
func (t *Table) CheckConsistency() error {
	var sum int64
	for i, c := range t.counts {
		if c < 0 {
			return fmt.Errorf("contingency: cell %d has negative count %d", i, c)
		}
		sum += c
	}
	if sum != t.total {
		return fmt.Errorf("contingency: cached total %d != cell sum %d", t.total, sum)
	}
	return nil
}
