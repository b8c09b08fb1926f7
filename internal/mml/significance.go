package mml

import (
	"fmt"
	"math"

	"pka/internal/contingency"
	"pka/internal/stats"
)

// CellTest is the full scored comparison of one candidate cell — one row of
// the memo's Table 1.
type CellTest struct {
	Family contingency.VarSet
	Values []int

	Observed  int64   // N_ij... from the data
	Predicted float64 // model-predicted cell probability
	Mean      float64 // Eq. 33
	SD        float64 // Eq. 34
	Z         float64 // "No. of sd's"

	M1    float64 // message length under H1 (Eq. 46)
	M2    float64 // message length under H2 (Eq. 45)
	Delta float64 // m2 - m1; negative means significant (Eq. 47)
	// LikelihoodRatio is p(H1|D)/p(H2|D) = exp(Delta), the memo's last
	// Table 1 column.
	LikelihoodRatio float64

	Significant bool
	// Forced marks cells whose value is fully determined by the known
	// marginals (the memo's ELSE branch of Eq. 41): p(D|H2) = 1.
	Forced bool
	// Range is the chance range maximum when not forced.
	Range int64
}

// Test scores one candidate cell given the model-predicted probability of
// that cell. The candidate must not already be marked significant, and
// there must be remaining capacity at its order (cells at order > M).
func (t *Tester) Test(family contingency.VarSet, values []int, predicted float64) (CellTest, error) {
	r := family.Len()
	if r < 2 {
		return CellTest{}, fmt.Errorf("mml: significance testing starts at order 2, got %v", family)
	}
	if r > t.table.R() {
		return CellTest{}, fmt.Errorf("mml: family %v exceeds table order %d", family, t.table.R())
	}
	if predicted < 0 || predicted > 1 || math.IsNaN(predicted) {
		return CellTest{}, fmt.Errorf("mml: predicted probability %g outside [0,1]", predicted)
	}
	if t.IsSignificant(family, values) {
		return CellTest{}, fmt.Errorf("mml: cell %v%v already significant", family, values)
	}
	observed, err := t.marginalCount(family, values)
	if err != nil {
		return CellTest{}, err
	}
	remaining := t.CellsAtOrder(r) - t.SignificantAtOrder(r)
	if remaining <= 0 {
		return CellTest{}, fmt.Errorf("mml: no remaining cells at order %d", r)
	}

	ct := CellTest{
		Family:    family,
		Values:    append([]int(nil), values...),
		Observed:  observed,
		Predicted: predicted,
	}
	n := t.table.Total()
	b := stats.Binomial{N: n, P: predicted}
	ct.Mean = b.Mean()
	ct.SD = b.SD()
	ct.Z = b.ZScore(observed)

	// m1 = -ln p(H1) - ln pmf (Eq. 46).
	logPMF := b.LogPMF(observed)
	ct.M1 = -math.Log(1-t.cfg.PriorH2) - logPMF

	// m2 = -ln p(H2') + ln(cells at order - M) [+ ln(range+1)] (Eq. 45).
	forced, rangeMax, err := t.chanceRange(family, values)
	if err != nil {
		return CellTest{}, err
	}
	ct.Forced = forced
	ct.Range = rangeMax
	ct.M2 = -math.Log(t.cfg.PriorH2) + math.Log(float64(remaining))
	if !forced {
		ct.M2 += math.Log(float64(rangeMax) + 1)
	}

	ct.Delta = ct.M2 - ct.M1
	ct.LikelihoodRatio = math.Exp(ct.Delta)
	ct.Significant = ct.Delta < 0 && (!forced || t.cfg.IncludeForced)
	return ct, nil
}

// Predictor supplies model-predicted marginals for scan scoring. The
// discovery engine backs it with a compiled inference engine so one batch
// elimination sweep prices a whole family; PerCell adapts legacy per-cell
// callbacks. Implementations must be safe for concurrent use — the parallel
// scan prices families from many goroutines.
type Predictor interface {
	// Marginal returns the predicted probability of every cell of the
	// family, dense row-major over the members ascending (first member
	// slowest) — the same order an odometer over the family's value space
	// visits cells.
	Marginal(family contingency.VarSet) ([]float64, error)
}

// perCell adapts a per-cell probability callback to the batch Predictor
// interface by evaluating every family cell individually — the original
// scan evaluation strategy, retained for callers without a compiled model
// and as the reference path in equivalence tests.
type perCell struct {
	cards   []int
	predict func(family contingency.VarSet, values []int) (float64, error)
}

// PerCell wraps a per-cell prediction callback as a Predictor over the
// given attribute cardinalities. Note the batch contract: predict is called
// for every cell of a scanned family, including cells already marked
// significant (whose predictions the scan then ignores).
func PerCell(cards []int, predict func(family contingency.VarSet, values []int) (float64, error)) Predictor {
	return perCell{cards: append([]int(nil), cards...), predict: predict}
}

func (p perCell) Marginal(family contingency.VarSet) ([]float64, error) {
	members := family.Members()
	size := 1
	for _, pos := range members {
		if pos >= len(p.cards) {
			return nil, fmt.Errorf("mml: family %v exceeds %d attributes", family, len(p.cards))
		}
		size *= p.cards[pos]
	}
	out := make([]float64, 0, size)
	values := make([]int, len(members))
	for {
		v, err := p.predict(family, values)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		i := len(members) - 1
		for i >= 0 {
			values[i]++
			if values[i] < p.cards[members[i]] {
				break
			}
			values[i] = 0
			i--
		}
		if i < 0 {
			break
		}
	}
	return out, nil
}

// scanFamily prices one family: a single batch marginal from the predictor,
// then one significance test per not-yet-significant cell, in deterministic
// odometer order.
func (t *Tester) scanFamily(fam contingency.VarSet, pred Predictor) ([]CellTest, error) {
	members := fam.Members()
	size := 1
	for _, pos := range members {
		size *= t.table.Card(pos)
	}
	// A fully-promoted family has nothing left to test: skip it before
	// paying for a marginal sweep (repeat passes at one order hit this).
	if len(t.sig[fam]) == size {
		return nil, nil
	}
	marg, err := pred.Marginal(fam)
	if err != nil {
		return nil, err
	}
	if len(marg) != size {
		return nil, fmt.Errorf("mml: predictor returned %d probabilities for family %v (%d cells)",
			len(marg), fam, size)
	}
	var out []CellTest
	values := make([]int, len(members))
	for idx := 0; ; idx++ {
		if !t.IsSignificant(fam, values) {
			ct, err := t.Test(fam, values, marg[idx])
			if err != nil {
				return nil, err
			}
			out = append(out, ct)
		}
		// Odometer over the family's value space.
		i := len(members) - 1
		for i >= 0 {
			values[i]++
			if values[i] < t.table.Card(members[i]) {
				break
			}
			values[i] = 0
			i--
		}
		if i < 0 {
			break
		}
	}
	return out, nil
}

// ScanOrder is ScanOrderParallel on one worker: the families are priced
// in order on the calling goroutine.
func (t *Tester) ScanOrder(r int, pred Predictor) ([]CellTest, error) {
	return t.ScanOrderParallel(r, pred, 1)
}

// MostSignificant returns the index of the most significant test (smallest
// Delta) among those with Significant set, or -1 when none qualify. Ties
// break toward the earlier (deterministic scan-order) entry.
func MostSignificant(tests []CellTest) int {
	best := -1
	for i, ct := range tests {
		if !ct.Significant {
			continue
		}
		if best < 0 || ct.Delta < tests[best].Delta {
			best = i
		}
	}
	return best
}
