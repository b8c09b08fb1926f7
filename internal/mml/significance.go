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
	if err := checkPredicted(predicted); err != nil {
		return CellTest{}, err
	}
	if t.IsSignificant(family, values) {
		return CellTest{}, fmt.Errorf("mml: cell %v%v already significant", family, values)
	}
	observed, err := t.marginalCount(family, values)
	if err != nil {
		return CellTest{}, err
	}
	return t.score(t.newFamilyScan(family), append([]int(nil), values...), observed, predicted)
}

// checkPredicted rejects a model probability outside [0, 1].
func checkPredicted(predicted float64) error {
	if predicted < 0 || predicted > 1 || math.IsNaN(predicted) {
		return fmt.Errorf("mml: predicted probability %g outside [0,1]", predicted)
	}
	return nil
}

// score is Test past its argument checks: the cell values of the scanned
// family are valid and not significant, observed is their count and
// predicted their checked model probability. The returned test keeps
// values, which the caller hands over.
func (t *Tester) score(fs *familyScan, values []int, observed int64, predicted float64) (CellTest, error) {
	family := fs.family
	r := len(fs.cards)
	remaining := t.CellsAtOrder(r) - t.SignificantAtOrder(r)
	if remaining <= 0 {
		return CellTest{}, fmt.Errorf("mml: no remaining cells at order %d", r)
	}

	ct := CellTest{
		Family:    family,
		Values:    values,
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
	forced, rangeMax, err := t.chanceRange(fs, values)
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
// discovery engine backs it with the model's compiled inference engine,
// which prices one scan pass's whole batch at once (maxent.Model.Marginals:
// one shared elimination walk on a dense engine); PerCell adapts per-cell
// callbacks. Implementations must be safe for concurrent use.
type Predictor interface {
	// Marginals returns the predicted probability of every cell of each
	// family, in family order; each marginal is dense row-major over the
	// family's members ascending (first member slowest) — the order an
	// odometer over the family's value space visits cells. workers bounds
	// the goroutines an implementation may fan the batch out over, as
	// par.Do reads it; results must not depend on it.
	Marginals(families []contingency.VarSet, workers int) ([][]float64, error)
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
// given attribute cardinalities. It prices the families one after the
// other on the calling goroutine. Note the batch contract: predict is
// called for every cell of a requested family, including cells already
// marked significant (whose predictions the scan then ignores).
func PerCell(cards []int, predict func(family contingency.VarSet, values []int) (float64, error)) Predictor {
	return perCell{cards: append([]int(nil), cards...), predict: predict}
}

func (p perCell) Marginals(families []contingency.VarSet, _ int) ([][]float64, error) {
	out := make([][]float64, len(families))
	for i, fam := range families {
		var err error
		if out[i], err = p.marginal(fam); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// marginal evaluates every cell of one family in odometer order.
func (p perCell) marginal(family contingency.VarSet) ([]float64, error) {
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

// familySize returns the number of cells of a family within the table.
func (t *Tester) familySize(fam contingency.VarSet) int {
	size := 1
	for p := range fam.All() {
		size *= t.table.Card(p)
	}
	return size
}

// scanFamily scores one family from its predicted marginal: one
// significance test per not-yet-significant cell, in deterministic
// odometer order. The odometer's index is the cell's row-major offset, so
// the significance lookup needs no key.
func (t *Tester) scanFamily(fam contingency.VarSet, marg []float64) ([]CellTest, error) {
	members := fam.Members()
	size := t.familySize(fam)
	if len(marg) != size {
		return nil, fmt.Errorf("mml: predictor returned %d probabilities for family %v (%d cells)",
			len(marg), fam, size)
	}
	fs := t.newFamilyScan(fam)
	open := size - len(t.sig[fam])
	out := make([]CellTest, 0, open)
	// Every test's Values, carved in cell order from one buffer.
	owned := make([]int, open*len(members))
	values := make([]int, len(members))
	for idx := 0; ; idx++ {
		if !t.sigKeys[cellID{fam, idx}] {
			if err := checkPredicted(marg[idx]); err != nil {
				return nil, err
			}
			v := owned[:len(members):len(members)]
			owned = owned[len(members):]
			copy(v, values)
			observed, err := t.marginalCount(fam, v)
			if err != nil {
				return nil, err
			}
			ct, err := t.score(fs, v, observed, marg[idx])
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
