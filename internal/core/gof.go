package core

import (
	"fmt"
	"math"

	"pka/internal/contingency"
	"pka/internal/maxent"
	"pka/internal/stats"
)

// Fit summarizes how well a fitted model explains a contingency table.
type Fit struct {
	// G2 is the likelihood-ratio (deviance) statistic 2 Σ obs ln(obs/exp).
	G2 float64
	// X2 is Pearson's statistic Σ (obs-exp)²/exp.
	X2 float64
	// DF is the residual degrees of freedom: cells − 1 − free parameters
	// (saturated at MaxInt for joint spaces too wide to count).
	DF int
	// PValue is the chi-square tail of G2 at DF (1 when DF <= 0).
	PValue float64
}

// GoodnessOfFit scores a model against observed data with the classical
// large-sample statistics. Free parameters are counted as Σ(card−1) for the
// first-order constraints (one value per attribute is implied by the rest)
// plus one per higher-order constraint; the count is approximate when
// higher-order constraints carry their own redundancies (e.g. implied
// zeros), which makes the test conservative.
//
// Scoring runs over the backend's occupied cells only, pricing each
// against the compiled model's cell probability and using the algebraic
// identities G2 = 2 Σ_occ obs ln(obs/exp) and X2 = Σ_occ obs²/exp − N, so no
// joint space is ever materialized. A model that rules out an occupied cell
// scores G2 = X2 = +Inf and PValue 0.
func GoodnessOfFit(table contingency.Counts, model *maxent.Model) (Fit, error) {
	if table.Total() == 0 {
		return Fit{}, fmt.Errorf("core: empty table")
	}
	if table.R() != model.R() {
		return Fit{}, fmt.Errorf("core: table has %d attributes, model %d", table.R(), model.R())
	}
	compiled, err := model.Compile()
	if err != nil {
		return Fit{}, err
	}
	n := float64(table.Total())
	var g2, x2 float64
	var ruledOut bool
	var visitErr error
	table.EachCell(func(cell []int, c int64) {
		if c == 0 || ruledOut || visitErr != nil {
			return
		}
		p, err := compiled.CellProb(cell)
		if err != nil {
			visitErr = err
			return
		}
		exp := p * n
		if exp <= 0 {
			ruledOut = true // model rules out an occupied cell
			return
		}
		o := float64(c)
		g2 += o * math.Log(o/exp)
		x2 += o * o / exp
	})
	if visitErr != nil {
		return Fit{}, visitErr
	}
	f := Fit{DF: residualDF(jointCells(table), model)}
	if ruledOut {
		f.G2, f.X2, f.PValue = math.Inf(1), math.Inf(1), 0
		return f, nil
	}
	f.G2 = 2 * g2
	f.X2 = x2 - n
	f.PValue = 1
	if f.DF > 0 {
		f.PValue = stats.ChiSquareSF(f.G2, f.DF)
	}
	return f, nil
}

// jointCells counts the backend's joint space, saturating at MaxInt.
func jointCells(table contingency.Counts) int {
	size := 1
	for i := 0; i < table.R(); i++ {
		c := table.Card(i)
		if size > math.MaxInt/c {
			return math.MaxInt
		}
		size *= c
	}
	return size
}

// residualDF computes cells − 1 − free parameters, saturating alongside
// the cell count.
func residualDF(cells int, model *maxent.Model) int {
	free := 0
	for _, c := range model.Cards() {
		free += c - 1
	}
	for _, con := range model.Constraints() {
		if con.Order() >= 2 {
			free++
		}
	}
	if cells == math.MaxInt {
		return math.MaxInt
	}
	return cells - 1 - free
}
