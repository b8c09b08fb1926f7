package core

import (
	"math"
	"math/rand"
	"testing"

	"pka/internal/contingency"
	"pka/internal/maxent"
	"pka/internal/stats"
	"pka/internal/synth"
)

func TestGoodnessOfFitValidation(t *testing.T) {
	tab := memoTable(t)
	m, _ := maxent.NewModel(nil, []int{2, 2})
	if _, err := GoodnessOfFit(tab, m); err == nil {
		t.Error("shape mismatch accepted")
	}
	empty := contingency.MustNew(nil, []int{3, 2, 2})
	res, err := Discover(tab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GoodnessOfFit(empty, res.Model); err == nil {
		t.Error("empty table accepted")
	}
}

func TestGoodnessOfFitImprovesWithDiscovery(t *testing.T) {
	tab := memoTable(t)
	// Independence-only model.
	indep, err := maxent.NewModel(tab.Names(), tab.Cards())
	if err != nil {
		t.Fatal(err)
	}
	if err := indep.AddFirstOrderConstraints(tab); err != nil {
		t.Fatal(err)
	}
	if _, err := indep.Fit(maxent.SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	fitIndep, err := GoodnessOfFit(tab, indep)
	if err != nil {
		t.Fatal(err)
	}
	// Discovered model.
	res, err := Discover(tab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fitDisc, err := GoodnessOfFit(tab, res.Model)
	if err != nil {
		t.Fatal(err)
	}
	if fitDisc.G2 >= fitIndep.G2 {
		t.Errorf("discovery did not reduce deviance: %.2f -> %.2f", fitIndep.G2, fitDisc.G2)
	}
	// The independence model must be rejected on the memo's data
	// (G2 ≈ 2·N·KL ≈ 2·3428·0.028 ≈ 192 at 7 df).
	if fitIndep.PValue > 1e-6 {
		t.Errorf("independence not rejected: p = %g", fitIndep.PValue)
	}
	// The discovered model must be acceptable.
	if fitDisc.PValue < 0.01 {
		t.Errorf("discovered model rejected: p = %g (G2 %.2f at %d df)",
			fitDisc.PValue, fitDisc.G2, fitDisc.DF)
	}
	// Deviance identity: G2 = 2·N·KL(emp ‖ model).
	emp, _ := tab.Probabilities()
	joint, _ := res.Model.Joint()
	kl, err := stats.KLDivergence(emp, joint)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * float64(tab.Total()) * kl; math.Abs(fitDisc.G2-want) > 1e-6*want+1e-9 {
		t.Errorf("G2 = %.6f, 2·N·KL = %.6f", fitDisc.G2, want)
	}
}

func TestGoodnessOfFitDFAccounting(t *testing.T) {
	tab := memoTable(t)
	res, err := Discover(tab, Options{MaxConstraints: 1})
	if err != nil {
		t.Fatal(err)
	}
	fit, err := GoodnessOfFit(tab, res.Model)
	if err != nil {
		t.Fatal(err)
	}
	// 12 cells − 1 − [(3-1)+(2-1)+(2-1)] first-order − 1 higher-order = 6.
	if fit.DF != 6 {
		t.Errorf("df = %d, want 6", fit.DF)
	}
}

func TestGoodnessOfFitSaturated(t *testing.T) {
	// A model with df <= 0 reports PValue 1 and (near) zero deviance when
	// it reproduces the data exactly.
	tab := contingency.MustNew(nil, []int{2, 2})
	tab.Set(10, 0, 0)
	tab.Set(20, 0, 1)
	tab.Set(30, 1, 0)
	tab.Set(40, 1, 1)
	res, err := Discover(tab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fit, err := GoodnessOfFit(tab, res.Model)
	if err != nil {
		t.Fatal(err)
	}
	if fit.PValue != 1 && fit.DF > 0 {
		// Either saturated (df<=0, p=1) or fitting well.
		if fit.PValue < 0.01 {
			t.Errorf("well-fitting model rejected: %+v", fit)
		}
	}
}

func TestGoodnessOfFitOnTruthScale(t *testing.T) {
	// Sampling from a known model: the discovered fit should be accepted
	// at conventional levels most of the time; seed fixed so this is
	// deterministic.
	truth, err := synth.Survey(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := truth.SampleTable(stats.NewRNG(3), 30000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Discover(tab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fit, err := GoodnessOfFit(tab, res.Model)
	if err != nil {
		t.Fatal(err)
	}
	if fit.PValue < 1e-4 {
		t.Errorf("fit rejected on its own generating family: %+v", fit)
	}
}

// TestGoodnessOfFitDenseTableWideModel: a dense table whose joint space
// exceeds the dense-engine threshold fits through the factored engine —
// goodness-of-fit must then score over occupied cells instead of failing
// on the unmaterializable joint, and agree with the sparse backend.
func TestGoodnessOfFitDenseTableWideModel(t *testing.T) {
	const r = 21 // 2^21 cells, above the 2^20 dense-engine cap
	cards := make([]int, r)
	for i := range cards {
		cards[i] = 2
	}
	table := contingency.MustNew(nil, cards)
	rng := rand.New(rand.NewSource(3))
	cell := make([]int, r)
	for n := 0; n < 2000; n++ {
		for i := range cell {
			cell[i] = rng.Intn(2)
		}
		if err := table.Observe(cell...); err != nil {
			t.Fatal(err)
		}
	}
	model, err := maxent.NewModel(nil, cards)
	if err != nil {
		t.Fatal(err)
	}
	if err := model.AddFirstOrderConstraints(table); err != nil {
		t.Fatal(err)
	}
	if _, err := model.Fit(maxent.SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	fit, err := GoodnessOfFit(table, model)
	if err != nil {
		t.Fatalf("dense table over wide model rejected: %v", err)
	}
	sp, err := contingency.FromDense(table)
	if err != nil {
		t.Fatal(err)
	}
	fitSp, err := GoodnessOfFit(sp, model)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.G2-fitSp.G2) > 1e-6*math.Abs(fit.G2) ||
		math.Abs(fit.X2-fitSp.X2) > 1e-6*math.Abs(fit.X2) {
		t.Errorf("dense backend fit %+v, sparse backend %+v", fit, fitSp)
	}
	if want := 1<<21 - 1 - r; fit.DF != want {
		t.Errorf("DF = %d, want %d", fit.DF, want)
	}
}

// jointFit is the full-joint oracle for GoodnessOfFit: G² and X² over every
// cell of the model's materialized joint scaled by N, through stats.GStat
// and stats.ChiSquareStat.
func jointFit(t *testing.T, tab *contingency.Table, model *maxent.Model) (g2, x2 float64) {
	t.Helper()
	joint, err := model.Joint()
	if err != nil {
		t.Fatal(err)
	}
	n := float64(tab.Total())
	expected := make([]float64, len(joint))
	for i, p := range joint {
		expected[i] = p * n
	}
	if g2, err = stats.GStat(tab.Counts(), expected); err != nil {
		t.Fatal(err)
	}
	if x2, err = stats.ChiSquareStat(tab.Counts(), expected); err != nil {
		t.Fatal(err)
	}
	return g2, x2
}

// golden7DenseTable is the dense workload of the root golden7 fixtures:
// six ternary attributes, 4000 seeded rows, two planted couplings.
func golden7DenseTable(t *testing.T) *contingency.Table {
	t.Helper()
	tab := contingency.MustNew(nil, []int{3, 3, 3, 3, 3, 3})
	rng := rand.New(rand.NewSource(808))
	rec := make([]int, 6)
	for n := 0; n < 4000; n++ {
		for i := range rec {
			rec[i] = rng.Intn(3)
		}
		if rng.Float64() < 0.6 {
			rec[1] = rec[0]
		}
		if rng.Float64() < 0.5 {
			rec[4] = rec[3]
		}
		if err := tab.Observe(rec...); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// TestGoodnessOfFitMatchesJointOracle: the occupied-cell walk agrees with
// the full-joint statistics to 1e-9 relative, on the paper's table (both
// the independence and the discovered model) and on the golden7 dense
// workload discovered to order 3.
func TestGoodnessOfFitMatchesJointOracle(t *testing.T) {
	memo := memoTable(t)
	indep, err := maxent.NewModel(memo.Names(), memo.Cards())
	if err != nil {
		t.Fatal(err)
	}
	if err := indep.AddFirstOrderConstraints(memo); err != nil {
		t.Fatal(err)
	}
	if _, err := indep.Fit(maxent.SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	paper, err := Discover(memo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g7 := golden7DenseTable(t)
	golden, err := Discover(g7, Options{MaxOrder: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		tab   *contingency.Table
		model *maxent.Model
	}{
		{"paper independence", memo, indep},
		{"paper discovered", memo, paper.Model},
		{"golden7 dense", g7, golden.Model},
	} {
		fit, err := GoodnessOfFit(tc.tab, tc.model)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		g2, x2 := jointFit(t, tc.tab, tc.model)
		if math.Abs(fit.G2-g2) > 1e-9*g2 || math.Abs(fit.X2-x2) > 1e-9*x2 {
			t.Errorf("%s: G² %.12g X² %.12g, joint oracle G² %.12g X² %.12g", tc.name, fit.G2, fit.X2, g2, x2)
		}
	}
}

// TestGoodnessOfFitRuledOutCell: a model that gives an occupied cell of a
// dense table zero probability scores +Inf with p = 0, as the joint oracle
// does.
func TestGoodnessOfFitRuledOutCell(t *testing.T) {
	tab := contingency.MustNew(nil, []int{2, 2})
	for cell, c := range map[[2]int]int64{{0, 0}: 5, {0, 1}: 20, {1, 0}: 30, {1, 1}: 45} {
		if err := tab.Set(c, cell[0], cell[1]); err != nil {
			t.Fatal(err)
		}
	}
	model, err := maxent.NewModel(nil, tab.Cards())
	if err != nil {
		t.Fatal(err)
	}
	if err := model.AddFirstOrderConstraints(tab); err != nil {
		t.Fatal(err)
	}
	if err := model.AddConstraint(maxent.Constraint{Family: contingency.NewVarSet(0, 1), Values: []int{0, 0}, Target: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := model.Fit(maxent.SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	if p, err := model.CellProb([]int{0, 0}); err != nil || p != 0 {
		t.Fatalf("cell (0,0) has probability %g (%v), want 0", p, err)
	}
	fit, err := GoodnessOfFit(tab, model)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(fit.G2, 1) || !math.IsInf(fit.X2, 1) || fit.PValue != 0 {
		t.Errorf("fit %+v, want G² = X² = +Inf and p = 0", fit)
	}
	if g2, x2 := jointFit(t, tab, model); !math.IsInf(g2, 1) || !math.IsInf(x2, 1) {
		t.Errorf("joint oracle G² %g X² %g, want +Inf", g2, x2)
	}
}
