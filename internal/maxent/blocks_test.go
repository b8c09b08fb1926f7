package maxent

import (
	"math"
	"math/rand"
	"testing"

	"pka/internal/contingency"
)

// forceFactored lowers the dense-model threshold so a small test model
// takes the factored path, restoring it afterwards. Tests using it must
// not run in parallel.
func forceFactored(t *testing.T, cells int) {
	t.Helper()
	prev := denseModelCells
	denseModelCells = cells
	t.Cleanup(func() { denseModelCells = prev })
}

// buildBlockTestModels returns two identical unfitted models over a
// [3,2,2,3] space with first-order constraints from a random table plus
// one order-2 constraint inside each of the blocks {0,1} and {2,3}.
func buildBlockTestModels(t *testing.T) (*Model, *Model, *contingency.Table) {
	t.Helper()
	tab := contingency.MustNew(nil, []int{3, 2, 2, 3})
	rng := rand.New(rand.NewSource(42))
	cell := make([]int, 4)
	for n := 0; n < 5000; n++ {
		cell[0] = rng.Intn(3)
		cell[1] = cell[0] % 2
		if rng.Float64() < 0.3 {
			cell[1] = rng.Intn(2)
		}
		cell[2] = rng.Intn(2)
		cell[3] = cell[2]
		if rng.Float64() < 0.25 {
			cell[3] = rng.Intn(3)
		}
		if err := tab.Observe(cell...); err != nil {
			t.Fatal(err)
		}
	}
	mk := func() *Model {
		m, err := NewModel(nil, tab.Cards())
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddFirstOrderConstraints(tab); err != nil {
			t.Fatal(err)
		}
		for _, con := range []struct {
			fam  contingency.VarSet
			vals []int
		}{
			{contingency.NewVarSet(0, 1), []int{1, 1}},
			{contingency.NewVarSet(2, 3), []int{0, 0}},
		} {
			n, err := tab.MarginalCount(con.fam, con.vals)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.AddConstraint(Constraint{
				Family: con.fam,
				Values: con.vals,
				Target: float64(n) / float64(tab.Total()),
			}); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	return mk(), mk(), tab
}

// TestFactoredFitMatchesDense fits the same constrained model through the
// dense solver and the factored (block-decomposed) solver and demands the
// same distribution: every cell probability, marginal, and conditional
// slice agrees to solver precision.
func TestFactoredFitMatchesDense(t *testing.T) {
	dense, factored, _ := buildBlockTestModels(t)
	opts := SolveOptions{Tol: 1e-12}
	if _, err := dense.Fit(opts); err != nil {
		t.Fatal(err)
	}

	forceFactored(t, 16) // total space 36 > 16; blocks of 6 cells still fit
	rep, err := factored.Fit(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatalf("factored fit did not converge (residual %g)", rep.Residual)
	}
	cd, err := dense.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cf, err := factored.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if cf.eng != nil || len(cf.blocks) == 0 {
		t.Fatal("model did not compile in factored mode")
	}
	if cd.eng == nil {
		t.Fatal("reference model not in dense mode")
	}

	const tol = 1e-9
	cell := make([]int, 4)
	for a := 0; a < 3; a++ {
		for b := 0; b < 2; b++ {
			for c := 0; c < 2; c++ {
				for d := 0; d < 3; d++ {
					cell[0], cell[1], cell[2], cell[3] = a, b, c, d
					pd, err := cd.CellProb(cell)
					if err != nil {
						t.Fatal(err)
					}
					pf, err := cf.CellProb(cell)
					if err != nil {
						t.Fatal(err)
					}
					if math.Abs(pd-pf) > tol {
						t.Fatalf("CellProb%v: dense %.15f, factored %.15f", cell, pd, pf)
					}
				}
			}
		}
	}

	// Marginals over families straddling both blocks.
	for _, fam := range []contingency.VarSet{
		contingency.NewVarSet(0),
		contingency.NewVarSet(1, 2),
		contingency.NewVarSet(0, 3),
		contingency.NewVarSet(0, 1, 2, 3),
	} {
		md, err := cd.Marginal(fam)
		if err != nil {
			t.Fatal(err)
		}
		mf, err := cf.Marginal(fam)
		if err != nil {
			t.Fatal(err)
		}
		if len(md) != len(mf) {
			t.Fatalf("Marginal(%v): %d vs %d cells", fam, len(md), len(mf))
		}
		for i := range md {
			if math.Abs(md[i]-mf[i]) > tol {
				t.Fatalf("Marginal(%v)[%d]: dense %.15f, factored %.15f", fam, i, md[i], mf[i])
			}
		}
	}

	// Pinned probabilities and conditional slices.
	vs := contingency.NewVarSet(1, 3)
	pd, err := cd.Prob(vs, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	pf, err := cf.Prob(vs, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pd-pf) > tol {
		t.Fatalf("Prob: dense %.15f, factored %.15f", pd, pf)
	}
	fixed := []int{-1, 0, -1, 1}
	gd, err := cd.MarginalGiven(contingency.NewVarSet(0), fixed)
	if err != nil {
		t.Fatal(err)
	}
	gf, err := cf.MarginalGiven(contingency.NewVarSet(0), fixed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gd {
		if math.Abs(gd[i]-gf[i]) > tol {
			t.Fatalf("MarginalGiven[%d]: dense %.15f, factored %.15f", i, gd[i], gf[i])
		}
	}

	// The residual of the factored model against its targets is solver-tight.
	resid, err := factored.Residual()
	if err != nil {
		t.Fatal(err)
	}
	if resid > 1e-9 {
		t.Errorf("factored residual %g", resid)
	}
}

// TestFactoredJointRefuses verifies factored snapshots refuse to
// materialize the joint instead of allocating it.
// forceNoDenseFallback lowers the absolute dense ceiling so the hard
// refusal paths (Joint, over-dense blocks, RecordTrace on truly wide
// models) can be exercised on small test models.
func forceNoDenseFallback(t *testing.T, cells int) {
	t.Helper()
	prev := maxDenseCells
	maxDenseCells = cells
	t.Cleanup(func() { maxDenseCells = prev })
}

// TestFactoredJointMaterializes: under the absolute dense ceiling a
// factored snapshot can still materialize its joint (cell-product walk),
// matching the dense engine; beyond the ceiling it refuses.
func TestFactoredJointMaterializes(t *testing.T) {
	dense, factored, _ := buildBlockTestModels(t)
	opts := SolveOptions{Tol: 1e-12}
	if _, err := dense.Fit(opts); err != nil {
		t.Fatal(err)
	}
	forceFactored(t, 16)
	if _, err := factored.Fit(opts); err != nil {
		t.Fatal(err)
	}
	cf, err := factored.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !cf.Factored() {
		t.Fatal("wide model compiled dense")
	}
	jf, err := factored.Joint()
	if err != nil {
		t.Fatalf("factored Joint under the dense ceiling refused: %v", err)
	}
	jd, err := dense.Joint()
	if err != nil {
		t.Fatal(err)
	}
	for i := range jd {
		if math.Abs(jf[i]-jd[i]) > 1e-9 {
			t.Fatalf("joint cell %d: factored %v, dense %v", i, jf[i], jd[i])
		}
	}
	if _, err := factored.Entropy(); err != nil {
		t.Errorf("factored Entropy under the dense ceiling refused: %v", err)
	}
	// Beyond the absolute ceiling both refuse.
	forceNoDenseFallback(t, 16)
	if _, err := factored.Joint(); err == nil {
		t.Error("factored Joint materialized beyond the dense ceiling")
	}
	if _, err := factored.Entropy(); err == nil {
		t.Error("factored Entropy materialized beyond the dense ceiling")
	}
}

// TestFactoredBlockTooDense verifies the factored solver reports (instead
// of attempting) a constraint block wider than the dense sub-solve limit.
func TestFactoredBlockTooDense(t *testing.T) {
	dense, _, tab := buildBlockTestModels(t)
	// Couple everything into one block.
	n, err := tab.MarginalCount(contingency.NewVarSet(0, 1, 2, 3), []int{0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := dense.AddConstraint(Constraint{
		Family: contingency.NewVarSet(0, 1, 2, 3),
		Values: []int{0, 0, 0, 0},
		Target: float64(n) / float64(tab.Total()),
	}); err != nil {
		t.Fatal(err)
	}
	forceFactored(t, 16) // the single 36-cell block now exceeds the limit

	// Under the absolute ceiling the dense solver absorbs the over-dense
	// block, so the fit still succeeds.
	rep, err := dense.Fit(SolveOptions{Tol: 1e-12})
	if err != nil {
		t.Fatalf("over-dense block under the ceiling not absorbed: %v", err)
	}
	if !rep.Converged {
		t.Errorf("fallback dense fit did not converge: %+v", rep)
	}
	c, err := dense.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if c.Factored() {
		t.Error("over-dense block compiled factored")
	}

	// Beyond the ceiling the factored solver reports instead of attempting.
	forceNoDenseFallback(t, 16)
	if _, err := dense.Fit(SolveOptions{}); err == nil {
		t.Error("over-dense block accepted beyond the dense ceiling")
	}
}

// TestFactoredRecordTrace: a trace request routes through the dense solver
// while the joint fits under the absolute ceiling, and errors beyond it.
func TestFactoredRecordTrace(t *testing.T) {
	_, factored, _ := buildBlockTestModels(t)
	forceFactored(t, 16)
	rep, err := factored.Fit(SolveOptions{RecordTrace: true})
	if err != nil {
		t.Fatalf("RecordTrace under the dense ceiling rejected: %v", err)
	}
	if len(rep.Trace) == 0 {
		t.Error("no trace recorded by the dense fallback")
	}
	forceNoDenseFallback(t, 16)
	if _, err := factored.Fit(SolveOptions{RecordTrace: true}); err == nil {
		t.Error("RecordTrace accepted on the factored path beyond the ceiling")
	}
}

// TestMaxCellMatchesBruteForce checks MaxCell against exhaustive argmax
// enumeration, in both engine modes and under various pin patterns. The
// factored answer must match the brute-force cell exactly (including the
// toward-smaller-cells tie-break) and its probability bit for bit.
func TestMaxCellMatchesBruteForce(t *testing.T) {
	cards := []int{3, 2, 2, 3}
	brute := func(c *Compiled, fixed []int) ([]int, float64) {
		best := make([]int, len(cards))
		bestP := -1.0
		cell := make([]int, len(cards))
		for {
			ok := true
			if fixed != nil {
				for i, v := range fixed {
					if v >= 0 && cell[i] != v {
						ok = false
						break
					}
				}
			}
			if ok {
				p, err := c.CellProb(cell)
				if err != nil {
					t.Fatal(err)
				}
				if p > bestP {
					bestP = p
					copy(best, cell)
				}
			}
			i := len(cell) - 1
			for i >= 0 {
				cell[i]++
				if cell[i] < cards[i] {
					break
				}
				cell[i] = 0
				i--
			}
			if i < 0 {
				break
			}
		}
		return best, bestP
	}
	pins := [][]int{
		nil,
		{-1, -1, -1, -1},
		{1, -1, -1, -1},
		{-1, -1, 0, -1},
		{2, 0, -1, 1},
		{0, 1, 1, 2}, // fully pinned
	}
	check := func(t *testing.T, c *Compiled) {
		t.Helper()
		for _, fixed := range pins {
			wantCell, wantP := brute(c, fixed)
			gotCell, gotP, err := c.MaxCell(fixed)
			if err != nil {
				t.Fatal(err)
			}
			for i := range wantCell {
				if gotCell[i] != wantCell[i] {
					t.Fatalf("MaxCell(%v) = %v, brute force %v", fixed, gotCell, wantCell)
				}
			}
			if gotP != wantP {
				t.Errorf("MaxCell(%v) p = %v, brute force %v", fixed, gotP, wantP)
			}
		}
		if _, _, err := c.MaxCell([]int{0, 0}); err == nil {
			t.Error("short fixed slice accepted")
		}
		if _, _, err := c.MaxCell([]int{0, 0, 0, 99}); err == nil {
			t.Error("out-of-range pin accepted")
		}
	}

	dense, factored, _ := buildBlockTestModels(t)
	if _, err := dense.Fit(SolveOptions{Tol: 1e-12}); err != nil {
		t.Fatal(err)
	}
	cd, err := dense.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if cd.Factored() {
		t.Fatal("dense model compiled factored")
	}
	t.Run("dense", func(t *testing.T) { check(t, cd) })

	forceFactored(t, 16)
	if _, err := factored.Fit(SolveOptions{Tol: 1e-12}); err != nil {
		t.Fatal(err)
	}
	cf, err := factored.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !cf.Factored() {
		t.Fatal("wide model compiled dense")
	}
	t.Run("factored", func(t *testing.T) { check(t, cf) })
}

// wideBlockConstraints synthesizes a consistent constraint set over
// nBlocks independent blocks of blockAttrs ternary attributes each:
// first-order marginals for every value plus order-2 constraints chaining
// each block's attributes to its first, all with empirical targets from
// one seeded sample — so the set is always satisfiable. Returned in
// deterministic insertion order (first-order by attribute, then order-2
// by block).
func wideBlockConstraints(tb testing.TB, nBlocks, blockAttrs int, seed int64) ([]Constraint, []int) {
	tb.Helper()
	r := nBlocks * blockAttrs
	cards := make([]int, r)
	for i := range cards {
		cards[i] = 3
	}
	tab, err := contingency.NewSparse(nil, cards)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	cell := make([]int, r)
	for n := 0; n < 4000; n++ {
		for b := 0; b < nBlocks; b++ {
			base := b * blockAttrs
			cell[base] = rng.Intn(3)
			for j := 1; j < blockAttrs; j++ {
				// Correlated within the block, independent across blocks.
				if rng.Float64() < 0.7 {
					cell[base+j] = cell[base]
				} else {
					cell[base+j] = rng.Intn(3)
				}
			}
		}
		if err := tab.Observe(cell...); err != nil {
			tb.Fatal(err)
		}
	}
	total := float64(tab.Total())
	var cons []Constraint
	for axis := 0; axis < r; axis++ {
		fam := contingency.NewVarSet(axis)
		for v := 0; v < 3; v++ {
			n, err := tab.MarginalCount(fam, []int{v})
			if err != nil {
				tb.Fatal(err)
			}
			cons = append(cons, Constraint{Family: fam, Values: []int{v}, Target: float64(n) / total})
		}
	}
	for b := 0; b < nBlocks; b++ {
		base := b * blockAttrs
		for j := 1; j < blockAttrs; j++ {
			fam := contingency.NewVarSet(base, base+j)
			n, err := tab.MarginalCount(fam, []int{1, 1})
			if err != nil {
				tb.Fatal(err)
			}
			cons = append(cons, Constraint{Family: fam, Values: []int{1, 1}, Target: float64(n) / total})
		}
	}
	return cons, cards
}

// modelFromConstraints builds an unfitted model with the constraints added
// in the given order.
func modelFromConstraints(tb testing.TB, cards []int, cons []Constraint) *Model {
	tb.Helper()
	m, err := NewModel(nil, cards)
	if err != nil {
		tb.Fatal(err)
	}
	for _, c := range cons {
		if err := m.AddConstraint(c); err != nil {
			tb.Fatal(err)
		}
	}
	return m
}

// requireSameReport fails unless the scalar report fields match bitwise.
func requireSameReport(t *testing.T, want, got *Report, label string) {
	t.Helper()
	if got.Sweeps != want.Sweeps ||
		math.Float64bits(got.Residual) != math.Float64bits(want.Residual) ||
		got.Converged != want.Converged ||
		got.BlocksFit != want.BlocksFit || got.BlocksSkipped != want.BlocksSkipped {
		t.Fatalf("%s: report %+v != want %+v", label, got, want)
	}
}

// requireBitIdentical fails unless two models carry bitwise-equal a0 and
// family coefficient arrays.
func requireBitIdentical(t *testing.T, want, got *Model, label string) {
	t.Helper()
	if math.Float64bits(want.a0) != math.Float64bits(got.a0) {
		t.Fatalf("%s: a0 %v (bits %x) != want %v (bits %x)",
			label, got.a0, math.Float64bits(got.a0), want.a0, math.Float64bits(want.a0))
	}
	if len(want.families) != len(got.families) {
		t.Fatalf("%s: %d families vs %d", label, len(got.families), len(want.families))
	}
	for vs, wf := range want.families {
		gf, ok := got.families[vs]
		if !ok {
			t.Fatalf("%s: family %v missing", label, vs)
		}
		for i := range wf.coeffs {
			if math.Float64bits(wf.coeffs[i]) != math.Float64bits(gf.coeffs[i]) {
				t.Fatalf("%s: family %v coeff %d: %v != want %v",
					label, vs, i, gf.coeffs[i], wf.coeffs[i])
			}
		}
	}
}

// TestFitFactoredAllSkippedKeepsSnapshot: an incremental factored refit
// that re-solves no block and reproduces a0 bitwise must keep the existing
// compiled snapshot instead of recompiling every block engine.
func TestFitFactoredAllSkippedKeepsSnapshot(t *testing.T) {
	cons, cards := wideBlockConstraints(t, 8, 2, 13)
	m := modelFromConstraints(t, cards, cons)
	if rep, err := m.Fit(SolveOptions{}); err != nil || !rep.Converged {
		t.Fatalf("initial fit: %v (%+v)", err, rep)
	}
	before := m.compiled.Load()
	if before == nil {
		t.Fatal("fit left no compiled snapshot")
	}
	// Drive fitFactored directly with a clean dirty map: the Fit entry
	// point short-circuits this case, but fitFactored must still hold the
	// keep-the-snapshot contract for it.
	opts, err := SolveOptions{Incremental: true}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.fitFactored(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksFit != 0 {
		t.Fatalf("all-clean refit re-solved %d blocks", rep.BlocksFit)
	}
	if got := m.compiled.Load(); got != before {
		t.Fatal("all-skipped incremental refit recompiled the snapshot")
	}
}

// TestFitFactoredParallelError: a block whose constraints cannot be
// satisfied must fail the factored fit, and two fresh models must fail
// with the same error.
func TestFitFactoredParallelError(t *testing.T) {
	cons, cards := wideBlockConstraints(t, 4, 2, 3)
	build := func() *Model {
		m := modelFromConstraints(t, cards, cons)
		// An impossible target: probability 1 on one cell of block 1 while
		// its complement keeps positive first-order targets.
		if err := m.SetTarget(contingency.NewVarSet(2, 3), []int{1, 1}, 1); err != nil {
			t.Fatal(err)
		}
		return m
	}
	_, first := build().Fit(SolveOptions{})
	if first == nil {
		t.Fatal("fit accepted an impossible constraint")
	}
	_, second := build().Fit(SolveOptions{})
	if second == nil || second.Error() != first.Error() {
		t.Fatalf("second fit error %v != first %q", second, first)
	}
}
