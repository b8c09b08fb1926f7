package mml

import (
	"math"
	"testing"

	"pka/internal/contingency"
)

// memoTable reconstructs the memo's Figure 1 data.
func memoTable(t testing.TB) *contingency.Table {
	t.Helper()
	tab := contingency.MustNew([]string{"A", "B", "C"}, []int{3, 2, 2})
	data := [3][2][2]int64{
		{{130, 110}, {410, 640}},
		{{62, 31}, {580, 460}},
		{{78, 22}, {520, 385}},
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			for k := 0; k < 2; k++ {
				if err := tab.Set(data[i][j][k], i, j, k); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return tab
}

// independencePredictor returns the product-of-marginals prediction
// (Eq. 62) — the model state before any second-order constraint is found.
func independencePredictor(t testing.TB, tab *contingency.Table) func(contingency.VarSet, []int) (float64, error) {
	t.Helper()
	firstOrder, err := tab.FirstOrderProbabilities()
	if err != nil {
		t.Fatal(err)
	}
	return func(fam contingency.VarSet, values []int) (float64, error) {
		p := 1.0
		for i, pos := range fam.Members() {
			p *= firstOrder[pos][values[i]]
		}
		return p, nil
	}
}

func TestNewTesterValidation(t *testing.T) {
	if _, err := NewTester(memoTable(t), Config{PriorH2: 0}); err == nil {
		t.Error("PriorH2=0 accepted")
	}
	if _, err := NewTester(memoTable(t), Config{PriorH2: 1}); err == nil {
		t.Error("PriorH2=1 accepted")
	}
	empty := contingency.MustNew(nil, []int{2, 2})
	if _, err := NewTester(empty, DefaultConfig()); err == nil {
		t.Error("empty table accepted")
	}
	tt, err := NewTester(memoTable(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tt.Table().Total() != 3428 {
		t.Error("Table accessor wrong")
	}
}

func TestCellsAtOrderMatchesMemo(t *testing.T) {
	tt, err := NewTester(memoTable(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The memo: "there are 16 second order cells".
	if got := tt.CellsAtOrder(2); got != 16 {
		t.Errorf("CellsAtOrder(2) = %d, memo says 16", got)
	}
	// Third order: the full 3×2×2 = 12 cells.
	if got := tt.CellsAtOrder(3); got != 12 {
		t.Errorf("CellsAtOrder(3) = %d, want 12", got)
	}
}

func TestMarkSignificantBookkeeping(t *testing.T) {
	tt, err := NewTester(memoTable(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fam := contingency.NewVarSet(0, 2)
	if tt.IsSignificant(fam, []int{0, 1}) {
		t.Error("fresh tester reports significance")
	}
	if err := tt.MarkSignificant(fam, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if !tt.IsSignificant(fam, []int{0, 1}) {
		t.Error("marked cell not reported")
	}
	if tt.SignificantAtOrder(2) != 1 {
		t.Errorf("M = %d, want 1", tt.SignificantAtOrder(2))
	}
	if err := tt.MarkSignificant(fam, []int{0, 1}); err == nil {
		t.Error("double mark accepted")
	}
	if err := tt.MarkSignificant(fam, []int{9, 9}); err == nil {
		t.Error("out-of-range mark accepted")
	}
}

// TestIsSignificantRejectsImpossibleCells: cells are keyed by their
// row-major offset, so values of the wrong length or out of range must
// never read as significant — in particular not as the marked cell whose
// offset they would compute — and must not panic.
func TestIsSignificantRejectsImpossibleCells(t *testing.T) {
	tt, err := NewTester(memoTable(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fam := contingency.NewVarSet(0, 1) // 3 x 2 cells
	if err := tt.MarkSignificant(fam, []int{1, 1}); err != nil {
		t.Fatal(err)
	}
	if !tt.IsSignificant(fam, []int{1, 1}) {
		t.Fatal("marked cell not reported")
	}
	for _, tc := range []struct {
		name   string
		fam    contingency.VarSet
		values []int
	}{
		{"value above its cardinality, same offset", fam, []int{0, 3}},
		{"negative value, same offset", fam, []int{2, -1}},
		{"first value out of range", fam, []int{3, 0}},
		{"too few values", fam, []int{3}},
		{"too many values", fam, []int{1, 1, 0}},
		{"no values", fam, nil},
		{"attribute beyond the table", contingency.NewVarSet(0, 5), []int{1, 1}},
		{"attribute in a later key word", contingency.NewVarSet(1, 200), []int{1, 1}},
		{"sub-family with the same offset", contingency.NewVarSet(0), []int{3}},
	} {
		if tt.IsSignificant(tc.fam, tc.values) {
			t.Errorf("%s: %v%v reported significant", tc.name, tc.fam, tc.values)
		}
		if err := tt.MarkSignificant(tc.fam, tc.values); err == nil {
			t.Errorf("%s: marking %v%v accepted", tc.name, tc.fam, tc.values)
		}
		if _, err := tt.Test(tc.fam, tc.values, 0.1); err == nil {
			t.Errorf("%s: testing %v%v accepted", tc.name, tc.fam, tc.values)
		}
	}
	if err := tt.MarkSignificant(fam, []int{1, 1}); err == nil {
		t.Error("double mark accepted")
	}
	if tt.SignificantAtOrder(2) != 1 {
		t.Errorf("M = %d after rejected marks, want 1", tt.SignificantAtOrder(2))
	}
}

func TestChanceRangeSecondOrderNoSiblings(t *testing.T) {
	// Before any significant cells, the range of an AB cell is
	// min(N_i^A, N_j^B): for AB11 that is min(1290, 433) = 433.
	tt, err := NewTester(memoTable(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	forced, rng, err := tt.chanceRange(tt.newFamilyScan(contingency.NewVarSet(0, 1)), []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if forced {
		t.Fatal("unconstrained cell reported forced")
	}
	if rng != 433 {
		t.Errorf("range = %d, want min(1290,433) = 433", rng)
	}
	// AB12: min(1290, 2995) = 1290.
	_, rng, err = tt.chanceRange(tt.newFamilyScan(contingency.NewVarSet(0, 1)), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if rng != 1290 {
		t.Errorf("range = %d, want 1290", rng)
	}
}

func TestChanceRangeSubtractsSiblings(t *testing.T) {
	tt, err := NewTester(memoTable(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fam := contingency.NewVarSet(0, 1)
	// Mark AB21 (count 93). Candidate AB11 shares margin B=1
	// (N^B_1 = 433): slack = 433 - 93 = 340; margin A=1 slack stays 1290.
	if err := tt.MarkSignificant(fam, []int{1, 0}); err != nil {
		t.Fatal(err)
	}
	forced, rng, err := tt.chanceRange(tt.newFamilyScan(fam), []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if forced {
		t.Fatal("cell with two free siblings reported forced")
	}
	if rng != 340 {
		t.Errorf("range = %d, want 433-93 = 340", rng)
	}
}

func TestChanceRangeForcedCell(t *testing.T) {
	// Once N^AB_11 is significant, N^AB_12 is determined by N^A_1:
	// the A=1 margin has only one free cell left.
	tt, err := NewTester(memoTable(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fam := contingency.NewVarSet(0, 1)
	if err := tt.MarkSignificant(fam, []int{0, 0}); err != nil {
		t.Fatal(err)
	}
	forced, _, err := tt.chanceRange(tt.newFamilyScan(fam), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !forced {
		t.Error("determined cell not reported forced")
	}
}

func TestChanceRangeThirdOrderUsesSignificantSecondOrder(t *testing.T) {
	// A significant second-order marginal becomes a known constraint for
	// third-order cells (the memo's "significant N^AB_ij" terms in Eq. 41).
	tt, err := NewTester(memoTable(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	full := contingency.NewVarSet(0, 1, 2)
	// Without second-order knowledge: range of ABC cell (1,1,1) is
	// min(N^A_1, N^B_1, N^C_1) = min(1290, 433, 1780) = 433.
	_, rng, err := tt.chanceRange(tt.newFamilyScan(full), []int{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if rng != 433 {
		t.Errorf("range = %d, want 433", rng)
	}
	// Mark N^AB_11 = 240 significant: now the AB marginal of (1,1,*) is
	// known and tighter: 240 < 433.
	if err := tt.MarkSignificant(contingency.NewVarSet(0, 1), []int{0, 0}); err != nil {
		t.Fatal(err)
	}
	_, rng, err = tt.chanceRange(tt.newFamilyScan(full), []int{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if rng != 240 {
		t.Errorf("range = %d, want the significant N^AB_11 = 240", rng)
	}
}

func TestTestValidation(t *testing.T) {
	tt, err := NewTester(memoTable(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tt.Test(contingency.NewVarSet(0), []int{0}, 0.5); err == nil {
		t.Error("first-order test accepted")
	}
	if _, err := tt.Test(contingency.NewVarSet(0, 1), []int{0, 0}, -0.1); err == nil {
		t.Error("negative probability accepted")
	}
	if _, err := tt.Test(contingency.NewVarSet(0, 1), []int{0, 0}, math.NaN()); err == nil {
		t.Error("NaN probability accepted")
	}
	fam := contingency.NewVarSet(0, 1)
	if err := tt.MarkSignificant(fam, []int{0, 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := tt.Test(fam, []int{0, 0}, 0.1); err == nil {
		t.Error("already-significant cell accepted")
	}
}

func TestPriorShiftMatchesMemo(t *testing.T) {
	// Memo: p(H2')=0.6 shifts m2-m1 by -0.40; 0.8 shifts it by -1.39.
	tab := memoTable(t)
	pred := independencePredictor(t, tab)
	fam := contingency.NewVarSet(0, 1)
	cell := []int{0, 1}
	p, _ := pred(fam, cell)

	base, err := NewTester(tab, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ct0, err := base.Test(fam, cell, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		prior float64
		shift float64
	}{{0.6, -0.40}, {0.8, -1.39}} {
		tt, err := NewTester(tab, Config{PriorH2: tc.prior})
		if err != nil {
			t.Fatal(err)
		}
		ct, err := tt.Test(fam, cell, p)
		if err != nil {
			t.Fatal(err)
		}
		got := ct.Delta - ct0.Delta
		if math.Abs(got-tc.shift) > 0.01 {
			t.Errorf("prior %g shifts delta by %.3f, memo says %.2f", tc.prior, got, tc.shift)
		}
	}
}
