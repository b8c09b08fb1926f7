package mml

import (
	"math"
	"math/rand"
	"testing"

	"pka/internal/contingency"
)

// uncachedCounts hides the backend's concrete type, so a tester over it
// cannot project per-family marginals and answers every count through the
// backend's own MarginalCount — the reference path.
type uncachedCounts struct{ contingency.Counts }

// marginalsTable is a five-attribute table with mixed cardinalities and
// some empty cells.
func marginalsTable(t *testing.T) *contingency.Table {
	t.Helper()
	tab := contingency.MustNew([]string{"A", "B", "C", "D", "E"}, []int{2, 3, 2, 3, 2})
	rng := rand.New(rand.NewSource(5))
	cell := make([]int, tab.R())
	for off := 0; off < tab.NumCells(); off++ {
		if rng.Intn(6) == 0 {
			continue
		}
		if err := tab.Unflatten(off, cell); err != nil {
			t.Fatal(err)
		}
		if err := tab.Set(int64(1+rng.Intn(200)), cell...); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// markSiblings accepts a fixed set of cells: several cells of one family
// (siblings under shared margins), a lone cell of a binary pair (whose
// remaining siblings become forced), and order-2 cells that make order-3
// sub-marginals known, plus one order-3 cell.
func markSiblings(t *testing.T, tt *Tester) {
	t.Helper()
	marks := []struct {
		fam    contingency.VarSet
		values []int
	}{
		{contingency.NewVarSet(0, 1), []int{0, 0}},
		{contingency.NewVarSet(0, 1), []int{1, 2}},
		{contingency.NewVarSet(0, 1), []int{0, 1}},
		{contingency.NewVarSet(2, 4), []int{1, 0}},
		{contingency.NewVarSet(1, 3), []int{2, 2}},
		{contingency.NewVarSet(0, 2), []int{0, 1}},
		{contingency.NewVarSet(0, 1, 2), []int{0, 0, 1}},
	}
	for _, m := range marks {
		if err := tt.MarkSignificant(m.fam, m.values); err != nil {
			t.Fatal(err)
		}
	}
}

// sameCellTest reports whether two tests agree bit for bit.
func sameCellTest(a, b CellTest) bool {
	if a.Family != b.Family || len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			return false
		}
	}
	floats := [][2]float64{
		{a.Predicted, b.Predicted}, {a.Mean, b.Mean}, {a.SD, b.SD}, {a.Z, b.Z},
		{a.M1, b.M1}, {a.M2, b.M2}, {a.Delta, b.Delta}, {a.LikelihoodRatio, b.LikelihoodRatio},
	}
	for _, f := range floats {
		if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
			return false
		}
	}
	return a.Observed == b.Observed && a.Significant == b.Significant &&
		a.Forced == b.Forced && a.Range == b.Range
}

// TestFamilyMarginalsMatchUncached: a tester serving its counts from
// per-family marginal tables scores exactly like one recounting every
// marginal through the backend, on dense and sparse tables, sequentially
// and over several workers, with marked siblings (forced cells included)
// and known sub-marginals at order 3. Under -race the parallel scans also
// pin the marginal cache's synchronization: every scan starts cold.
func TestFamilyMarginalsMatchUncached(t *testing.T) {
	dense := marginalsTable(t)
	sparse, err := contingency.FromDense(dense)
	if err != nil {
		t.Fatal(err)
	}
	predict := PerCell(dense.Cards(), independencePredictor(t, dense))
	backends := []struct {
		name string
		tab  contingency.Counts
	}{{"dense", dense}, {"sparse", sparse}}
	for _, be := range backends {
		for _, workers := range []int{0, 1, 2, 8} {
			ref, err := NewTester(uncachedCounts{be.tab}, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			got, err := NewTester(be.tab, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			markSiblings(t, ref)
			markSiblings(t, got)
			forced := 0
			for r := 2; r <= 3; r++ {
				want, err := ref.ScanOrder(r, predict)
				if err != nil {
					t.Fatal(err)
				}
				var tests []CellTest
				if workers == 0 {
					tests, err = got.ScanOrder(r, predict)
				} else {
					tests, err = got.ScanOrderParallel(r, predict, workers)
				}
				if err != nil {
					t.Fatal(err)
				}
				if len(tests) != len(want) {
					t.Fatalf("%s workers=%d order %d: %d tests, reference %d",
						be.name, workers, r, len(tests), len(want))
				}
				for i := range want {
					if !sameCellTest(tests[i], want[i]) {
						t.Fatalf("%s workers=%d order %d: test %d = %+v, reference %+v",
							be.name, workers, r, i, tests[i], want[i])
					}
					if want[i].Forced {
						forced++
					}
				}
			}
			if forced == 0 {
				t.Fatalf("%s: the marked siblings forced no cell; the fixture no longer covers Eq. 41's ELSE branch", be.name)
			}
		}
	}
}

// TestFamilyMarginalsErrorsMatchBackend: out-of-range values and
// wrong-length cells fail with the backend's own error, cache or no cache.
func TestFamilyMarginalsErrorsMatchBackend(t *testing.T) {
	dense := marginalsTable(t)
	tt, err := NewTester(dense, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fam := contingency.NewVarSet(0, 1)
	for _, values := range [][]int{{0, 3}, {0}, {-1, 0}} {
		_, want := dense.MarginalCount(fam, values)
		_, got := tt.marginalCount(fam, values)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("values %v: error %v, backend %v", values, got, want)
		}
	}
}
