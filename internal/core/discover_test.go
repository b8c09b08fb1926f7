package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"pka/internal/contingency"
	"pka/internal/maxent"
	"pka/internal/stats"
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

func TestDiscoverValidation(t *testing.T) {
	empty := contingency.MustNew(nil, []int{2, 2})
	if _, err := Discover(empty, Options{}); err == nil {
		t.Error("empty table accepted")
	}
	one := contingency.MustNew(nil, []int{4})
	one.Set(5, 0)
	if _, err := Discover(one, Options{}); err == nil {
		t.Error("single-attribute table accepted")
	}
	tab := memoTable(t)
	if _, err := Discover(tab, Options{MaxOrder: 1}); err == nil {
		t.Error("MaxOrder 1 accepted")
	}
	if _, err := Discover(tab, Options{MaxOrder: 9}); err == nil {
		t.Error("MaxOrder above R accepted")
	}
	if _, err := Discover(tab, Options{MaxConstraints: -1}); err == nil {
		t.Error("negative MaxConstraints accepted")
	}
}

func TestDiscoverMemoFirstSelection(t *testing.T) {
	// The memo's Table 1 scan: N^AB_11 (delta -11.57) must be promoted
	// first.
	res, err := Discover(memoTable(t), Options{RecordScans: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) == 0 {
		t.Fatal("no findings on the memo data")
	}
	first := res.Findings[0]
	if first.Test.Family != contingency.NewVarSet(0, 1) ||
		first.Test.Values[0] != 0 || first.Test.Values[1] != 0 {
		t.Errorf("first finding = %v%v, memo's most significant is N^AB_11",
			first.Test.Family, first.Test.Values)
	}
	if first.Order != 2 || first.Step != 1 {
		t.Errorf("first finding order/step = %d/%d", first.Order, first.Step)
	}
	// The first recorded scan must be the full 16-cell Table 1.
	if len(res.Scans) == 0 || res.Scans[0].Pass != 1 || len(res.Scans[0].Tests) != 16 {
		t.Errorf("first scan not Table 1-shaped: %+v", res.Scans[0])
	}
}

func TestDiscoverMemoModelQuality(t *testing.T) {
	tab := memoTable(t)
	res, err := Discover(tab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every found constraint is satisfied by the final model within the
	// count-scale solver tolerance (0.01 expected counts).
	tol := 0.01 / float64(tab.Total())
	for _, f := range res.Findings {
		got, err := res.Model.Prob(f.Test.Family, f.Test.Values)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-f.Constraint.Target) > tol {
			t.Errorf("finding %d: model gives %.8f, target %.8f",
				f.Step, got, f.Constraint.Target)
		}
	}
	// The fitted model must beat the independence model in KL to the
	// empirical distribution.
	emp, err := tab.Probabilities()
	if err != nil {
		t.Fatal(err)
	}
	fitted, err := res.Model.Joint()
	if err != nil {
		t.Fatal(err)
	}
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
	indepJoint, err := indep.Joint()
	if err != nil {
		t.Fatal(err)
	}
	klFit, err := stats.KLDivergence(emp, fitted)
	if err != nil {
		t.Fatal(err)
	}
	klInd, err := stats.KLDivergence(emp, indepJoint)
	if err != nil {
		t.Fatal(err)
	}
	if klFit >= klInd {
		t.Errorf("KL(emp‖fitted) = %.6f not better than KL(emp‖indep) = %.6f", klFit, klInd)
	}
	if klFit > 0.01 {
		t.Errorf("KL(emp‖fitted) = %.6f, expected near-complete capture on 12 cells", klFit)
	}
}

func TestDiscoverMemoLevels(t *testing.T) {
	res, err := Discover(memoTable(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) != 2 {
		t.Fatalf("levels = %d, want orders 2 and 3", len(res.Levels))
	}
	if res.Levels[0].Order != 2 || res.Levels[1].Order != 3 {
		t.Errorf("level orders = %d, %d", res.Levels[0].Order, res.Levels[1].Order)
	}
	if res.Levels[0].Candidates != 16 {
		t.Errorf("order-2 candidates = %d, want 16", res.Levels[0].Candidates)
	}
	if res.Levels[0].Accepted == 0 {
		t.Error("memo data must yield order-2 findings")
	}
	// Findings appear in non-decreasing order.
	last := 0
	for _, f := range res.Findings {
		if f.Order < last {
			t.Errorf("finding %d at order %d after order %d", f.Step, f.Order, last)
		}
		last = f.Order
	}
	// Steps are 1..n.
	for i, f := range res.Findings {
		if f.Step != i+1 {
			t.Errorf("finding %d has step %d", i, f.Step)
		}
	}
}

func TestDiscoverIndependentDataFindsNothing(t *testing.T) {
	// A large sample from a genuinely independent distribution: the scan
	// must accept no constraints (the memo's null case).
	rng := stats.NewRNG(7)
	tab := contingency.MustNew([]string{"X", "Y", "Z"}, []int{3, 2, 2})
	px := []float64{0.5, 0.3, 0.2}
	py := []float64{0.6, 0.4}
	pz := []float64{0.7, 0.3}
	const n = 20000
	for s := 0; s < n; s++ {
		i, _ := rng.Categorical(px)
		j, _ := rng.Categorical(py)
		k, _ := rng.Categorical(pz)
		if err := tab.Observe(i, j, k); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Discover(tab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 0 {
		t.Errorf("independent data produced %d findings: %s",
			len(res.Findings), res.Summary())
	}
}

func TestDiscoverRecoversPlantedCorrelation(t *testing.T) {
	// Plant a strong X↔Y dependence with Z independent; discovery must
	// find XY cells and no XZ/YZ cells.
	rng := stats.NewRNG(11)
	tab := contingency.MustNew([]string{"X", "Y", "Z"}, []int{2, 2, 2})
	const n = 20000
	for s := 0; s < n; s++ {
		i := rng.Intn(2)
		j := i // copy dependence
		if rng.Float64() < 0.1 {
			j = 1 - i
		}
		k := rng.Intn(2)
		if err := tab.Observe(i, j, k); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Discover(tab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) == 0 {
		t.Fatal("planted correlation not found")
	}
	xy := contingency.NewVarSet(0, 1)
	sawXY := false
	for _, f := range res.Findings {
		if f.Order != 2 {
			continue
		}
		switch f.Test.Family {
		case xy:
			sawXY = true
		default:
			t.Errorf("spurious second-order finding in %v (delta %.2f)",
				f.Test.Family, f.Test.Delta)
		}
	}
	if !sawXY {
		t.Error("no XY finding despite planted dependence")
	}
	// Model must reproduce the dependence: P(Y=1|X=1) ≈ 0.9.
	pxy, _ := res.Model.Prob(xy, []int{0, 0})
	px, _ := res.Model.Prob(contingency.NewVarSet(0), []int{0})
	if cond := pxy / px; math.Abs(cond-0.9) > 0.02 {
		t.Errorf("P(Y=1|X=1) = %.3f, planted 0.9", cond)
	}
}

func TestDiscoverMaxOrderRespected(t *testing.T) {
	res, err := Discover(memoTable(t), Options{MaxOrder: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Findings {
		if f.Order > 2 {
			t.Errorf("finding at order %d with MaxOrder 2", f.Order)
		}
	}
	if len(res.Levels) != 1 {
		t.Errorf("levels = %d, want 1", len(res.Levels))
	}
}

func TestDiscoverMaxConstraintsCap(t *testing.T) {
	res, err := Discover(memoTable(t), Options{MaxConstraints: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 1 {
		t.Errorf("findings = %d with cap 1", len(res.Findings))
	}
}

func TestDiscoverDeterministic(t *testing.T) {
	a, err := Discover(memoTable(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Discover(memoTable(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Findings) != len(b.Findings) {
		t.Fatalf("runs differ in finding count: %d vs %d", len(a.Findings), len(b.Findings))
	}
	for i := range a.Findings {
		fa, fb := a.Findings[i], b.Findings[i]
		if fa.Test.Family != fb.Test.Family || fa.Test.Delta != fb.Test.Delta {
			t.Errorf("finding %d differs between runs", i)
		}
	}
}

func TestResultHelpers(t *testing.T) {
	res, err := Discover(memoTable(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	at2 := res.FindingsAtOrder(2)
	at3 := res.FindingsAtOrder(3)
	if len(at2)+len(at3) != len(res.Findings) {
		t.Error("FindingsAtOrder loses findings")
	}
	s := res.Summary()
	for _, want := range []string{"N=3428", "order 2", "N^{A,B}_{1,1}"} {
		if !strings.Contains(s, want) {
			t.Errorf("Summary missing %q:\n%s", want, s)
		}
	}
}

func TestDiscoverFourthOrderStructure(t *testing.T) {
	// Four binary attributes with a pure 4-way parity interaction: no
	// order-2 or order-3 structure exists, so the level-wise loop must
	// walk through empty levels and find the constraint only at order 4 —
	// the memo's "and so on" path beyond its own example.
	tab := contingency.MustNew(nil, []int{2, 2, 2, 2})
	cell := make([]int, 4)
	for off := 0; off < 16; off++ {
		tab.Unflatten(off, cell)
		parity := (cell[0] + cell[1] + cell[2] + cell[3]) % 2
		count := int64(300)
		if parity == 0 {
			count = 1200
		}
		if err := tab.Set(count, cell...); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Discover(tab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, f := range res.Findings {
		counts[f.Order]++
	}
	if counts[2] != 0 || counts[3] != 0 {
		t.Errorf("parity data produced lower-order findings: %v", counts)
	}
	if counts[4] == 0 {
		t.Fatalf("4-way parity not found: %s", res.Summary())
	}
	// The fitted model must reproduce the parity skew.
	p0000, err := res.Model.CellProb([]int{0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	want := 1200.0 / float64(tab.Total())
	if math.Abs(p0000-want) > 1e-3 {
		t.Errorf("p(0000) = %.5f, want %.5f", p0000, want)
	}
}

func TestDiscoverSparseTable(t *testing.T) {
	// Heavily sparse table (many zero cells) must not break fitting or
	// scanning.
	tab := contingency.MustNew(nil, []int{4, 4, 2})
	tab.Set(50, 0, 0, 0)
	tab.Set(50, 1, 1, 1)
	tab.Set(50, 2, 2, 0)
	tab.Set(50, 3, 3, 1)
	res, err := Discover(tab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The diagonal structure is a strong dependence; it must be detected.
	if len(res.Findings) == 0 {
		t.Error("deterministic diagonal structure not detected")
	}
	joint, err := res.Model.Joint()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range joint {
		if p < -1e-15 {
			t.Fatalf("negative probability %g", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("joint sums to %g", sum)
	}
}

// dupColumnRows draws n rows over r binary attributes in which attribute
// 1 duplicates attribute 0 and the rest are independent coin flips.
func dupColumnRows(n, r int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]int, n)
	for i := range rows {
		row := make([]int, r)
		for j := range row {
			row[j] = rng.Intn(2)
		}
		row[1] = row[0]
		rows[i] = row
	}
	return rows
}

// TestDiscoverDuplicatedColumnConverges: when one binary column duplicates
// another, accepting one empty off-diagonal cell forces the other to zero
// through the diagonal, a cell no first-order margin exhausts. Unless both
// are pinned, iterative scaling creeps toward that boundary and the refit
// fails to converge once N is a few hundred. Dense and sparse three-
// attribute tables and a factored 22-attribute model must all discover,
// give both off-diagonal cells probability 0, and pass the residual
// certificate.
func TestDiscoverDuplicatedColumnConverges(t *testing.T) {
	cases := []struct {
		name   string
		r      int
		sparse bool
		opts   Options
	}{
		{"dense", 3, false, Options{}},
		{"sparse", 3, true, Options{}},
		{"factored", 22, true, Options{MaxOrder: 2}},
	}
	for _, n := range []int{120, 600, 3000} {
		for _, tc := range cases {
			label := fmt.Sprintf("%s N=%d", tc.name, n)
			cards := make([]int, tc.r)
			for i := range cards {
				cards[i] = 2
			}
			rows := dupColumnRows(n, tc.r, int64(n))
			var table contingency.Counts
			if tc.sparse {
				s, err := contingency.NewSparse(nil, cards)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.ObserveBatch(rows); err != nil {
					t.Fatal(err)
				}
				table = s
			} else {
				d := contingency.MustNew(nil, cards)
				if err := d.ObserveBatch(rows); err != nil {
					t.Fatal(err)
				}
				table = d
			}
			res, err := DiscoverCounts(table, tc.opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			c, err := res.Model.Compile()
			if err != nil {
				t.Fatal(err)
			}
			if c.Factored() != (tc.r == 22) {
				t.Fatalf("%s: compiled engine factored=%v", label, c.Factored())
			}
			for _, off := range [][]int{{0, 1}, {1, 0}} {
				if !res.Model.HasConstraint(contingency.NewVarSet(0, 1), off) {
					t.Errorf("%s: off-diagonal cell %v not pinned", label, off)
				}
				p, err := res.Model.Prob(contingency.NewVarSet(0, 1), off)
				if err != nil {
					t.Fatal(err)
				}
				if p != 0 {
					t.Errorf("%s: P(A=%d, B=%d) = %g, want 0", label, off[0], off[1], p)
				}
			}
			resid, err := res.Model.Residual()
			if err != nil {
				t.Fatal(err)
			}
			if tol := countScaleTol(int64(n)); resid > tol {
				t.Errorf("%s: residual %g above tolerance %g", label, resid, tol)
			}
		}
	}
}
