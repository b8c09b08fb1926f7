package mml

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pka/internal/contingency"
	"pka/internal/maxent"
)

func TestScanOrderParallelMatchesSequential(t *testing.T) {
	tab := memoTable(t)
	predict := PerCell(tab.Cards(), independencePredictor(t, tab))
	for _, workers := range []int{0, 1, 2, 7, 64} {
		seqT, err := NewTester(tab, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		seq, err := seqT.ScanOrder(2, predict)
		if err != nil {
			t.Fatal(err)
		}
		parT, err := NewTester(tab, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		par, err := parT.ScanOrderParallel(2, predict, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(seq) != len(par) {
			t.Fatalf("workers=%d: %d vs %d tests", workers, len(par), len(seq))
		}
		for i := range seq {
			if seq[i].Family != par[i].Family || seq[i].Delta != par[i].Delta ||
				seq[i].Observed != par[i].Observed {
				t.Errorf("workers=%d: test %d differs", workers, i)
			}
		}
	}
}

func TestScanOrderParallelSkipsSignificant(t *testing.T) {
	tab := memoTable(t)
	predict := PerCell(tab.Cards(), independencePredictor(t, tab))
	tester, err := NewTester(tab, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := tester.MarkSignificant(contingency.NewVarSet(0, 1), []int{0, 0}); err != nil {
		t.Fatal(err)
	}
	tests, err := tester.ScanOrderParallel(2, predict, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tests) != 15 {
		t.Errorf("parallel scan returned %d tests after one mark, want 15", len(tests))
	}
}

func TestScanOrderParallelValidation(t *testing.T) {
	tab := memoTable(t)
	predict := PerCell(tab.Cards(), independencePredictor(t, tab))
	tester, err := NewTester(tab, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tester.ScanOrderParallel(1, predict, 4); err == nil {
		t.Error("order 1 accepted")
	}
	if _, err := tester.ScanOrderParallel(9, predict, 4); err == nil {
		t.Error("order above R accepted")
	}
}

func TestScanOrderParallelPropagatesErrors(t *testing.T) {
	tab := memoTable(t)
	tester, err := NewTester(tab, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bad := func(contingency.VarSet, []int) (float64, error) {
		return 0, errPredict
	}
	if _, err := tester.ScanOrderParallel(2, PerCell(tab.Cards(), bad), 4); err == nil {
		t.Error("predictor error swallowed")
	}
}

// recordingPredictor serves an inner predictor and records every family
// each batch call asks for.
type recordingPredictor struct {
	inner     Predictor
	mu        sync.Mutex
	requested []contingency.VarSet
}

func (p *recordingPredictor) Marginals(families []contingency.VarSet, workers int) ([][]float64, error) {
	p.mu.Lock()
	p.requested = append(p.requested, families...)
	p.mu.Unlock()
	return p.inner.Marginals(families, workers)
}

// TestScanOrderParallelOmitsPromotedFamilies: once every cell of a family
// is significant the scan has nothing to test there, so the batch request
// leaves the family out, and the other families are still all asked for.
func TestScanOrderParallelOmitsPromotedFamilies(t *testing.T) {
	tab := memoTable(t)
	tester, err := NewTester(tab, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	promoted := contingency.NewVarSet(1, 2)
	for _, cell := range [][]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
		if err := tester.MarkSignificant(promoted, cell); err != nil {
			t.Fatal(err)
		}
	}
	pred := &recordingPredictor{inner: PerCell(tab.Cards(), independencePredictor(t, tab))}
	tests, err := tester.ScanOrderParallel(2, pred, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []contingency.VarSet{contingency.NewVarSet(0, 1), contingency.NewVarSet(0, 2)}
	if !reflect.DeepEqual(pred.requested, want) {
		t.Errorf("batch asked for %v, want %v", pred.requested, want)
	}
	for _, ct := range tests {
		if ct.Family == promoted {
			t.Fatalf("promoted family %v scanned: %+v", promoted, ct)
		}
	}
	if len(tests) != 12 {
		t.Errorf("scan returned %d tests, want 12", len(tests))
	}
}

// shortPredictor drops the last cell of one family's marginal, or the
// family's whole marginal when drop is set.
type shortPredictor struct {
	inner Predictor
	fam   contingency.VarSet
	drop  bool
}

func (p shortPredictor) Marginals(families []contingency.VarSet, workers int) ([][]float64, error) {
	out, err := p.inner.Marginals(families, workers)
	if err != nil {
		return nil, err
	}
	for i, fam := range families {
		if fam != p.fam {
			continue
		}
		if p.drop {
			return append(out[:i:i], out[i+1:]...), nil
		}
		out[i] = out[i][:len(out[i])-1]
	}
	return out, nil
}

// TestScanOrderParallelRejectsWrongLengthMarginal: a batch whose marginal
// for one family is a cell short fails the scan, and the error names that
// family; a batch a whole marginal short fails it too.
func TestScanOrderParallelRejectsWrongLengthMarginal(t *testing.T) {
	tab := memoTable(t)
	tester, err := NewTester(tab, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	inner := PerCell(tab.Cards(), independencePredictor(t, tab))
	bad := contingency.NewVarSet(0, 2)
	for _, workers := range []int{1, 4} {
		_, err := tester.ScanOrderParallel(2, shortPredictor{inner: inner, fam: bad}, workers)
		if err == nil || !strings.Contains(err.Error(), bad.String()) {
			t.Errorf("workers=%d: short marginal for %v gave %v", workers, bad, err)
		}
		_, err = tester.ScanOrderParallel(2, shortPredictor{inner: inner, fam: bad, drop: true}, workers)
		if err == nil {
			t.Errorf("workers=%d: a batch missing one marginal was accepted", workers)
		}
	}
}

// TestScanOrderParallelDenseModelWorkers: on a fitted dense model the scan
// at orders 2-4, before and after a few cells are promoted, returns the
// same tests bit for bit at 1, 2 and 8 workers — the model's shared
// elimination walk is priced the same however the batch fans out.
func TestScanOrderParallelDenseModelWorkers(t *testing.T) {
	tab := marginalsTable(t)
	model, err := maxent.NewModel(tab.Names(), tab.Cards())
	if err != nil {
		t.Fatal(err)
	}
	if err := model.AddFirstOrderConstraints(tab); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		fam    contingency.VarSet
		values []int
	}{
		{contingency.NewVarSet(0, 1), []int{1, 2}},
		{contingency.NewVarSet(2, 4), []int{0, 1}},
		{contingency.NewVarSet(1, 3, 4), []int{0, 2, 1}},
	} {
		n, err := tab.MarginalCount(c.fam, c.values)
		if err != nil {
			t.Fatal(err)
		}
		con := maxent.Constraint{Family: c.fam, Values: c.values, Target: float64(n) / float64(tab.Total())}
		if err := model.AddConstraint(con); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := model.Fit(maxent.SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	if c, err := model.Compile(); err != nil || c.Factored() {
		t.Fatalf("model compiled factored (%v); the test needs a dense engine", err)
	}
	for _, marked := range []bool{false, true} {
		var want [4][]CellTest
		for _, workers := range []int{1, 2, 8} {
			tester, err := NewTester(tab, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if marked {
				markSiblings(t, tester)
			}
			for order := 2; order <= 4; order++ {
				tests, err := tester.ScanOrderParallel(order, model, workers)
				if err != nil {
					t.Fatal(err)
				}
				if len(tests) == 0 {
					t.Fatalf("order %d scan is empty", order)
				}
				label := fmt.Sprintf("marked=%v order %d workers=%d", marked, order, workers)
				if workers == 1 {
					want[order-1] = tests
				} else if !reflect.DeepEqual(tests, want[order-1]) {
					t.Errorf("%s: tests differ from one worker's", label)
				}
			}
		}
	}
}

var errPredict = &predictError{}

type predictError struct{}

func (*predictError) Error() string { return "predict failed" }

// TestCellsAtOrderConcurrent hammers the CellsAtOrder memo from many
// goroutines (the access pattern of ScanOrderParallel workers, which all
// consult it on a cold cache) — run under -race this pins the memo's
// synchronization.
func TestCellsAtOrderConcurrent(t *testing.T) {
	tab := memoTable(t)
	tt, err := NewTester(tab, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want2, want3 := tt.CellsAtOrder(2), tt.CellsAtOrder(3)
	for _, restrict := range []bool{false, true} {
		fresh, err := NewTester(tab, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if restrict {
			// A restricted universe exercises the generator path too.
			fresh.RestrictFamilies(func(order int) []contingency.VarSet {
				return contingency.Combinations(tab.R(), order)
			})
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if got := fresh.CellsAtOrder(2); got != want2 {
						t.Errorf("CellsAtOrder(2) = %d, want %d", got, want2)
						return
					}
					if got := fresh.CellsAtOrder(3); got != want3 {
						t.Errorf("CellsAtOrder(3) = %d, want %d", got, want3)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
