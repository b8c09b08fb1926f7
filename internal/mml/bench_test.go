package mml

import (
	"testing"

	"pka/internal/contingency"
	"pka/internal/maxent"
)

func benchPredictor(b *testing.B, tab *contingency.Table) Predictor {
	b.Helper()
	first, err := tab.FirstOrderProbabilities()
	if err != nil {
		b.Fatal(err)
	}
	return PerCell(tab.Cards(), func(fam contingency.VarSet, values []int) (float64, error) {
		p := 1.0
		for i, pos := range fam.Members() {
			p *= first[pos][values[i]]
		}
		return p, nil
	})
}

func benchMemoTable(b *testing.B) *contingency.Table {
	b.Helper()
	tab := contingency.MustNew([]string{"A", "B", "C"}, []int{3, 2, 2})
	data := [3][2][2]int64{
		{{130, 110}, {410, 640}},
		{{62, 31}, {580, 460}},
		{{78, 22}, {520, 385}},
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			for k := 0; k < 2; k++ {
				tab.Set(data[i][j][k], i, j, k)
			}
		}
	}
	return tab
}

func BenchmarkCellTest(b *testing.B) {
	tab := benchMemoTable(b)
	tester, err := NewTester(tab, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	fam := contingency.NewVarSet(0, 1)
	values := []int{0, 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tester.Test(fam, values, 0.048); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanOrder2(b *testing.B) {
	tab := benchMemoTable(b)
	predict := benchPredictor(b, tab)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tester, err := NewTester(tab, DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tester.ScanOrder(2, predict); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanOrder3(b *testing.B) {
	tab := benchMemoTable(b)
	predict := benchPredictor(b, tab)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tester, err := NewTester(tab, DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tester.ScanOrder(3, predict); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanParallel compares sequential and parallel candidate scoring
// on a 10-attribute binary table (180 order-2 cells) with an artificially
// costly predictor, the regime wide scans live in. Speedup tracks available
// cores (GOMAXPROCS); on a single-CPU host the three variants tie.
func BenchmarkScanParallel(b *testing.B) {
	cards := make([]int, 10)
	for i := range cards {
		cards[i] = 2
	}
	tab := contingency.MustNew(nil, cards)
	cell := make([]int, 10)
	for off := 0; off < tab.NumCells(); off++ {
		tab.Unflatten(off, cell)
		tab.Set(int64(off%7)+1, cell...)
	}
	first, err := tab.FirstOrderProbabilities()
	if err != nil {
		b.Fatal(err)
	}
	predict := PerCell(tab.Cards(), func(fam contingency.VarSet, values []int) (float64, error) {
		// Simulate model-prediction cost with a small busy loop on top of
		// the product; real predictions run the Appendix B recursion.
		p := 1.0
		for spin := 0; spin < 50; spin++ {
			p = 1.0
			for i, pos := range fam.Members() {
				p *= first[pos][values[i]]
			}
		}
		return p, nil
	})
	for _, workers := range []int{1, 4, 0} {
		name := "seq"
		switch workers {
		case 4:
			name = "par4"
		case 0:
			name = "parMax"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tester, err := NewTester(tab, DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				if workers == 1 {
					if _, err := tester.ScanOrder(2, predict); err != nil {
						b.Fatal(err)
					}
				} else if _, err := tester.ScanOrderParallel(2, predict, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScanOrderCompiled prices a full second-order scan against a
// fitted maximum-entropy model — the discovery engine's actual inner loop —
// comparing the legacy per-cell prediction path (one elimination recursion
// per cell via PerCell + Model.Prob) with the compiled batch-marginal
// predictor (one sweep per family via Model.Marginal). The 8-attribute
// ternary space (28 families × 9 cells = 252 candidates over 6561 joint
// cells) is the regime real scans live in.
func BenchmarkScanOrderCompiled(b *testing.B) {
	r, card := 8, 3
	cards := make([]int, r)
	for i := range cards {
		cards[i] = card
	}
	tab := contingency.MustNew(nil, cards)
	cell := make([]int, r)
	for off := 0; off < tab.NumCells(); off++ {
		tab.Unflatten(off, cell)
		if err := tab.Set(int64(off%11)+1, cell...); err != nil {
			b.Fatal(err)
		}
	}
	model, err := maxent.NewModel(tab.Names(), tab.Cards())
	if err != nil {
		b.Fatal(err)
	}
	if err := model.AddFirstOrderConstraints(tab); err != nil {
		b.Fatal(err)
	}
	if _, err := model.Fit(maxent.SolveOptions{}); err != nil {
		b.Fatal(err)
	}
	wantTests := r * (r - 1) / 2 * card * card
	run := func(b *testing.B, pred Predictor) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tester, err := NewTester(tab, DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			tests, err := tester.ScanOrder(2, pred)
			if err != nil {
				b.Fatal(err)
			}
			if len(tests) != wantTests {
				b.Fatalf("scan produced %d tests, want %d", len(tests), wantTests)
			}
		}
	}
	b.Run("percell", func(b *testing.B) {
		run(b, PerCell(tab.Cards(), model.Prob))
	})
	b.Run("batch", func(b *testing.B) {
		run(b, model) // *maxent.Model satisfies Predictor via Marginal
	})
}

func BenchmarkChanceRangeWithSiblings(b *testing.B) {
	tab := benchMemoTable(b)
	tester, err := NewTester(tab, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	fam := contingency.NewVarSet(0, 1)
	if err := tester.MarkSignificant(fam, []int{1, 0}); err != nil {
		b.Fatal(err)
	}
	if err := tester.MarkSignificant(fam, []int{2, 1}); err != nil {
		b.Fatal(err)
	}
	fs := tester.newFamilyScan(fam)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tester.chanceRange(fs, []int{0, 0}); err != nil {
			b.Fatal(err)
		}
	}
}
