package maxent

import (
	"fmt"
	"testing"

	"pka/internal/contingency"
)

// benchModel builds a fitted first-order model over r binary attributes.
func benchModel(b *testing.B, r int) (*Model, *contingency.Table) {
	b.Helper()
	cards := make([]int, r)
	for i := range cards {
		cards[i] = 2
	}
	tab, err := contingency.New(nil, cards)
	if err != nil {
		b.Fatal(err)
	}
	cell := make([]int, r)
	for off := 0; off < tab.NumCells(); off++ {
		if err := tab.Unflatten(off, cell); err != nil {
			b.Fatal(err)
		}
		if err := tab.Set(int64(off%13)+5, cell...); err != nil {
			b.Fatal(err)
		}
	}
	m, err := NewModel(nil, cards)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.AddFirstOrderConstraints(tab); err != nil {
		b.Fatal(err)
	}
	if _, err := m.Fit(SolveOptions{}); err != nil {
		b.Fatal(err)
	}
	return m, tab
}

func BenchmarkFitFirstOrder(b *testing.B) {
	for _, r := range []int{3, 6, 9, 12} {
		b.Run(fmt.Sprintf("R=%d", r), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m, _ := benchModelUnfitted(b, r)
				b.StartTimer()
				if _, err := m.Fit(SolveOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchModelUnfitted(b *testing.B, r int) (*Model, *contingency.Table) {
	b.Helper()
	cards := make([]int, r)
	for i := range cards {
		cards[i] = 2
	}
	tab, err := contingency.New(nil, cards)
	if err != nil {
		b.Fatal(err)
	}
	cell := make([]int, r)
	for off := 0; off < tab.NumCells(); off++ {
		tab.Unflatten(off, cell)
		tab.Set(int64(off%13)+5, cell...)
	}
	m, err := NewModel(nil, cards)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.AddFirstOrderConstraints(tab); err != nil {
		b.Fatal(err)
	}
	return m, tab
}

func BenchmarkCellProb(b *testing.B) {
	m, _ := benchModel(b, 8)
	cell := make([]int, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range cell {
			cell[j] = (i >> uint(j)) & 1
		}
		if _, err := m.CellProb(cell); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProbMarginal(b *testing.B) {
	m, _ := benchModel(b, 10)
	vars := contingency.NewVarSet(0, 5, 9)
	values := []int{1, 0, 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Prob(vars, values); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoint(b *testing.B) {
	m, _ := benchModel(b, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Joint(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClone(b *testing.B) {
	m, _ := benchModel(b, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Clone()
	}
}

func BenchmarkRefitWithExtraConstraint(b *testing.B) {
	m, tab := benchModel(b, 8)
	n := float64(tab.Total())
	obs, err := tab.MarginalCount(contingency.NewVarSet(0, 1), []int{1, 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cp := m.Clone()
		cp.AddConstraint(Constraint{
			Family: contingency.NewVarSet(0, 1),
			Values: []int{1, 1},
			Target: float64(obs) / n,
		})
		b.StartTimer()
		if _, err := cp.Fit(SolveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// wideBlockModel builds a fitted factored model at the block shape of the
// screened wide discovery: 260 binary attributes in 130 candidate pairs
// (2i, 2i+1), first-order constraints on every attribute and one accepted
// cell on each of the first 32 pairs — 32 pair blocks and 196 singleton
// blocks. It returns the model and the 130 candidate pair families.
func wideBlockModel(b *testing.B) (*Model, []contingency.VarSet) {
	b.Helper()
	const pairs, coupled = 130, 32
	cards := make([]int, 2*pairs)
	for i := range cards {
		cards[i] = 2
	}
	m, err := NewModel(nil, cards)
	if err != nil {
		b.Fatal(err)
	}
	fams := make([]contingency.VarSet, pairs)
	for i := range fams {
		pa := 0.30 + 0.04*float64(i%10)
		pb := 0.35 + 0.03*float64(i%8)
		for k, p := range []float64{pa, pb} {
			for v, target := range []float64{1 - p, p} {
				if err := m.AddConstraint(Constraint{
					Family: contingency.NewVarSet(2*i + k),
					Values: []int{v},
					Target: target,
				}); err != nil {
					b.Fatal(err)
				}
			}
		}
		fams[i] = contingency.NewVarSet(2*i, 2*i+1)
		if i < coupled {
			if err := m.AddConstraint(Constraint{Family: fams[i], Values: []int{1, 1}, Target: 1.5 * pa * pb}); err != nil {
				b.Fatal(err)
			}
		}
	}
	if _, err := m.Fit(SolveOptions{}); err != nil {
		b.Fatal(err)
	}
	c, err := m.Compile()
	if err != nil {
		b.Fatal(err)
	}
	if !c.Factored() || c.NumBlocks() != 2*pairs-coupled {
		b.Fatalf("factored %v with %d blocks, want %d blocks", c.Factored(), c.NumBlocks(), 2*pairs-coupled)
	}
	return m, fams
}

// BenchmarkFactoredMarginal prices one candidate pair family per op, as a
// significance scan does, cycling through the 130 pairs of the wide block
// shape: a third of them fall in a coupled block, the rest span two
// singleton blocks.
func BenchmarkFactoredMarginal(b *testing.B) {
	m, fams := wideBlockModel(b)
	c, err := m.Compile()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Marginal(fams[i%len(fams)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileFactored compiles the wide block shape's factored
// snapshot from its fitted coefficients — the compile every factored refit
// ends with.
func BenchmarkCompileFactored(b *testing.B) {
	m, _ := wideBlockModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.compiled.Store(nil)
		if _, err := m.Compile(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitFactored prices one discovery refit at the wide block shape:
// each op clones the fitted model, accepts one more pair cell, on one of
// the 98 uncoupled pairs in turn, and runs a non-incremental Fit, which
// re-solves every constrained block and compiles the snapshot.
func BenchmarkFitFactored(b *testing.B) {
	m, fams := wideBlockModel(b)
	const coupled = 32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := coupled + i%(len(fams)-coupled)
		pa := 0.30 + 0.04*float64(j%10)
		pb := 0.35 + 0.03*float64(j%8)
		cp := m.Clone()
		if err := cp.AddConstraint(Constraint{Family: fams[j], Values: []int{1, 1}, Target: 1.5 * pa * pb}); err != nil {
			b.Fatal(err)
		}
		if _, err := cp.Fit(SolveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
