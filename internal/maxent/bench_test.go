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
