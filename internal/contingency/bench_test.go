package contingency

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchTable builds a dense table with the given shape, counts filled
// deterministically.
func benchTable(b *testing.B, cards []int) *Table {
	b.Helper()
	t, err := New(nil, cards)
	if err != nil {
		b.Fatal(err)
	}
	cell := make([]int, len(cards))
	for off := 0; off < t.NumCells(); off++ {
		if err := t.Unflatten(off, cell); err != nil {
			b.Fatal(err)
		}
		if err := t.Set(int64(off%97)+1, cell...); err != nil {
			b.Fatal(err)
		}
	}
	return t
}

func BenchmarkObserve(b *testing.B) {
	t := MustNew(nil, []int{4, 4, 4})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := t.Observe(i%4, (i/4)%4, (i/16)%4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarginalize(b *testing.B) {
	for _, r := range []int{4, 8, 12} {
		cards := make([]int, r)
		for i := range cards {
			cards[i] = 2
		}
		t := benchTable(b, cards)
		keep := NewVarSet(0, r-1)
		b.Run(fmt.Sprintf("R=%d", r), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := t.Marginalize(keep); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMarginalCount(b *testing.B) {
	t := benchTable(b, []int{4, 4, 4, 4, 4})
	vars := NewVarSet(0, 2)
	values := []int{1, 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := t.MarginalCount(vars, values); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSparseObserve(b *testing.B) {
	cards := make([]int, 32)
	for i := range cards {
		cards[i] = 4
	}
	s, err := NewSparse(nil, cards)
	if err != nil {
		b.Fatal(err)
	}
	cell := make([]int, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range cell {
			cell[j] = (i >> uint(j%8)) & 3
		}
		if err := s.Observe(cell...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSparseProject(b *testing.B) {
	cards := make([]int, 24)
	for i := range cards {
		cards[i] = 3
	}
	s, err := NewSparse(nil, cards)
	if err != nil {
		b.Fatal(err)
	}
	cell := make([]int, 24)
	for n := 0; n < 20000; n++ {
		for j := range cell {
			cell[j] = (n * (j + 1)) % 3
		}
		if err := s.Observe(cell...); err != nil {
			b.Fatal(err)
		}
	}
	keep := NewVarSet(0, 11, 23)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Project(keep); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCombinations(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := Combinations(16, 3); len(got) != 560 {
			b.Fatal("wrong count")
		}
	}
}

// benchSparseWide builds a 20-attribute binary sparse table with 20k
// observations — the wide-schema regime where scan-time marginals matter.
func benchSparseWide(b *testing.B) *Sparse {
	b.Helper()
	cards := make([]int, 20)
	for i := range cards {
		cards[i] = 2
	}
	s, err := NewSparse(nil, cards)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	cell := make([]int, len(cards))
	for n := 0; n < 20000; n++ {
		for i := range cell {
			cell[i] = rng.Intn(2)
		}
		if err := s.Observe(cell...); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkSparseMarginalCountScan prices a discovery-style family sweep
// with the uncached per-cell scan: every marginal costs O(occupied).
func BenchmarkSparseMarginalCountScan(b *testing.B) {
	s := benchSparseWide(b)
	members := []int{3, 9, 17}
	values := make([]int, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := 0; v < 8; v++ {
			values[0], values[1], values[2] = v>>2&1, v>>1&1, v&1
			if s.marginalCountScan(members, values) < 0 {
				b.Fatal("negative count")
			}
		}
	}
}

// BenchmarkSparseMarginalCountCached is the same sweep through
// MarginalCount's per-family projection cache: one O(occupied) projection,
// then O(1) dense lookups.
func BenchmarkSparseMarginalCountCached(b *testing.B) {
	s := benchSparseWide(b)
	fam := NewVarSet(3, 9, 17)
	values := make([]int, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := 0; v < 8; v++ {
			values[0], values[1], values[2] = v>>2&1, v>>1&1, v&1
			n, err := s.MarginalCount(fam, values)
			if err != nil || n < 0 {
				b.Fatal("bad count")
			}
		}
	}
}

// plantedPairsSparse builds a binary sparse table of rows samples over
// attrs attributes in adjacent planted pairs: the second of each pair
// copies the first with probability 0.8, as in the wide benchmark banks.
func plantedPairsSparse(b *testing.B, attrs, rows int) *Sparse {
	b.Helper()
	cards := make([]int, attrs)
	for i := range cards {
		cards[i] = 2
	}
	s, err := NewSparse(nil, cards)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	cell := make([]int, attrs)
	for n := 0; n < rows; n++ {
		for i := 0; i < attrs; i += 2 {
			cell[i] = rng.Intn(2)
			cell[i+1] = rng.Intn(2)
			if rng.Float64() < 0.8 {
				cell[i+1] = cell[i]
			}
		}
		if err := s.Observe(cell...); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkPairCountsBuild counts a cold pair-count ledger per iteration
// at the shapes of the two wide benchmark banks: acquire_wide's 260
// binary attributes over 1,200 rows and ingest_wide80's 80 over 8,000.
func BenchmarkPairCountsBuild(b *testing.B) {
	for _, shape := range []struct {
		name        string
		attrs, rows int
	}{{"R=260/N=1200", 260, 1200}, {"R=80/N=8000", 80, 8000}} {
		s := plantedPairsSparse(b, shape.attrs, shape.rows)
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := s.buildPairCounts(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
