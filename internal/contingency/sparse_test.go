package contingency

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewSparseValidation(t *testing.T) {
	if _, err := NewSparse(nil, nil); err == nil {
		t.Error("no attributes accepted")
	}
	if _, err := NewSparse(nil, []int{0}); err == nil {
		t.Error("zero cardinality accepted")
	}
	if _, err := NewSparse([]string{"x"}, []int{2, 2}); err == nil {
		t.Error("name mismatch accepted")
	}
	// 65 binary attributes — over the old single-word cap — are accepted
	// and spill to a second key word.
	big := make([]int, 65)
	for i := range big {
		big[i] = 2
	}
	if s, err := NewSparse(nil, big); err != nil || s.KeyWords() != 2 {
		t.Errorf("65-bit key: err=%v, want a two-word key", err)
	}
	wide := make([]int, 60)
	for i := range wide {
		wide[i] = 2
	}
	if _, err := NewSparse(nil, wide); err != nil {
		t.Errorf("60 binary attributes rejected: %v", err)
	}
}

func TestSparseObserveAndAt(t *testing.T) {
	s, err := NewSparse([]string{"A", "B"}, []int{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Observe(2, 4); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(4, 2, 4); err != nil {
		t.Fatal(err)
	}
	v, err := s.At(2, 4)
	if err != nil || v != 5 {
		t.Errorf("At = %d, %v", v, err)
	}
	if v, _ := s.At(0, 0); v != 0 {
		t.Errorf("unobserved cell = %d", v)
	}
	if s.Total() != 5 || s.Occupied() != 1 {
		t.Errorf("total %d occupied %d", s.Total(), s.Occupied())
	}
	// Decrement to zero removes the cell.
	if err := s.Add(-5, 2, 4); err != nil {
		t.Fatal(err)
	}
	if s.Occupied() != 0 || s.Total() != 0 {
		t.Errorf("after removal: occupied %d total %d", s.Occupied(), s.Total())
	}
	if err := s.Add(-1, 2, 4); err == nil {
		t.Error("negative cell accepted")
	}
	if err := s.Observe(9, 0); err == nil {
		t.Error("out-of-range observe accepted")
	}
	if _, err := s.At(0); err == nil {
		t.Error("short cell accepted")
	}
}

func TestSparseDenseRoundTrip(t *testing.T) {
	dense := memoTable(t)
	s, err := FromDense(dense)
	if err != nil {
		t.Fatal(err)
	}
	if s.Total() != dense.Total() {
		t.Fatalf("total %d vs %d", s.Total(), dense.Total())
	}
	if s.Occupied() != 12 {
		t.Errorf("occupied = %d, want 12", s.Occupied())
	}
	back, err := s.ToDense()
	if err != nil {
		t.Fatal(err)
	}
	if !dense.Equal(back) {
		t.Error("dense -> sparse -> dense lost data")
	}
}

func TestSparseProjectMatchesDenseMarginalize(t *testing.T) {
	dense := memoTable(t)
	s, err := FromDense(dense)
	if err != nil {
		t.Fatal(err)
	}
	for _, keep := range []VarSet{
		NewVarSet(0), NewVarSet(1), NewVarSet(0, 2), NewVarSet(0, 1, 2),
	} {
		proj, err := s.Project(keep)
		if err != nil {
			t.Fatal(err)
		}
		marg, err := dense.Marginalize(keep)
		if err != nil {
			t.Fatal(err)
		}
		if !proj.Equal(marg) {
			t.Errorf("projection over %v differs from dense marginalization", keep)
		}
	}
	if _, err := s.Project(VarSet{}); err == nil {
		t.Error("empty projection accepted")
	}
	if _, err := s.Project(NewVarSet(9)); err == nil {
		t.Error("out-of-range projection accepted")
	}
}

func TestSparseMarginalCountMatchesDense(t *testing.T) {
	dense := memoTable(t)
	s, err := FromDense(dense)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		vars   VarSet
		values []int
	}{
		{NewVarSet(0), []int{0}},
		{NewVarSet(0, 2), []int{0, 1}},
		{NewVarSet(0, 1, 2), []int{2, 1, 1}},
		{VarSet{}, nil},
	}
	for _, c := range cases {
		want, err := dense.MarginalCount(c.vars, c.values)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.MarginalCount(c.vars, c.values)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("MarginalCount(%v, %v) = %d, dense %d", c.vars, c.values, got, want)
		}
	}
	if _, err := s.MarginalCount(NewVarSet(0), []int{0, 1}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := s.MarginalCount(NewVarSet(0), []int{7}); err == nil {
		t.Error("out-of-range value accepted")
	}
}

func TestSparseWideSchema(t *testing.T) {
	// 40 binary attributes: dense would need 2^40 cells; sparse holds
	// exactly the observed distinct rows.
	cards := make([]int, 40)
	for i := range cards {
		cards[i] = 2
	}
	s, err := NewSparse(nil, cards)
	if err != nil {
		t.Fatal(err)
	}
	cell := make([]int, 40)
	for n := 0; n < 1000; n++ {
		for i := range cell {
			cell[i] = (n >> uint(i%10)) & 1
		}
		if err := s.Observe(cell...); err != nil {
			t.Fatal(err)
		}
	}
	if s.Total() != 1000 {
		t.Fatalf("total = %d", s.Total())
	}
	if s.Occupied() > 1024 {
		t.Errorf("occupied = %d, want <= 1024 distinct patterns", s.Occupied())
	}
	// Project onto a pair and check the dense result is consistent.
	proj, err := s.Project(NewVarSet(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if proj.Total() != 1000 {
		t.Errorf("projected total = %d", proj.Total())
	}
}

func TestSparseEachCellVisitsAll(t *testing.T) {
	dense := memoTable(t)
	s, err := FromDense(dense)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	visits := 0
	s.EachCell(func(cell []int, count int64) {
		visits++
		sum += count
	})
	if visits != 12 || sum != 3428 {
		t.Errorf("visited %d cells summing %d", visits, sum)
	}
}

func TestSparseKeyRoundTripProperty(t *testing.T) {
	s, err := NewSparse(nil, []int{3, 7, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b, c, d uint8) bool {
		cell := []int{int(a) % 3, int(b) % 7, int(c) % 2, int(d) % 5}
		if err := s.Observe(cell...); err != nil {
			return false
		}
		v, err := s.At(cell...)
		return err == nil && v >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewSparseKeyWidthBoundary(t *testing.T) {
	// Exactly 64 packed bits stays a single-word key: 64 binary
	// attributes...
	exact := make([]int, 64)
	for i := range exact {
		exact[i] = 2
	}
	if s, err := NewSparse(nil, exact); err != nil || s.KeyWords() != 1 {
		t.Errorf("64-bit key: err=%v, want single word", err)
	}
	// ...and 16 attributes of 16 values (16 × 4 bits).
	nibble := make([]int, 16)
	for i := range nibble {
		nibble[i] = 16
	}
	if s, err := NewSparse(nil, nibble); err != nil || s.KeyWords() != 1 {
		t.Errorf("16×16 (64-bit) schema: err=%v, want single word", err)
	}
	// 65 bits — the old hard ceiling — now rolls over to a two-word key.
	over := append(append([]int(nil), exact...), 2)
	s, err := NewSparse(nil, over)
	if err != nil {
		t.Fatalf("65-bit schema rejected: %v", err)
	}
	if s.KeyWords() != 2 {
		t.Errorf("65-bit schema uses %d key words, want 2", s.KeyWords())
	}
	// Only the MaxVars attribute-count sanity ceiling remains, and its
	// error names the wide backend's cap rather than telling the caller to
	// shrink the schema.
	if _, err := NewSparse(nil, make([]int, MaxVars+1)); err == nil ||
		!strings.Contains(err.Error(), "multi-word") {
		t.Errorf("MaxVars cap error = %v, want mention of the multi-word backend", err)
	}
}

func TestSparseMarginalCountCacheMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s, err := NewSparse(nil, []int{3, 2, 4, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	cell := make([]int, 5)
	for n := 0; n < 4000; n++ {
		for i := range cell {
			cell[i] = rng.Intn(s.Card(i))
		}
		if err := s.Observe(cell...); err != nil {
			t.Fatal(err)
		}
	}
	fams := []VarSet{NewVarSet(0), NewVarSet(1, 3), NewVarSet(0, 2, 4), NewVarSet(0, 1, 2, 3, 4)}
	for _, fam := range fams {
		members := fam.Members()
		values := make([]int, len(members))
		for {
			// Query twice: the first call builds the projection, the
			// second must serve the identical count from the cache.
			got1, err := s.MarginalCount(fam, values)
			if err != nil {
				t.Fatal(err)
			}
			got2, err := s.MarginalCount(fam, values)
			if err != nil {
				t.Fatal(err)
			}
			want := s.marginalCountScan(members, values)
			if got1 != want || got2 != want {
				t.Fatalf("MarginalCount(%v, %v) = %d/%d, scan says %d", fam, values, got1, got2, want)
			}
			i := len(members) - 1
			for i >= 0 {
				values[i]++
				if values[i] < s.Card(members[i]) {
					break
				}
				values[i] = 0
				i--
			}
			if i < 0 {
				break
			}
		}
	}
}

func TestSparseMarginalCountCacheInvalidatedByMutation(t *testing.T) {
	s, err := NewSparse(nil, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Observe(0, 1); err != nil {
		t.Fatal(err)
	}
	fam := NewVarSet(0)
	if n, _ := s.MarginalCount(fam, []int{0}); n != 1 {
		t.Fatalf("pre-mutation count = %d", n)
	}
	if err := s.Observe(0, 0); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.MarginalCount(fam, []int{0}); n != 2 {
		t.Errorf("post-mutation count = %d, want 2 (stale projection cache?)", n)
	}
}

func TestSparseCheckConsistency(t *testing.T) {
	s, err := NewSparse(nil, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := s.Observe(i%2, i%3); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CheckConsistency(); err != nil {
		t.Errorf("consistent table rejected: %v", err)
	}
	s.total++ // corrupt the bookkeeping
	if err := s.CheckConsistency(); err == nil {
		t.Error("corrupted total accepted")
	}
}

func TestSparseEachCellSortedDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s, err := NewSparse(nil, []int{4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 500; n++ {
		if err := s.Observe(rng.Intn(4), rng.Intn(4), rng.Intn(4)); err != nil {
			t.Fatal(err)
		}
	}
	collect := func() [][]int {
		var out [][]int
		s.EachCell(func(cell []int, count int64) {
			out = append(out, append(append([]int(nil), cell...), int(count)))
		})
		return out
	}
	a, b := collect(), collect()
	if len(a) != s.Occupied() || len(a) != len(b) {
		t.Fatalf("visited %d and %d cells, occupied %d", len(a), len(b), s.Occupied())
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("EachCell order not deterministic at %d", i)
			}
		}
	}
}
