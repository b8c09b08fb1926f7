package contingency

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// randomRows draws n full-width cells over the given cardinalities.
func randomRows(rng *rand.Rand, cards []int, n int) [][]int {
	rows := make([][]int, n)
	for i := range rows {
		cell := make([]int, len(cards))
		for j, c := range cards {
			cell[j] = rng.Intn(c)
		}
		rows[i] = cell
	}
	return rows
}

// warmAllPairCaches issues one marginal query per attribute pair so the
// per-family projection cache is populated before mutation.
func warmAllPairCaches(t *testing.T, s *Sparse) {
	t.Helper()
	for i := 0; i < s.R(); i++ {
		for j := i + 1; j < s.R(); j++ {
			if _, err := s.MarginalCount(NewVarSet(i, j), []int{0, 0}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSparseAddZeroDeltaKeepsCache is the delta-0 regression: Add(0, ...)
// must be a pure validation, not a cache invalidation (the pre-fix code
// dropped every cached projection on any Add, zero included).
func TestSparseAddZeroDeltaKeepsCache(t *testing.T) {
	s, err := NewSparse([]string{"A", "B", "C"}, []int{2, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Observe(1, 2, 0); err != nil {
		t.Fatal(err)
	}
	warmAllPairCaches(t, s)
	cached := s.CachedProjections()
	if cached == 0 {
		t.Fatal("no projections cached after marginal queries")
	}
	if err := s.Add(0, 0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if got := s.CachedProjections(); got != cached {
		t.Errorf("Add(0) changed cached projections: %d -> %d", cached, got)
	}
	// Zero delta with bad coordinates must still validate.
	if err := s.Add(0, 9, 9, 9); err == nil {
		t.Error("Add(0) accepted out-of-range coordinates")
	}
	if s.Total() != 1 {
		t.Errorf("Add(0) changed total to %d", s.Total())
	}
}

// TestSparseAddMaintainsCacheInPlace: a single Add keeps the cache alive
// and bit-identical to rebuilt projections.
func TestSparseAddMaintainsCacheInPlace(t *testing.T) {
	s, err := NewSparse(nil, []int{3, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Observe(2, 1, 3); err != nil {
		t.Fatal(err)
	}
	warmAllPairCaches(t, s)
	cached := s.CachedProjections()
	if err := s.Add(5, 1, 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(-1, 2, 1, 3); err != nil {
		t.Fatal(err)
	}
	if got := s.CachedProjections(); got != cached {
		t.Errorf("Add dropped caches: %d -> %d", cached, got)
	}
	if err := errors.Join(s.CheckConsistency(), s.VerifyProjections()); err != nil {
		t.Errorf("cache diverged after Add: %v", err)
	}
	if n, err := s.MarginalCount(NewVarSet(0, 1), []int{1, 0}); err != nil || n != 5 {
		t.Errorf("cached marginal after Add = %d, %v; want 5", n, err)
	}
}

// TestSparseApplyBatchBitIdenticalToUnion is the property test of the
// incremental-cache contract: ObserveBatch part one, warm every pair cache,
// ApplyBatch part two, and every cached marginal must be bit-identical to a
// fresh table built from the union of the rows.
func TestSparseApplyBatchBitIdenticalToUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		r := 2 + rng.Intn(4)
		cards := make([]int, r)
		for i := range cards {
			cards[i] = 2 + rng.Intn(3)
		}
		part1 := randomRows(rng, cards, 30+rng.Intn(40))
		part2 := randomRows(rng, cards, 1+rng.Intn(30))

		inc, err := NewSparse(nil, cards)
		if err != nil {
			t.Fatal(err)
		}
		if err := inc.ObserveBatch(part1); err != nil {
			t.Fatal(err)
		}
		warmAllPairCaches(t, inc)
		deltas := make([]CellDelta, len(part2))
		for i, row := range part2 {
			deltas[i] = CellDelta{Cell: row, Delta: 1}
		}
		// Mix in some removals of part1 rows, never removing a cell more
		// often than part1 observed it so counts stay non-negative.
		remaining := make(map[string]int)
		for _, row := range part1 {
			remaining[fmt.Sprint(row)]++
		}
		for i := 0; i < len(part1)/4; i++ {
			row := part1[rng.Intn(len(part1))]
			if k := fmt.Sprint(row); remaining[k] > 0 {
				remaining[k]--
				deltas = append(deltas, CellDelta{Cell: row, Delta: -1})
			}
		}
		if err := inc.ApplyBatch(deltas); err != nil {
			t.Fatal(err)
		}
		if err := errors.Join(inc.CheckConsistency(), inc.VerifyProjections()); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		fresh, err := NewSparse(nil, cards)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.ObserveBatch(part1); err != nil {
			t.Fatal(err)
		}
		if err := fresh.ApplyBatch(deltas[len(part2):]); err != nil {
			t.Fatal(err)
		}
		if err := fresh.ObserveBatch(part2); err != nil {
			t.Fatal(err)
		}
		if inc.Total() != fresh.Total() || inc.Occupied() != fresh.Occupied() {
			t.Fatalf("trial %d: total/occupied %d/%d vs %d/%d",
				trial, inc.Total(), inc.Occupied(), fresh.Total(), fresh.Occupied())
		}
		// Every pair family, every value: cached incremental read equals
		// the fresh table's count exactly.
		values := make([]int, 2)
		for i := 0; i < r; i++ {
			for j := i + 1; j < r; j++ {
				vs := NewVarSet(i, j)
				for vi := 0; vi < cards[i]; vi++ {
					for vj := 0; vj < cards[j]; vj++ {
						values[0], values[1] = vi, vj
						got, err := inc.MarginalCount(vs, values)
						if err != nil {
							t.Fatal(err)
						}
						want, err := fresh.MarginalCount(vs, values)
						if err != nil {
							t.Fatal(err)
						}
						if got != want {
							t.Fatalf("trial %d: marginal %v=%v: incremental %d, fresh %d",
								trial, vs, values, got, want)
						}
					}
				}
			}
		}
	}
}

// TestSparseApplyBatchRejectsBadBatchUntouched: a batch with an invalid
// coordinate or a negative-going aggregate leaves counts, total, and caches
// exactly as they were.
func TestSparseApplyBatchRejectsBadBatchUntouched(t *testing.T) {
	s, err := NewSparse(nil, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Observe(1, 1); err != nil {
		t.Fatal(err)
	}
	warmAllPairCaches(t, s)

	// Out-of-range coordinate.
	err = s.ApplyBatch([]CellDelta{
		{Cell: []int{0, 0}, Delta: 3},
		{Cell: []int{5, 0}, Delta: 1},
	})
	if err == nil {
		t.Fatal("batch with bad coordinates accepted")
	}
	// Aggregate negative: +1 then -3 on the same cell.
	err = s.ApplyBatch([]CellDelta{
		{Cell: []int{1, 1}, Delta: 1},
		{Cell: []int{1, 1}, Delta: -3},
	})
	if err == nil {
		t.Fatal("negative-going batch accepted")
	}
	if s.Total() != 1 {
		t.Errorf("rejected batch mutated total: %d", s.Total())
	}
	if n, _ := s.At(1, 1); n != 1 {
		t.Errorf("rejected batch mutated cell: %d", n)
	}
	if err := errors.Join(s.CheckConsistency(), s.VerifyProjections()); err != nil {
		t.Errorf("caches inconsistent after rejected batch: %v", err)
	}
}

// TestSparseApplyBatchAggregatesDuplicates: duplicate cells in one batch
// are combined, including a +k/-k pair that must cancel to a no-op.
func TestSparseApplyBatchAggregatesDuplicates(t *testing.T) {
	s, err := NewSparse(nil, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyBatch([]CellDelta{
		{Cell: []int{0, 1}, Delta: 2},
		{Cell: []int{0, 1}, Delta: 3},
		{Cell: []int{1, 2}, Delta: 4},
		{Cell: []int{1, 2}, Delta: -4},
	}); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.At(0, 1); n != 5 {
		t.Errorf("aggregated cell = %d, want 5", n)
	}
	if n, _ := s.At(1, 2); n != 0 {
		t.Errorf("cancelled cell = %d, want 0", n)
	}
	if s.Occupied() != 1 || s.Total() != 5 {
		t.Errorf("occupied %d total %d, want 1/5", s.Occupied(), s.Total())
	}
}

// TestObserveBatchMatchesLoopObserve: batch ingest counts exactly like a
// per-row Observe loop.
func TestObserveBatchMatchesLoopObserve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cards := []int{3, 2, 2, 4}
	rows := randomRows(rng, cards, 200)
	batched, _ := NewSparse(nil, cards)
	looped, _ := NewSparse(nil, cards)
	if err := batched.ObserveBatch(rows); err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if err := looped.Observe(row...); err != nil {
			t.Fatal(err)
		}
	}
	if batched.Total() != looped.Total() || batched.Occupied() != looped.Occupied() {
		t.Fatalf("batched %d/%d vs looped %d/%d",
			batched.Total(), batched.Occupied(), looped.Total(), looped.Occupied())
	}
	looped.EachCell(func(cell []int, count int64) {
		if n, _ := batched.At(cell...); n != count {
			t.Errorf("cell %v: batched %d, looped %d", cell, n, count)
		}
	})
}

// TestProjectionCacheBound: projections are never evicted. Cycling
// marginal queries over every family keeps each family cached, every
// marginal matches the occupied-cell scan, and every cached table still
// equals a fresh projection.
func TestProjectionCacheBound(t *testing.T) {
	cards := []int{3, 3, 3, 3, 3, 3}
	s, err := NewSparse(nil, cards)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for _, row := range randomRows(rng, cards, 200) {
		if err := s.Observe(row...); err != nil {
			t.Fatal(err)
		}
	}
	var families []VarSet
	for i := 0; i < s.R(); i++ {
		for j := i + 1; j < s.R(); j++ {
			families = append(families, NewVarSet(i, j), NewVarSet(i, j, (j+1)%s.R()))
		}
	}
	for round := 0; round < 3; round++ {
		for _, vs := range families {
			members := vs.Members()
			values := make([]int, len(members))
			for i, p := range members {
				values[i] = rng.Intn(cards[p])
			}
			got, err := s.MarginalCount(vs, values)
			if err != nil {
				t.Fatal(err)
			}
			if want := s.marginalCountScan(members, values); got != want {
				t.Fatalf("marginal %v%v = %d, scan says %d", vs, values, got, want)
			}
		}
	}
	distinct := make(map[VarSet]bool)
	for _, vs := range families {
		distinct[vs] = true
	}
	if got := s.CachedProjections(); got != len(distinct) {
		t.Errorf("%d families cached after querying %d", got, len(distinct))
	}
	if ev := s.ProjectionCacheEvictions(); ev != 0 {
		t.Errorf("%d evictions reported", ev)
	}
	if err := s.VerifyProjections(); err != nil {
		t.Error(err)
	}
}

// TestRetainedTablesStayCurrent: a Marginalize table and a PairCounts
// ledger taken before a series of batches — one of them the rollback of
// the batch before it — are the live derived state, not copies: after
// every round they equal a fresh projection and a fresh ledger.
func TestRetainedTablesStayCurrent(t *testing.T) {
	cards := []int{2, 3, 2, 4, 2}
	rng := rand.New(rand.NewSource(11))
	s, err := NewSparse(nil, cards)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ObserveBatch(randomRows(rng, cards, 50)); err != nil {
		t.Fatal(err)
	}
	fam := NewVarSet(1, 3)
	marg, err := s.Marginalize(fam)
	if err != nil {
		t.Fatal(err)
	}
	ledger, err := s.PairCounts(1)
	if err != nil {
		t.Fatal(err)
	}
	check := func(round string) {
		t.Helper()
		fresh, err := s.Project(fam)
		if err != nil {
			t.Fatal(err)
		}
		if !marg.Equal(fresh) {
			t.Fatalf("%s: retained Marginalize table diverged from Project", round)
		}
		rebuilt, err := s.buildPairCounts(1)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ledger.counts, rebuilt.counts) {
			t.Fatalf("%s: retained ledger diverged from a rebuild", round)
		}
	}
	var last []CellDelta
	for round := 0; round < 4; round++ {
		last = observations(randomRows(rng, cards, 30))
		if err := s.ApplyBatch(last); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("batch %d", round))
	}
	rollback := make([]CellDelta, len(last))
	for i, d := range last {
		rollback[i] = CellDelta{Cell: d.Cell, Delta: -d.Delta}
	}
	if err := s.ApplyBatch(rollback); err != nil {
		t.Fatal(err)
	}
	check("rollback")
	if err := s.ApplyBatch(observations(randomRows(rng, cards, 30))); err != nil {
		t.Fatal(err)
	}
	check("batch after rollback")
	if s.PairCountBuilds() != 1 {
		t.Errorf("ledger built %d times, want once", s.PairCountBuilds())
	}
}
