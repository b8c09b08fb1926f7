package contingency

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// occupiedCells walks c twice and returns the occupied (cell, count) pairs
// of the first walk in visit order, failing if the second walk differs.
func occupiedCells(t *testing.T, c Counts) []string {
	t.Helper()
	walk := func() []string {
		var out []string
		c.EachCell(func(cell []int, n int64) {
			if n != 0 {
				out = append(out, fmt.Sprint(cell, n))
			}
		})
		return out
	}
	first, second := walk(), walk()
	if !slices.Equal(first, second) {
		t.Fatalf("%T: two EachCell walks visited different sequences", c)
	}
	return first
}

// sameOccupied reports whether two walks hold the same multiset.
func sameOccupied(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// TestCountsContract loads the same counts into a dense Table and a Sparse
// over small random schemas and holds both to every Counts operation:
// equal marginal tables for every family up to order 3, the same occupied
// cells in a repeatable order, all-or-nothing ApplyBatch, and consistent
// counts through a batch, its rollback and a rejected batch.
func TestCountsContract(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cards := make([]int, 3+rng.Intn(3))
			for i := range cards {
				cards[i] = 1 + rng.Intn(4)
			}
			dense := MustNew(nil, cards)
			sparse, err := NewSparse(nil, cards)
			if err != nil {
				t.Fatal(err)
			}
			rows := randomRows(rng, cards, 40+rng.Intn(200))
			backends := []Counts{dense, sparse}
			for _, c := range backends {
				if err := c.ApplyBatch(observations(rows)); err != nil {
					t.Fatalf("%T: %v", c, err)
				}
				if err := c.CheckConsistency(); err != nil {
					t.Fatalf("%T: %v", c, err)
				}
			}

			for order := 1; order <= min(3, len(cards)); order++ {
				for _, vs := range Combinations(len(cards), order) {
					dm, err1 := dense.Marginalize(vs)
					sm, err2 := sparse.Marginalize(vs)
					if err1 != nil || err2 != nil {
						t.Fatalf("Marginalize %v: %v, %v", vs, err1, err2)
					}
					if !dm.Equal(sm) {
						t.Fatalf("Marginalize %v: dense %v != sparse %v", vs, dm.Counts(), sm.Counts())
					}
				}
			}
			if !sameOccupied(occupiedCells(t, dense), occupiedCells(t, sparse)) {
				t.Fatal("EachCell: dense and sparse occupied cells differ")
			}
			if _, err := sparse.PairCounts(); err != nil {
				t.Fatal(err)
			}

			// The rollback a failed model update performs: a random batch,
			// its negation, then a batch rejected for driving a count
			// negative. Every step must leave the counts consistent, and the
			// last two the occupied cells exactly as they were.
			batch := observations(randomRows(rng, cards, 1+rng.Intn(30)))
			negation := slices.Clone(batch)
			for i := range negation {
				negation[i].Delta = -1
			}
			first := rows[0]
			m, _ := dense.At(first...)
			negative := append(observations(rows[:3]), CellDelta{Cell: first, Delta: -m - 7})
			for _, c := range backends {
				before := occupiedCells(t, c)
				for _, step := range []struct {
					name     string
					batch    []CellDelta
					reject   bool
					restores bool // the walk must match the one before the batch
				}{
					{"batch", batch, false, false},
					{"negation", negation, false, true},
					{"negative count", negative, true, true},
				} {
					if err := c.ApplyBatch(step.batch); (err != nil) != step.reject {
						t.Fatalf("%s: %T ApplyBatch error %v, want rejection %v", step.name, c, err, step.reject)
					}
					if err := c.CheckConsistency(); err != nil {
						t.Fatalf("%s: %T: %v", step.name, c, err)
					}
					if step.restores && !slices.Equal(occupiedCells(t, c), before) {
						t.Fatalf("%s: %T occupied cells differ from before the batch", step.name, c)
					}
				}
			}
			if err := sparse.VerifyProjections(); err != nil {
				t.Fatalf("after rollback: %v", err)
			}

			occupied := rows[rng.Intn(len(rows))]
			n, _ := dense.At(occupied...)
			bad := append(slices.Clone(occupied[:len(occupied)-1]), cards[len(cards)-1])
			cached := sparse.CachedProjections()
			for _, tc := range []struct {
				name  string
				batch []CellDelta
			}{
				{"bad coordinate", append(observations(rows[:5]), CellDelta{Cell: bad, Delta: 1})},
				{"negative cell", append(observations(rows[:5]),
					CellDelta{Cell: occupied, Delta: 1}, CellDelta{Cell: occupied, Delta: -n - 7})},
			} {
				name, batch := tc.name, tc.batch
				for _, c := range backends {
					before := occupiedCells(t, c)
					total := c.Total()
					if err := c.ApplyBatch(batch); err == nil {
						t.Fatalf("%s: %T accepted the batch", name, c)
					}
					if c.Total() != total || !slices.Equal(occupiedCells(t, c), before) {
						t.Fatalf("%s: rejected batch changed the %T counts", name, c)
					}
				}
				if err := sparse.VerifyProjections(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := sparse.CachedProjections(); got != cached {
					t.Fatalf("%s: cached projections %d -> %d", name, cached, got)
				}
			}

			mixed := append(observations(rows[:7]), CellDelta{Cell: occupied, Delta: -1})
			for _, c := range backends {
				if err := c.ApplyBatch(mixed); err != nil {
					t.Fatalf("%T: valid batch rejected: %v", c, err)
				}
			}
			if dense.Total() != sparse.Total() || !sameOccupied(occupiedCells(t, dense), occupiedCells(t, sparse)) {
				t.Fatal("valid batch left dense and sparse counts different")
			}
			if err := sparse.VerifyProjections(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
