package contingency

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pka/internal/wire"
)

// ledgerSchemas are the wide shapes the pair-count ledger serves: binary
// schemas needing two key words, and mixed-cardinality ones on the
// multi-word string keys.
func ledgerSchemas() map[int][]int {
	out := make(map[int][]int)
	for _, r := range []int{65, 80, 130, 200} {
		cards := make([]int, r)
		for i := range cards {
			cards[i] = 2
			if r > 100 {
				cards[i] = 2 + i%4
			}
		}
		out[r] = cards
	}
	return out
}

// ledgerSnapshot copies the cached ledger's counts, or nil when none is
// cached.
func ledgerSnapshot(s *Sparse) []int64 {
	if p := s.cachedPairCounts(); p != nil {
		return slices.Clone(p.counts)
	}
	return nil
}

// checkLedgerAgainstProject compares every pair of the ledger with an
// independent per-pair projection of the occupied cells.
func checkLedgerAgainstProject(t *testing.T, s *Sparse, p *PairCounts) {
	t.Helper()
	for i := 0; i < s.R(); i++ {
		for j := i + 1; j < s.R(); j++ {
			proj, err := s.Project(NewVarSet(i, j))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(p.Counts(i, j), proj.Counts()) {
				t.Fatalf("pair (%d,%d): ledger %v, projection %v", i, j, p.Counts(i, j), proj.Counts())
			}
		}
	}
}

// TestPairCountsMaintainedUnderMutation runs randomized mutation sequences
// over wide schemas with the ledger built once: single adds, batches that
// delete cells to zero, rejected batches, and batch-then-rollback pairs.
// After every step the ledger must equal a rebuild (VerifyProjections),
// and it must never be rebuilt along the way.
func TestPairCountsMaintainedUnderMutation(t *testing.T) {
	for r, cards := range ledgerSchemas() {
		t.Run(fmt.Sprintf("R=%d", r), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(r)))
			s, err := NewSparse(nil, cards)
			if err != nil {
				t.Fatal(err)
			}
			if r <= 80 && s.KeyWords() != 2 || r > 100 && s.KeyWords() <= 2 {
				t.Fatalf("R=%d uses %d key words, want the 2-word or multi-word layout", r, s.KeyWords())
			}
			if err := s.ObserveBatch(randomRows(rng, cards, 150)); err != nil {
				t.Fatal(err)
			}
			if _, err := s.PairCounts(2); err != nil {
				t.Fatal(err)
			}
			// A cached family projection rides along: both caches are
			// maintained by the same mutation pass.
			if _, err := s.ProjectCached(NewVarSet(0, r-1)); err != nil {
				t.Fatal(err)
			}
			verify := func(step string) {
				t.Helper()
				if err := s.VerifyProjections(); err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				if err := s.CheckConsistency(); err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				if b := s.PairCountBuilds(); b != 1 {
					t.Fatalf("%s: ledger built %d times, want once", step, b)
				}
			}
			for step := 0; step < 40; step++ {
				switch step % 5 {
				case 0: // single add
					if err := s.Add(int64(1+rng.Intn(3)), randomRows(rng, cards, 1)[0]...); err != nil {
						t.Fatal(err)
					}
				case 1: // batch with repeated rows
					rows := randomRows(rng, cards, 10)
					rows = append(rows, rows[:3]...)
					if err := s.ObserveBatch(rows); err != nil {
						t.Fatal(err)
					}
				case 2: // delete some occupied cells to zero, add a new one
					var deltas []CellDelta
					s.EachCellSorted(func(cell []int, c int64) {
						if len(deltas) < 4 && rng.Intn(3) == 0 {
							deltas = append(deltas, CellDelta{Cell: slices.Clone(cell), Delta: -c})
						}
					})
					deltas = append(deltas, CellDelta{Cell: randomRows(rng, cards, 1)[0], Delta: 2})
					if err := s.ApplyBatch(deltas); err != nil {
						t.Fatal(err)
					}
				case 3: // rejected batches leave table and ledger untouched
					total, ledger := s.Total(), ledgerSnapshot(s)
					var some []int
					s.EachCellSorted(func(cell []int, _ int64) {
						if some == nil {
							some = slices.Clone(cell)
						}
					})
					bad := randomRows(rng, cards, 1)[0]
					bad[r/2] = cards[r/2]
					for _, batch := range [][]CellDelta{
						{{Cell: randomRows(rng, cards, 1)[0], Delta: 1}, {Cell: some, Delta: -1 << 40}},
						{{Cell: randomRows(rng, cards, 1)[0], Delta: 1}, {Cell: bad, Delta: 1}},
					} {
						if err := s.ApplyBatch(batch); err == nil {
							t.Fatalf("step %d: bad batch accepted", step)
						}
					}
					if s.Total() != total || !slices.Equal(ledgerSnapshot(s), ledger) {
						t.Fatalf("step %d: rejected batch changed the table or ledger", step)
					}
				case 4: // apply then roll back, as Model.Update does on failure
					total, ledger := s.Total(), ledgerSnapshot(s)
					rows := randomRows(rng, cards, 8)
					if err := s.ObserveBatch(rows); err != nil {
						t.Fatal(err)
					}
					undo := make([]CellDelta, len(rows))
					for i, row := range rows {
						undo[i] = CellDelta{Cell: row, Delta: -1}
					}
					if err := s.ApplyBatch(undo); err != nil {
						t.Fatal(err)
					}
					if s.Total() != total || !slices.Equal(ledgerSnapshot(s), ledger) {
						t.Fatalf("step %d: rollback did not restore the ledger", step)
					}
				}
				verify(fmt.Sprintf("step %d", step))
			}
			p, err := s.PairCounts(1)
			if err != nil {
				t.Fatal(err)
			}
			checkLedgerAgainstProject(t, s, p)

			// A clone starts cold and never aliases the original's ledger.
			c := s.Clone()
			if c.cachedPairCounts() != nil || c.PairCountBuilds() != 0 {
				t.Fatal("clone carried the pair-count ledger")
			}
			if err := c.ObserveBatch(randomRows(rng, cards, 5)); err != nil {
				t.Fatal(err)
			}
			verify("after mutating the clone")
			cp, err := c.PairCounts(3)
			if err != nil {
				t.Fatal(err)
			}
			if c.PairCountBuilds() != 1 {
				t.Fatalf("clone built its ledger %d times, want once", c.PairCountBuilds())
			}
			checkLedgerAgainstProject(t, c, cp)
		})
	}
}

// TestPairCountsBudget: the ledger counts against the projection-cache
// budget. Under a budget it cannot fit, every call builds a transient
// ledger that is still exact; under the default budget it is built once
// and is not reported as a family projection.
func TestPairCountsBudget(t *testing.T) {
	cards := ledgerSchemas()[80]
	rng := rand.New(rand.NewSource(3))
	s, err := NewSparse(nil, cards)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ObserveBatch(randomRows(rng, cards, 200)); err != nil {
		t.Fatal(err)
	}
	for call := 1; call <= 2; call++ {
		if _, err := s.PairCounts(0); err != nil {
			t.Fatal(err)
		}
	}
	if s.PairCountBuilds() != 1 || s.CachedProjections() != 0 {
		t.Fatalf("default budget: %d builds, %d projections reported; want 1 and 0",
			s.PairCountBuilds(), s.CachedProjections())
	}

	s.SetProjectionCacheBytes(64 << 10) // 4 KiB per shard: the ledger cannot fit
	for call := 1; call <= 2; call++ {
		p, err := s.PairCounts(2)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.PairCountBuilds(); got != int64(1+call) {
			t.Fatalf("call %d under a small budget: %d builds, want %d", call, got, 1+call)
		}
		checkLedgerAgainstProject(t, s, p)
	}
	if s.cachedPairCounts() != nil {
		t.Fatal("a ledger over the budget was cached")
	}
}

// TestPairCountsWorkerCountsAgree: the build's integer adds make the ledger
// identical for any worker count, including wide-cardinality columns.
func TestPairCountsWorkerCountsAgree(t *testing.T) {
	cards := []int{2, 300, 3, 1, 5, 2, 257}
	rng := rand.New(rand.NewSource(9))
	s, err := NewSparse(nil, cards)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ObserveBatch(randomRows(rng, cards, 2000)); err != nil {
		t.Fatal(err)
	}
	want, err := s.buildPairCounts(1)
	if err != nil {
		t.Fatal(err)
	}
	checkLedgerAgainstProject(t, s, want)
	for _, workers := range []int{0, 2, 5} {
		got, err := s.buildPairCounts(workers)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.counts, want.counts) {
			t.Fatalf("workers=%d: ledger differs from the serial build", workers)
		}
	}
}

// TestPairCountsNotSnapshotted: the ledger is derived state. Building it
// leaves the snapshot bytes unchanged, and a decoded table starts without
// one.
func TestPairCountsNotSnapshotted(t *testing.T) {
	cards := ledgerSchemas()[65]
	s, err := NewSparse(nil, cards)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ObserveBatch(randomRows(rand.New(rand.NewSource(5)), cards, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ProjectCached(NewVarSet(1, 2)); err != nil {
		t.Fatal(err)
	}
	var before, after wire.Writer
	EncodeSparse(&before, s)
	if _, err := s.PairCounts(0); err != nil {
		t.Fatal(err)
	}
	EncodeSparse(&after, s)
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("building the pair-count ledger changed the snapshot bytes")
	}
	got, err := DecodeSparse(wire.NewReader(after.Bytes()), 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.cachedPairCounts() != nil || got.CachedProjections() != 1 {
		t.Fatalf("decoded table: ledger cached %v, %d projections; want none and 1",
			got.cachedPairCounts() != nil, got.CachedProjections())
	}
}
