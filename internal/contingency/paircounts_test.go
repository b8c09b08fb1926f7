package contingency

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"strings"
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
			if _, err := s.PairCounts(); err != nil {
				t.Fatal(err)
			}
			// A cached family projection rides along: both caches are
			// maintained by the same mutation pass.
			if _, err := s.Marginalize(NewVarSet(0, r-1)); err != nil {
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
					s.EachCell(func(cell []int, c int64) {
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
					s.EachCell(func(cell []int, _ int64) {
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
			p, err := s.PairCounts()
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
			cp, err := c.PairCounts()
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

// TestPairCountsBudget: a ledger within the keep ceiling is built once,
// kept, and not reported as a family projection; one over the ceiling is
// counted afresh for every call, is still exact, and is never kept. The
// ceiling is a parameter of pairCounts, so the over-ceiling case lowers it
// instead of allocating a 256 MiB ledger.
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
	over := s.Clone()
	for call := 1; call <= 2; call++ {
		if _, err := s.PairCounts(); err != nil {
			t.Fatal(err)
		}
	}
	if s.PairCountBuilds() != 1 || s.cachedPairCounts() == nil || s.CachedProjections() != 0 {
		t.Fatalf("default ceiling: %d builds, ledger kept %v, %d projections reported; want 1, true and 0",
			s.PairCountBuilds(), s.cachedPairCounts() != nil, s.CachedProjections())
	}

	const ceiling = 4 << 10
	for call := 1; call <= 2; call++ {
		p, err := over.pairCounts(ceiling)
		if err != nil {
			t.Fatal(err)
		}
		if p.bytes() <= ceiling {
			t.Fatalf("the %d-byte ledger fits the %d-byte test ceiling", p.bytes(), ceiling)
		}
		if got := over.PairCountBuilds(); got != int64(call) {
			t.Fatalf("call %d over the ceiling: %d builds, want %d", call, got, call)
		}
		if over.cachedPairCounts() != nil {
			t.Fatal("a ledger over the ceiling was kept")
		}
		checkLedgerAgainstProject(t, over, p)
	}
}

// TestPairCountsColdWarmCloneAgree: a cold build, the kept ledger a
// second call returns, and a clone's own cold build are one ledger, equal
// to per-pair projections, on a schema with wide-cardinality columns.
func TestPairCountsColdWarmCloneAgree(t *testing.T) {
	cards := []int{2, 300, 3, 1, 5, 2, 257}
	rng := rand.New(rand.NewSource(9))
	s, err := NewSparse(nil, cards)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ObserveBatch(randomRows(rng, cards, 2000)); err != nil {
		t.Fatal(err)
	}
	cold, err := s.buildPairCounts()
	if err != nil {
		t.Fatal(err)
	}
	checkLedgerAgainstProject(t, s, cold)
	for _, label := range []string{"first call", "warm call"} {
		got, err := s.PairCounts()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.counts, cold.counts) {
			t.Fatalf("%s: ledger differs from the cold build", label)
		}
	}
	if s.PairCountBuilds() != 1 {
		t.Fatalf("%d builds over two calls, want 1", s.PairCountBuilds())
	}
	clone, err := s.Clone().PairCounts()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(clone.counts, cold.counts) {
		t.Fatal("the clone's ledger differs from the original's")
	}
}

// distinctCells returns n distinct random cells of the schema.
func distinctCells(rng *rand.Rand, cards []int, n int) [][]int {
	seen := make(map[string]bool, n)
	var out [][]int
	for len(out) < n {
		cell := randomRows(rng, cards, 1)[0]
		if key := fmt.Sprint(cell); !seen[key] {
			seen[key] = true
			out = append(out, cell)
		}
	}
	return out
}

// TestPairCountsBitsetExact checks the build against per-pair projections
// over every mix that changes how fillPairCounts counts: cell counts of 1
// (one plane, skipped), of 2-5 and of 2^40 (several planes); cardinalities
// from 1 to 300, so pairs land on both sides of maxPopcountCost, 9×9
// exactly on it; and occupied-cell counts around a bitset word's length,
// so the tail word is partial, full, or holds one cell. Add and ApplyBatch
// then mutate the kept ledger in place, and it must still equal a rebuild
// and the projections.
func TestPairCountsBitsetExact(t *testing.T) {
	schemas := map[string][]int{
		"mixed":  {2, 300, 3, 1, 9, 2, 257, 9, 3},
		"binary": {2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
	}
	countModes := map[string]func(rng *rand.Rand, k int) int64{
		"ones":  func(*rand.Rand, int) int64 { return 1 },
		"small": func(rng *rand.Rand, _ int) int64 { return 2 + rng.Int63n(4) },
		"huge": func(rng *rand.Rand, k int) int64 {
			if k%3 == 0 {
				return 1 << 40
			}
			return 1 + rng.Int63n(5)
		},
	}
	var popcounted, scattered int
	for schemaName, cards := range schemas {
		for mode, count := range countModes {
			for _, occupied := range []int{1, 63, 64, 65, 1200} {
				t.Run(fmt.Sprintf("%s/%s/occupied=%d", schemaName, mode, occupied), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(occupied)))
					s, err := NewSparse(nil, cards)
					if err != nil {
						t.Fatal(err)
					}
					var maxCount int64
					for k, cell := range distinctCells(rng, cards, occupied) {
						c := count(rng, k)
						maxCount = max(maxCount, c)
						if err := s.Add(c, cell...); err != nil {
							t.Fatal(err)
						}
					}
					if s.Occupied() != occupied {
						t.Fatalf("%d occupied cells, want %d", s.Occupied(), occupied)
					}
					planes := bits.Len64(uint64(maxCount))
					for i := range cards {
						for j := i + 1; j < len(cards); j++ {
							if countsByPopcount(cards[i], cards[j], planes) {
								popcounted++
							} else {
								scattered++
							}
						}
					}
					p, err := s.PairCounts()
					if err != nil {
						t.Fatal(err)
					}
					checkLedgerAgainstProject(t, s, p)

					if err := s.Add(1<<40, randomRows(rng, cards, 1)[0]...); err != nil {
						t.Fatal(err)
					}
					var deltas []CellDelta
					s.EachCell(func(cell []int, c int64) {
						if len(deltas) < 5 {
							deltas = append(deltas, CellDelta{Cell: slices.Clone(cell), Delta: -c})
						}
					})
					for _, row := range randomRows(rng, cards, 7) {
						deltas = append(deltas, CellDelta{Cell: row, Delta: 3})
					}
					if err := s.ApplyBatch(deltas); err != nil {
						t.Fatal(err)
					}
					if err := s.VerifyProjections(); err != nil {
						t.Fatal(err)
					}
					if s.PairCountBuilds() != 1 {
						t.Fatalf("ledger built %d times, want once", s.PairCountBuilds())
					}
					checkLedgerAgainstProject(t, s, p)
				})
			}
		}
	}
	if popcounted == 0 || scattered == 0 {
		t.Fatalf("%d pairs counted by popcount and %d scattered; want both sides covered", popcounted, scattered)
	}
}

// TestPairCountsSizeGuard: a schema whose ledger would pass maxDenseCells
// gets the size error back before the slab is allocated.
func TestPairCountsSizeGuard(t *testing.T) {
	cards := []int{1 << 15, 1 << 15, 1 << 15} // 3·2^30 pair cells
	s, err := NewSparse(nil, cards)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Observe(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = s.PairCounts()
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "would exceed") {
		t.Fatalf("PairCounts over the cell limit: err %v, want the size error", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("the refused build allocated %d bytes", grew)
	}
	if s.cachedPairCounts() != nil || s.PairCountBuilds() != 0 {
		t.Fatal("a refused ledger was kept or counted as built")
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
	if _, err := s.Marginalize(NewVarSet(1, 2)); err != nil {
		t.Fatal(err)
	}
	var before, after wire.Writer
	EncodeSparse(&before, s)
	if _, err := s.PairCounts(); err != nil {
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
