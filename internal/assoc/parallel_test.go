package assoc

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"pka/internal/contingency"
	"pka/internal/stats"
)

// wideSparseTable builds a binary sparse table with a few planted
// couplings, the wide-schema screening workload.
func wideSparseTable(tb testing.TB, attrs, rows int, seed int64) *contingency.Sparse {
	tb.Helper()
	cards := make([]int, attrs)
	for i := range cards {
		cards[i] = 2
	}
	s, err := contingency.NewSparse(nil, cards)
	if err != nil {
		tb.Fatal(err)
	}
	rng := stats.NewRNG(seed)
	cell := make([]int, attrs)
	for n := 0; n < rows; n++ {
		for i := range cell {
			cell[i] = rng.Intn(2)
		}
		if rng.Float64() < 0.8 {
			cell[attrs-1] = cell[0]
		}
		if rng.Float64() < 0.6 {
			cell[attrs/2] = cell[1]
		}
		if err := s.Observe(cell...); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// requireSamePairs fails unless the two results agree bitwise, ordering
// included.
func requireSamePairs(t *testing.T, want, got []PairStats, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d pairs vs %d", label, len(got), len(want))
	}
	for k := range want {
		w, g := want[k], got[k]
		same := w.I == g.I && w.J == g.J && w.DF == g.DF &&
			math.Float64bits(w.MI) == math.Float64bits(g.MI) &&
			math.Float64bits(w.G2) == math.Float64bits(g.G2) &&
			math.Float64bits(w.PValue) == math.Float64bits(g.PValue) &&
			math.Float64bits(w.CramersV) == math.Float64bits(g.CramersV)
		if !same {
			t.Fatalf("%s: pair slot %d differs:\nwant %+v\ngot  %+v", label, k, w, g)
		}
	}
}

// TestPairwiseSparseColdWarmCloneIdentical: the sparse screen is
// bit-identical whether it counts a cold pair-count ledger, reads the warm
// one, or counts a clone's own. The table has 80 attributes, above
// bulkPairwiseMinR, so every screen reads the ledger.
func TestPairwiseSparseColdWarmCloneIdentical(t *testing.T) {
	const attrs = 80
	if attrs < bulkPairwiseMinR {
		t.Fatalf("%d attributes do not reach the pair-count ledger (%d)", attrs, bulkPairwiseMinR)
	}
	s := wideSparseTable(t, attrs, 8000, 11)
	cold, err := PairwiseSparse(s)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := PairwiseSparse(s)
	if err != nil {
		t.Fatal(err)
	}
	requireSamePairs(t, cold, warm, "warm")
	clone, err := PairwiseSparse(s.Clone())
	if err != nil {
		t.Fatal(err)
	}
	requireSamePairs(t, cold, clone, "clone")
	if s.PairCountBuilds() != 1 {
		t.Fatalf("ledger built %d times over two screens, want once", s.PairCountBuilds())
	}
}

// TestPairwiseSparseConcurrentScreens hammers one shared sparse table with
// many whole-screen goroutines at once — the concurrent first-touch case
// of the projection cache on a narrow schema, and of the lazily built
// pair-count ledger on a wide one. Run under -race this is the guard the
// concurrent-screen safety claim rests on.
func TestPairwiseSparseConcurrentScreens(t *testing.T) {
	for _, attrs := range []int{20, 80} {
		s := wideSparseTable(t, attrs, 4000, 23)
		serial, err := PairwiseSparse(s.Clone())
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		results := make([][]PairStats, 8)
		errs := make([]error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				results[g], errs[g] = PairwiseSparse(s)
			}(g)
		}
		wg.Wait()
		for g := range results {
			if errs[g] != nil {
				t.Fatal(errs[g])
			}
			requireSamePairs(t, serial, results[g], fmt.Sprintf("R=%d goroutine %d", attrs, g))
		}
	}
}

// BenchmarkPairwiseSparse screens an 80-attribute sparse table with a
// cold pair-count ledger per iteration: the discovery-time screening
// workload, ledger build and pair scoring together.
func BenchmarkPairwiseSparse(b *testing.B) {
	master := wideSparseTable(b, 80, 20000, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := master.Clone()
		b.StartTimer()
		pairs, err := PairwiseSparse(s)
		if err != nil {
			b.Fatal(err)
		}
		if len(pairs) != 3160 {
			b.Fatalf("%d pairs, want C(80,2)=3160", len(pairs))
		}
	}
}
