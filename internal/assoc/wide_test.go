package assoc

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"pka/internal/contingency"
)

// coupledSparse builds a seeded sparse table over r ternary attributes with
// two planted couplings, for comparing the two pairwise screening paths.
func coupledSparse(t *testing.T, r, rows int, seed int64) *contingency.Sparse {
	t.Helper()
	cards := make([]int, r)
	for i := range cards {
		cards[i] = 3
	}
	s, err := contingency.NewSparse(nil, cards)
	if err != nil {
		t.Fatalf("NewSparse: %v", err)
	}
	rng := rand.New(rand.NewSource(seed))
	cell := make([]int, r)
	for n := 0; n < rows; n++ {
		for i := range cell {
			cell[i] = rng.Intn(3)
		}
		if rng.Float64() < 0.7 {
			cell[1] = cell[0]
		}
		if rng.Float64() < 0.6 {
			cell[r-1] = cell[2]
		}
		if err := s.Observe(cell...); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	return s
}

// TestPairwiseSparseBulkMatchesProjection pins the wide-path contract: on a
// table wide enough for the ledger, ScorePairs must reproduce the
// per-pair projection scoring bit for bit.
func TestPairwiseSparseBulkMatchesProjection(t *testing.T) {
	s := coupledSparse(t, bulkPairwiseMinR, 3000, 42)
	want, err := sortedPairs(scoreRows(s.Cards(), s.Total(), func(i, j int) ([]int64, error) {
		proj, err := s.Marginalize(contingency.NewVarSet(i, j))
		if err != nil {
			return nil, err
		}
		return proj.Counts(), nil
	}))
	if err != nil {
		t.Fatalf("projection path: %v", err)
	}
	got, err := PairwiseSparse(s)
	if err != nil {
		t.Fatalf("bulk path: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("bulk path returned %d pairs, want %d", len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("pair %d: bulk %+v != projection %+v", k, got[k], want[k])
		}
	}
	if s.PairCountBuilds() != 1 {
		t.Errorf("ledger built %d times, want 1", s.PairCountBuilds())
	}
}

// TestScorePairsLedgerSizeError: on a schema whose pair-count ledger would
// pass the dense cell limit, the screen returns the ledger's size error.
func TestScorePairsLedgerSizeError(t *testing.T) {
	cards := make([]int, bulkPairwiseMinR)
	for i := range cards {
		cards[i] = 2
	}
	cards[0], cards[1], cards[2] = 1<<15, 1<<15, 1<<15
	s, err := contingency.NewSparse(nil, cards)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Observe(make([]int, len(cards))...); err != nil {
		t.Fatal(err)
	}
	if _, err := ScorePairs(s); err == nil || !strings.Contains(err.Error(), "would exceed") {
		t.Fatalf("ScorePairs: err %v, want the ledger's size error", err)
	}
}

// TestPairwiseSparseWideDispatch checks that a 65-attribute table takes the
// ledger path and still produces a full, finite pair survey.
func TestPairwiseSparseWideDispatch(t *testing.T) {
	const r = bulkPairwiseMinR
	cards := make([]int, r)
	for i := range cards {
		cards[i] = 2
	}
	s, err := contingency.NewSparse(nil, cards)
	if err != nil {
		t.Fatalf("NewSparse: %v", err)
	}
	rng := rand.New(rand.NewSource(7))
	cell := make([]int, r)
	for n := 0; n < 500; n++ {
		for i := range cell {
			cell[i] = rng.Intn(2)
		}
		if rng.Float64() < 0.8 {
			cell[1] = cell[0]
		}
		if err := s.Observe(cell...); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	pairs, err := PairwiseSparse(s)
	if err != nil {
		t.Fatalf("PairwiseSparse: %v", err)
	}
	if want := r * (r - 1) / 2; len(pairs) != want {
		t.Fatalf("got %d pairs, want %d", len(pairs), want)
	}
	// The planted coupling must surface as the top pair by MI.
	if pairs[0].I != 0 || pairs[0].J != 1 {
		t.Errorf("top pair is (%d,%d), want the planted (0,1)", pairs[0].I, pairs[0].J)
	}
	if pairs[0].PValue > 1e-6 {
		t.Errorf("planted pair p-value %g, want overwhelming significance", pairs[0].PValue)
	}
}

// chainSparse samples X -> Y -> Z (each copies its parent with probability
// copy) into a 3-attribute binary sparse table.
func chainSparse(t *testing.T, rows int, copy float64, seed int64) *contingency.Sparse {
	t.Helper()
	s, err := contingency.NewSparse([]string{"X", "Y", "Z"}, []int{2, 2, 2})
	if err != nil {
		t.Fatalf("NewSparse: %v", err)
	}
	rng := rand.New(rand.NewSource(seed))
	flip := func(parent int) int {
		if rng.Float64() < copy {
			return parent
		}
		return rng.Intn(2)
	}
	for n := 0; n < rows; n++ {
		x := rng.Intn(2)
		y := flip(x)
		z := flip(y)
		if err := s.Observe(x, y, z); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	return s
}

// TestCondG2Chain checks the conditional-independence test on a known
// chain: X and Z are marginally dependent but independent given Y, while X
// and Y stay dependent given Z.
func TestCondG2Chain(t *testing.T) {
	s := chainSparse(t, 4000, 0.9, 11)
	flat, err := Flatten(s)
	if err != nil {
		t.Fatalf("Flatten: %v", err)
	}
	g2, df, p := flat.CondG2(0, 2, 1)
	if df != 2 {
		t.Errorf("CondG2(X,Z|Y) df = %d, want 2", df)
	}
	if p < 0.01 {
		t.Errorf("CondG2(X,Z|Y) = %.2f (p=%g): chain should look independent given the mediator", g2, p)
	}
	if _, _, p := flat.CondG2(0, 1, 2); p > 1e-9 {
		t.Errorf("CondG2(X,Y|Z) p=%g: direct edge should stay significant", p)
	}
}

// TestFlattenDeterministic checks the flattened view: deterministic row
// order, counts matching the backend, total preserved.
func TestFlattenDeterministic(t *testing.T) {
	s := coupledSparse(t, 5, 800, 3)
	flat, err := Flatten(s)
	if err != nil {
		t.Fatalf("Flatten: %v", err)
	}
	if flat.Total != s.Total() {
		t.Fatalf("Total = %d, want %d", flat.Total, s.Total())
	}
	var sum int64
	for i := 0; i < flat.Len(); i++ {
		row := flat.Row(i)
		n, err := s.At(row...)
		if err != nil {
			t.Fatalf("At(%v): %v", row, err)
		}
		if n != flat.Counts[i] {
			t.Errorf("row %d count %d, backend has %d", i, flat.Counts[i], n)
		}
		sum += flat.Counts[i]
	}
	if sum != s.Total() {
		t.Errorf("counts sum to %d, want %d", sum, s.Total())
	}
	again, err := Flatten(s)
	if err != nil {
		t.Fatalf("Flatten again: %v", err)
	}
	for i := 0; i < flat.Len(); i++ {
		a, b := flat.Row(i), again.Row(i)
		for c := range a {
			if a[c] != b[c] {
				t.Fatalf("row %d differs between flattens: %v vs %v", i, a, b)
			}
		}
	}
}

// mixedSparse builds a seeded sparse table over r attributes of
// cardinality 2 + i%3 with one planted coupling.
func mixedSparse(t *testing.T, r, rows int, seed int64) *contingency.Sparse {
	t.Helper()
	cards := make([]int, r)
	for i := range cards {
		cards[i] = 2 + i%3
	}
	s, err := contingency.NewSparse(nil, cards)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	cell := make([]int, r)
	for n := 0; n < rows; n++ {
		for i := range cell {
			cell[i] = rng.Intn(cards[i])
		}
		if rng.Float64() < 0.7 {
			cell[3] = cell[0]
		}
		if err := s.Observe(cell...); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestLedgerPairStatsMatchProjection pins the wide screen to an
// independent reference: every pair scored from the pair-count ledger,
// before and after streaming mutation, must equal Project + scorePair on
// that pair bit for bit.
func TestLedgerPairStatsMatchProjection(t *testing.T) {
	for _, r := range []int{65, 80, 130} {
		s := mixedSparse(t, r, 1500, int64(r))
		rng := rand.New(rand.NewSource(int64(r) + 1))
		for round := 0; round < 3; round++ {
			got, err := ScorePairs(s)
			if err != nil {
				t.Fatal(err)
			}
			n := float64(s.Total())
			var sc pairScratch
			k := 0
			for i := 0; i < r; i++ {
				for j := i + 1; j < r; j++ {
					proj, err := s.Project(contingency.NewVarSet(i, j))
					if err != nil {
						t.Fatal(err)
					}
					want, err := scorePair(proj.Counts(), s.Card(i), s.Card(j), i, j, n, &sc)
					if err != nil {
						t.Fatal(err)
					}
					if !samePair(got[k], want) {
						t.Fatalf("R=%d round %d pair (%d,%d): ledger %+v, projection %+v",
							r, round, i, j, got[k], want)
					}
					k++
				}
			}
			// Grow the table; the cached ledger must follow.
			rows := make([][]int, 50)
			for i := range rows {
				rows[i] = make([]int, r)
				for a := range rows[i] {
					rows[i][a] = rng.Intn(s.Card(a))
				}
			}
			if err := s.ObserveBatch(rows); err != nil {
				t.Fatal(err)
			}
		}
		if b := s.PairCountBuilds(); b != 1 {
			t.Fatalf("R=%d: ledger built %d times across re-screens, want once", r, b)
		}
	}
}

// samePair compares two PairStats bit for bit.
func samePair(a, b PairStats) bool {
	return a.I == b.I && a.J == b.J && a.DF == b.DF &&
		math.Float64bits(a.MI) == math.Float64bits(b.MI) &&
		math.Float64bits(a.G2) == math.Float64bits(b.G2) &&
		math.Float64bits(a.PValue) == math.Float64bits(b.PValue) &&
		math.Float64bits(a.CramersV) == math.Float64bits(b.CramersV)
}

// TestCondG2LargeCounts is the overflow regression: with about 2e9 per cell
// the int64 products n·n_C and n_AC·n_BC pass 2^63, so the statistic must
// be formed from float64 products. The reference recomputes G² from the
// triple table in float64 with logs of each factor.
func TestCondG2LargeCounts(t *testing.T) {
	s, err := contingency.NewSparse([]string{"A", "B", "C"}, []int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[[3]int]int64{}
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			for c := 0; c < 2; c++ {
				n := int64(2e9) + int64(a*7e8+b*3e8+c*1e8)
				if a == b {
					n += 9e8
				}
				counts[[3]int{a, b, c}] = n
				if err := s.Add(n, a, b, c); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	flat, err := Flatten(s)
	if err != nil {
		t.Fatal(err)
	}
	g2, df, p := flat.CondG2(0, 1, 2)
	var want float64
	for c := 0; c < 2; c++ {
		var nC float64
		nAC, nBC := [2]float64{}, [2]float64{}
		for a := 0; a < 2; a++ {
			for b := 0; b < 2; b++ {
				n := float64(counts[[3]int{a, b, c}])
				nC += n
				nAC[a] += n
				nBC[b] += n
			}
		}
		for a := 0; a < 2; a++ {
			for b := 0; b < 2; b++ {
				n := float64(counts[[3]int{a, b, c}])
				want += 2 * n * (math.Log(n) + math.Log(nC) - math.Log(nAC[a]) - math.Log(nBC[b]))
			}
		}
	}
	if df != 2 || math.IsNaN(g2) || math.Abs(g2-want) > 1e-9*want {
		t.Fatalf("CondG2 = %v (df %d), float reference %v", g2, df, want)
	}
	if math.IsNaN(p) {
		t.Fatal("NaN p-value: an edge the CI pass can never drop")
	}
}
