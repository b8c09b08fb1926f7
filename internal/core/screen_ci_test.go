package core

import (
	"math/rand"
	"strings"
	"testing"

	"pka/internal/contingency"
)

// ciChainTable samples X -> Y -> Z (each copies its parent with probability
// 0.9) into a binary sparse table: X and Z are strongly dependent
// marginally but conditionally independent given Y.
func ciChainTable(t *testing.T, rows int, seed int64) *contingency.Sparse {
	t.Helper()
	s, err := contingency.NewSparse([]string{"X", "Y", "Z"}, []int{2, 2, 2})
	if err != nil {
		t.Fatalf("NewSparse: %v", err)
	}
	rng := rand.New(rand.NewSource(seed))
	flip := func(parent int) int {
		if rng.Float64() < 0.9 {
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

// TestApplyCIScreenDropsMediatedEdge: on a chain the pairwise screen keeps
// all three edges, and the conditional pass removes exactly the mediated
// one.
func TestApplyCIScreenDropsMediatedEdge(t *testing.T) {
	table := ciChainTable(t, 4000, 5)
	adj, rep, err := buildScreen(table, 0, 1)
	if err != nil {
		t.Fatalf("buildScreen: %v", err)
	}
	if !adj[0][2] {
		t.Fatalf("marginal screen should keep the X-Z edge on a 0.9 chain")
	}
	if err := applyCIScreen(table, adj, 0, 1, rep); err != nil {
		t.Fatalf("applyCIScreen: %v", err)
	}
	if adj[0][2] || adj[2][0] {
		t.Errorf("CI screen kept the mediated X-Z edge")
	}
	if !adj[0][1] || !adj[1][2] {
		t.Errorf("CI screen dropped a direct chain edge: adj=%v", adj)
	}
	if rep.CIAlpha != 0.05 {
		t.Errorf("CIAlpha = %g, want the 0.05 default", rep.CIAlpha)
	}
	if rep.CIEdgesDropped != 1 {
		t.Errorf("CIEdgesDropped = %d, want 1", rep.CIEdgesDropped)
	}
	if rep.CITriplesTested < 1 {
		t.Errorf("CITriplesTested = %d, want >= 1", rep.CITriplesTested)
	}
	if rep.PairsKept != 2 {
		t.Errorf("PairsKept = %d after the CI pass, want 2", rep.PairsKept)
	}
}

// TestApplyCIScreenWorkerInvariance: the CI pass must be bit-identical for
// any worker count — decisions read the original adjacency, removals apply
// after the parallel pass.
func TestApplyCIScreenWorkerInvariance(t *testing.T) {
	run := func(workers int) ([][]bool, ScreenReport) {
		table := ciChainTable(t, 4000, 5)
		adj, rep, err := buildScreen(table, 0, workers)
		if err != nil {
			t.Fatalf("buildScreen: %v", err)
		}
		if err := applyCIScreen(table, adj, 0, workers, rep); err != nil {
			t.Fatalf("applyCIScreen: %v", err)
		}
		return adj, *rep
	}
	adj1, rep1 := run(1)
	adj4, rep4 := run(4)
	if rep1 != rep4 {
		t.Errorf("reports differ across worker counts: %+v vs %+v", rep1, rep4)
	}
	for i := range adj1 {
		for j := range adj1[i] {
			if adj1[i][j] != adj4[i][j] {
				t.Errorf("adjacency (%d,%d) differs across worker counts", i, j)
			}
		}
	}
}

// TestDiscoverScreenCIGatesFamilies: with the CI pass on, discovery over
// the chain never promotes an X-Z constraint, and the report records the
// drop.
func TestDiscoverScreenCIGatesFamilies(t *testing.T) {
	table := ciChainTable(t, 4000, 5)
	res, err := DiscoverCounts(table, Options{
		MaxOrder:    2,
		ScreenPairs: true,
		ScreenCI:    true,
		Workers:     1,
	})
	if err != nil {
		t.Fatalf("DiscoverCounts: %v", err)
	}
	if res.Screen == nil {
		t.Fatalf("no screen report")
	}
	if res.Screen.CIEdgesDropped != 1 {
		t.Errorf("CIEdgesDropped = %d, want 1", res.Screen.CIEdgesDropped)
	}
	xz := contingency.NewVarSet(0, 2)
	for _, f := range res.Findings {
		if f.Constraint.Family == xz {
			t.Errorf("discovery promoted the CI-screened X-Z family: %+v", f.Constraint)
		}
	}
}

// TestScreenCIRequiresScreenPairs: the CI refinement has nothing to refine
// without the pairwise screen.
func TestScreenCIRequiresScreenPairs(t *testing.T) {
	table := ciChainTable(t, 100, 1)
	_, err := DiscoverCounts(table, Options{MaxOrder: 2, ScreenCI: true, Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "ScreenPairs") {
		t.Fatalf("ScreenCI without ScreenPairs: got err %v, want a ScreenPairs requirement", err)
	}
}

// opaqueCounts hides a backend's cell enumeration, so assoc.Flatten fails
// on it: a CI pass that reaches for the occupied cells errors out.
type opaqueCounts struct{ contingency.Counts }

// TestApplyCIScreenSkipsFlattenWithoutTriangles: when no kept edge has a
// common neighbor there is nothing to test, so the CI pass must not
// materialize the occupied cells — and its report is the one the full
// pass would have written.
func TestApplyCIScreenSkipsFlattenWithoutTriangles(t *testing.T) {
	table := opaqueCounts{ciChainTable(t, 500, 2)}
	adj := [][]bool{{false, true, false}, {true, false, true}, {false, true, false}}
	rep := &ScreenReport{PairsKept: 2}
	if err := applyCIScreen(table, adj, 0, 1, rep); err != nil {
		t.Fatalf("triangle-free CI pass flattened the table: %v", err)
	}
	if want := (ScreenReport{PairsKept: 2, CIAlpha: 0.05}); *rep != want {
		t.Fatalf("report %+v, want %+v", *rep, want)
	}
	adj[0][2], adj[2][0] = true, true
	if err := applyCIScreen(table, adj, 0, 1, &ScreenReport{PairsKept: 3}); err == nil {
		t.Fatal("a CI pass with a triangle did not need the occupied cells")
	}
}
