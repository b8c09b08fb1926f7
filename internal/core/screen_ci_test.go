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
	adj, rep, err := buildScreen(table, 0)
	if err != nil {
		t.Fatalf("buildScreen: %v", err)
	}
	if !adj[0][2] {
		t.Fatalf("marginal screen should keep the X-Z edge on a 0.9 chain")
	}
	if err := applyCIScreen(table, adj, 0, rep); err != nil {
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
	// Every edge is tested against the adjacency from before any drop:
	// Y-Z still sees X as a common neighbor after X-Z is dropped, so each
	// of the three edges runs one test.
	if rep.CITriplesTested != 3 {
		t.Errorf("CITriplesTested = %d, want 3", rep.CITriplesTested)
	}
	if rep.PairsKept != 2 {
		t.Errorf("PairsKept = %d after the CI pass, want 2", rep.PairsKept)
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

// walkCounter counts a backend's cell walks, so a test can see whether a
// CI pass materialized the occupied cells.
type walkCounter struct {
	contingency.Counts
	walks int
}

func (c *walkCounter) EachCell(fn func(cell []int, count int64)) {
	c.walks++
	c.Counts.EachCell(fn)
}

// TestApplyCIScreenSkipsFlattenWithoutTriangles: when no kept edge has a
// common neighbor there is nothing to test, so the CI pass must not
// materialize the occupied cells — and its report is the one the full
// pass would have written.
func TestApplyCIScreenSkipsFlattenWithoutTriangles(t *testing.T) {
	table := &walkCounter{Counts: ciChainTable(t, 500, 2)}
	adj := [][]bool{{false, true, false}, {true, false, true}, {false, true, false}}
	rep := &ScreenReport{PairsKept: 2}
	if err := applyCIScreen(table, adj, 0, rep); err != nil {
		t.Fatalf("triangle-free CI pass: %v", err)
	}
	if table.walks != 0 {
		t.Fatalf("triangle-free CI pass walked the cells %d times", table.walks)
	}
	if want := (ScreenReport{PairsKept: 2, CIAlpha: 0.05}); *rep != want {
		t.Fatalf("report %+v, want %+v", *rep, want)
	}
	adj[0][2], adj[2][0] = true, true
	if err := applyCIScreen(table, adj, 0, &ScreenReport{PairsKept: 3}); err != nil {
		t.Fatalf("CI pass with a triangle: %v", err)
	}
	if table.walks != 1 {
		t.Fatalf("CI pass with a triangle walked the cells %d times, want 1", table.walks)
	}
}
