package maxent

import (
	"math"
	"math/rand"
	"testing"

	"pka/internal/contingency"
)

// jointLogLoss is the reference LogLoss: the snapshot's full joint
// materialized by Compiled.Joint, scored over the dense validation table's
// cells in row-major order. An occupied cell the model rules out makes the
// loss +Inf.
func jointLogLoss(t *testing.T, c *Compiled, tab *contingency.Table) float64 {
	t.Helper()
	joint, err := c.Joint()
	if err != nil {
		t.Fatal(err)
	}
	var loss float64
	for i, n := range tab.Counts() {
		if n == 0 {
			continue
		}
		if joint[i] <= 0 {
			return math.Inf(1)
		}
		loss -= float64(n) * math.Log(joint[i])
	}
	return loss / float64(tab.Total())
}

// compiledPair fits the block test model twice, once dense and once under a
// threshold that forces the factored path, and returns both snapshots.
func compiledPair(t *testing.T) (dense, factored *Compiled) {
	t.Helper()
	dm, fm, _ := buildBlockTestModels(t)
	if _, err := dm.Fit(SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	dense, err := dm.Compile()
	if err != nil {
		t.Fatal(err)
	}
	forceFactored(t, 16)
	if _, err := fm.Fit(SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	factored, err = fm.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if dense.Factored() || !factored.Factored() {
		t.Fatalf("modes: dense factored=%v, factored factored=%v", dense.Factored(), factored.Factored())
	}
	return dense, factored
}

// TestLogLossMatchesJointOracle scores a dense and a factored snapshot
// against the joint-materializing reference, on dense and sparse
// validation counts, to 1e-12 relative.
func TestLogLossMatchesJointOracle(t *testing.T) {
	dense, factored := compiledPair(t)
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct {
		name string
		c    *Compiled
	}{{"dense", dense}, {"factored", factored}} {
		cards := tc.c.Cards()
		tab := contingency.MustNew(nil, cards)
		sparse, err := contingency.NewSparse(nil, cards)
		if err != nil {
			t.Fatal(err)
		}
		cell := make([]int, len(cards))
		for n := 0; n < 400; n++ {
			for i, card := range cards {
				cell[i] = rng.Intn(card)
			}
			if err := tab.Observe(cell...); err != nil {
				t.Fatal(err)
			}
			if err := sparse.Observe(cell...); err != nil {
				t.Fatal(err)
			}
		}
		want := jointLogLoss(t, tc.c, tab)
		for _, counts := range []contingency.Counts{tab, sparse} {
			got, err := tc.c.LogLoss(counts)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-12*math.Abs(want) {
				t.Errorf("%s %T: LogLoss %v, joint reference %v", tc.name, counts, got, want)
			}
		}
	}
}

func TestLogLossValidation(t *testing.T) {
	dense, factored := compiledPair(t)
	for _, tc := range []struct {
		name string
		c    *Compiled
	}{{"dense", dense}, {"factored", factored}} {
		empty := contingency.MustNew(nil, []int{3, 2, 2, 3})
		if _, err := tc.c.LogLoss(empty); err == nil {
			t.Errorf("%s: empty table accepted", tc.name)
		}
		arity := contingency.MustNew(nil, []int{3, 2})
		arity.Set(5, 0, 0)
		if _, err := tc.c.LogLoss(arity); err == nil {
			t.Errorf("%s: arity mismatch accepted", tc.name)
		}
		card := contingency.MustNew(nil, []int{3, 2, 3, 3})
		card.Set(5, 0, 0, 2, 0)
		if _, err := tc.c.LogLoss(card); err == nil {
			t.Errorf("%s: cardinality mismatch accepted", tc.name)
		}
	}
}

// TestLogLossInfOnZeroSupport: a zero-target constraint rules its cell
// out, and held-out data in that cell scores +Inf on both engines, as it
// does under the joint reference.
func TestLogLossInfOnZeroSupport(t *testing.T) {
	build := func() *Model {
		m, err := NewModel(nil, []int{2, 2, 2, 2})
		if err != nil {
			t.Fatal(err)
		}
		for axis := 0; axis < 4; axis++ {
			for v := 0; v < 2; v++ {
				if err := m.AddConstraint(Constraint{Family: contingency.NewVarSet(axis), Values: []int{v}, Target: 0.5}); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, con := range []Constraint{
			{Family: contingency.NewVarSet(0, 1), Values: []int{0, 1}, Target: 0},
			{Family: contingency.NewVarSet(2, 3), Values: []int{1, 1}, Target: 0.4},
		} {
			if err := m.AddConstraint(con); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.Fit(SolveOptions{}); err != nil {
			t.Fatal(err)
		}
		return m
	}
	held := contingency.MustNew(nil, []int{2, 2, 2, 2})
	held.Set(3, 0, 0, 1, 1)
	held.Set(1, 0, 1, 0, 0) // ruled out by the zero-target constraint
	dense, err := build().Compile()
	if err != nil {
		t.Fatal(err)
	}
	forceFactored(t, 4)
	factored, err := build().Compile()
	if err != nil {
		t.Fatal(err)
	}
	if dense.Factored() || !factored.Factored() {
		t.Fatalf("modes: dense factored=%v, factored factored=%v", dense.Factored(), factored.Factored())
	}
	for _, tc := range []struct {
		name string
		c    *Compiled
	}{{"dense", dense}, {"factored", factored}} {
		loss, err := tc.c.LogLoss(held)
		if err != nil {
			t.Fatal(err)
		}
		if !math.IsInf(loss, 1) {
			t.Errorf("%s: loss = %g, want +Inf", tc.name, loss)
		}
		if ref := jointLogLoss(t, tc.c, held); !math.IsInf(ref, 1) {
			t.Errorf("%s: joint reference loss = %g, want +Inf", tc.name, ref)
		}
	}
}
