package kb

import (
	"math"
	"math/rand"
	"testing"

	"pka/internal/contingency"
)

// jointLogLoss is the reference LogLoss: the model's full joint
// materialized by maxent.Model.Joint, scored over the dense validation
// table's cells in row-major order. An occupied cell the model rules out
// makes the loss +Inf.
func jointLogLoss(t *testing.T, k *KnowledgeBase, tab *contingency.Table) float64 {
	t.Helper()
	joint, err := k.model.Joint()
	if err != nil {
		t.Fatal(err)
	}
	var loss float64
	for i, c := range tab.Counts() {
		if c == 0 {
			continue
		}
		if joint[i] <= 0 {
			return math.Inf(1)
		}
		loss -= float64(c) * math.Log(joint[i])
	}
	return loss / float64(tab.Total())
}

// TestLogLossMatchesJointOracle scores a dense and a factored model
// against the joint-materializing reference, on dense and sparse
// validation counts, to 1e-12 relative.
func TestLogLossMatchesJointOracle(t *testing.T) {
	const r = 21 // 2^21 joint cells: past the dense ceiling, so factored
	cases := []struct {
		name     string
		k        *KnowledgeBase
		factored bool
	}{
		{"dense", memoKB(t), false},
		{"factored", wideKB(t, r), true},
	}
	rng := rand.New(rand.NewSource(5))
	for _, tc := range cases {
		if tc.k.eng.Factored() != tc.factored {
			t.Fatalf("%s: engine factored=%v", tc.name, tc.k.eng.Factored())
		}
		names, cards := tc.k.Schema().Names(), tc.k.Schema().Cards()
		dense := contingency.MustNew(names, cards)
		sparse, err := contingency.NewSparse(names, cards)
		if err != nil {
			t.Fatal(err)
		}
		cell := make([]int, len(cards))
		for n := 0; n < 400; n++ {
			for i, card := range cards {
				cell[i] = rng.Intn(card)
			}
			if err := dense.Observe(cell...); err != nil {
				t.Fatal(err)
			}
			if err := sparse.Observe(cell...); err != nil {
				t.Fatal(err)
			}
		}
		want := jointLogLoss(t, tc.k, dense)
		for _, counts := range []contingency.Counts{dense, sparse} {
			got, err := tc.k.LogLoss(counts)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-12*math.Abs(want) {
				t.Errorf("%s %T: LogLoss %v, joint reference %v", tc.name, counts, got, want)
			}
		}
	}
}
