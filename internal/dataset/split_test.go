package dataset

import (
	"testing"

	"pka/internal/contingency"
	"pka/internal/stats"
)

// memoTable reconstructs the memo's Figure 1 data.
func memoTable(t testing.TB) *contingency.Table {
	t.Helper()
	tab := contingency.MustNew([]string{"A", "B", "C"}, []int{3, 2, 2})
	data := [3][2][2]int64{
		{{130, 110}, {410, 640}},
		{{62, 31}, {580, 460}},
		{{78, 22}, {520, 385}},
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			for k := 0; k < 2; k++ {
				if err := tab.Set(data[i][j][k], i, j, k); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return tab
}

func TestTrainTestSplitConserves(t *testing.T) {
	tab := memoTable(t)
	rng := stats.NewRNG(5)
	train, test, err := TrainTestSplit(tab, 0.3, rng.Float64)
	if err != nil {
		t.Fatal(err)
	}
	if train.Total()+test.Total() != tab.Total() {
		t.Fatalf("split loses samples: %d + %d != %d",
			train.Total(), test.Total(), tab.Total())
	}
	// Each cell conserves too.
	tab.EachCell(func(cell []int, count int64) {
		a, _ := train.At(cell...)
		b, _ := test.At(cell...)
		if a+b != count {
			t.Errorf("cell %v: %d + %d != %d", cell, a, b, count)
		}
	})
	// Roughly 30% lands in test.
	frac := float64(test.Total()) / float64(tab.Total())
	if frac < 0.25 || frac > 0.35 {
		t.Errorf("test fraction %.3f, want ≈0.30", frac)
	}
}

func TestTrainTestSplitValidation(t *testing.T) {
	tab := memoTable(t)
	rng := stats.NewRNG(5)
	if _, _, err := TrainTestSplit(tab, 0, rng.Float64); err == nil {
		t.Error("frac 0 accepted")
	}
	if _, _, err := TrainTestSplit(tab, 1, rng.Float64); err == nil {
		t.Error("frac 1 accepted")
	}
	if _, _, err := TrainTestSplit(tab, 0.5, nil); err == nil {
		t.Error("nil source accepted")
	}
}
