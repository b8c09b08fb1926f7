package synth

import (
	"math"
	"testing"

	"pka/internal/stats"
)

func TestWidePairsValidation(t *testing.T) {
	if _, err := WidePairs(0, 2); err == nil {
		t.Error("WidePairs(0, 2) should fail")
	}
	if _, err := WidePairs(3, 0); err == nil {
		t.Error("WidePairs(3, 0) should fail")
	}
	if _, err := WidePairs(3, -1); err == nil {
		t.Error("WidePairs(3, -1) should fail")
	}
}

func TestWidePairsJoints(t *testing.T) {
	truth, err := WidePairs(300, 3)
	if err != nil {
		t.Fatalf("WidePairs: %v", err)
	}
	if got := truth.Schema().R(); got != 600 {
		t.Fatalf("schema has %d attributes, want 600", got)
	}
	if got := truth.NumPairs(); got != 300 {
		t.Fatalf("NumPairs = %d, want 300", got)
	}
	planted := truth.Planted()
	if len(planted) != 300 {
		t.Fatalf("%d planted families, want 300", len(planted))
	}
	for i, fam := range planted {
		m := fam.Members()
		if len(m) != 2 || m[0] != 2*i || m[1] != 2*i+1 {
			t.Fatalf("planted family %d has members %v, want [%d %d]", i, m, 2*i, 2*i+1)
		}
	}
	for i := 0; i < truth.NumPairs(); i++ {
		q := truth.PairProb(i)
		sum := 0.0
		for _, p := range q {
			if p <= 0 {
				t.Fatalf("pair %d has a non-positive cell: %v", i, q)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("pair %d joint sums to %g", i, sum)
		}
		for a := 0; a < 2; a++ {
			if got := truth.PairCond(i, 0, a) + truth.PairCond(i, 1, a); math.Abs(got-1) > 1e-12 {
				t.Fatalf("pair %d conditionals given a=%d sum to %g", i, a, got)
			}
		}
		// The coupling boosts agreement: P(b=a|a) must exceed the marginal
		// P(b=a) it would have under independence.
		indep := q[0] + q[2] // P(right = 0)
		if truth.PairCond(i, 0, 0) <= indep {
			t.Errorf("pair %d: P(0|0)=%g not boosted over marginal %g", i, truth.PairCond(i, 0, 0), indep)
		}
	}
}

func TestWidePairsSampling(t *testing.T) {
	truth, err := WidePairs(4, 3)
	if err != nil {
		t.Fatalf("WidePairs: %v", err)
	}
	const n = 20000
	tab, err := truth.SampleSparse(stats.NewRNG(5), n)
	if err != nil {
		t.Fatalf("SampleSparse: %v", err)
	}
	if tab.Total() != n {
		t.Fatalf("sampled total %d, want %d", tab.Total(), n)
	}
	// Empirical pair joints must sit near the exact ones.
	for i := 0; i < truth.NumPairs(); i++ {
		q := truth.PairProb(i)
		for a := 0; a < 2; a++ {
			for b := 0; b < 2; b++ {
				count, err := tab.MarginalCount(truth.Planted()[i], []int{a, b})
				if err != nil {
					t.Fatalf("MarginalCount: %v", err)
				}
				emp := float64(count) / float64(n)
				if math.Abs(emp-q[2*a+b]) > 0.02 {
					t.Errorf("pair %d cell (%d,%d): empirical %g vs exact %g", i, a, b, emp, q[2*a+b])
				}
			}
		}
	}
	// Determinism: the same seed reproduces the same table.
	again, err := truth.SampleSparse(stats.NewRNG(5), n)
	if err != nil {
		t.Fatalf("SampleSparse again: %v", err)
	}
	if err := tab.CheckConsistency(); err != nil {
		t.Fatalf("CheckConsistency: %v", err)
	}
	var mismatch bool
	tab.EachCell(func(cell []int, c int64) {
		n2, err := again.At(cell...)
		if err != nil || n2 != c {
			mismatch = true
		}
	})
	if mismatch {
		t.Error("same seed produced different samples")
	}
}

func TestWidePairsSampleDataset(t *testing.T) {
	truth, err := WidePairs(3, 2)
	if err != nil {
		t.Fatalf("WidePairs: %v", err)
	}
	d, err := truth.SampleDataset(stats.NewRNG(9), 50)
	if err != nil {
		t.Fatalf("SampleDataset: %v", err)
	}
	if d.Len() != 50 {
		t.Fatalf("dataset has %d records, want 50", d.Len())
	}
	if d.Schema().R() != 6 {
		t.Fatalf("dataset schema has %d attributes, want 6", d.Schema().R())
	}
}
