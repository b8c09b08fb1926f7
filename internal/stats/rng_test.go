package stats

import (
	"testing"
)

func TestRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	aa := NewRNG(42)
	for i := 0; i < 10; i++ {
		if aa.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	g := NewRNG(7)
	child := g.Split()
	// Drawing from the parent must not perturb the child's future stream.
	want := make([]float64, 5)
	childCopy := NewRNG(7).Split()
	for i := range want {
		want[i] = childCopy.Float64()
	}
	for i := range want {
		if got := child.Float64(); got != want[i] {
			t.Fatalf("split stream not reproducible at %d", i)
		}
	}
}

func TestCategoricalValidation(t *testing.T) {
	g := NewRNG(1)
	if _, err := g.Categorical(nil); err == nil {
		t.Error("empty weights accepted")
	}
	if _, err := g.Categorical([]float64{0, 0}); err == nil {
		t.Error("zero-sum weights accepted")
	}
	if _, err := g.Categorical([]float64{1, -1}); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestCategoricalFrequencies(t *testing.T) {
	g := NewRNG(99)
	w := []float64{1, 2, 7}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		idx, err := g.Categorical(w)
		if err != nil {
			t.Fatal(err)
		}
		counts[idx]++
	}
	for i, want := range []float64{0.1, 0.2, 0.7} {
		got := float64(counts[i]) / n
		if !almostEqual(got, want, 0.01) {
			t.Errorf("bucket %d frequency %g, want %g", i, got, want)
		}
	}
}

func TestCategoricalZeroWeightNeverDrawn(t *testing.T) {
	g := NewRNG(3)
	w := []float64{0, 1, 0}
	for i := 0; i < 1000; i++ {
		idx, err := g.Categorical(w)
		if err != nil {
			t.Fatal(err)
		}
		if idx != 1 {
			t.Fatalf("drew zero-weight bucket %d", idx)
		}
	}
}

func TestCategoricalSamplerMatchesDirect(t *testing.T) {
	w := []float64{0.5, 0.25, 0.25}
	s, err := NewCategoricalSampler(NewRNG(5), w)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[s.Draw()]++
	}
	for i, want := range w {
		got := float64(counts[i]) / n
		if !almostEqual(got, want, 0.01) {
			t.Errorf("sampler bucket %d frequency %g, want %g", i, got, want)
		}
	}
}

func TestCategoricalSamplerValidation(t *testing.T) {
	if _, err := NewCategoricalSampler(NewRNG(1), nil); err == nil {
		t.Error("empty weights accepted")
	}
	if _, err := NewCategoricalSampler(NewRNG(1), []float64{-1, 2}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := NewCategoricalSampler(NewRNG(1), []float64{0}); err == nil {
		t.Error("zero-sum weights accepted")
	}
}

func TestMultinomialConservesTotal(t *testing.T) {
	g := NewRNG(11)
	counts, err := g.Multinomial(12345, []float64{3, 1, 1, 5})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, c := range counts {
		sum += c
	}
	if sum != 12345 {
		t.Errorf("multinomial total %d, want 12345", sum)
	}
}

func TestMultinomialError(t *testing.T) {
	g := NewRNG(11)
	if _, err := g.Multinomial(10, []float64{0}); err == nil {
		t.Error("bad weights accepted")
	}
}
