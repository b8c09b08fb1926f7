package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEntropyUniform(t *testing.T) {
	// H(uniform over k) = ln k.
	for _, k := range []int{2, 3, 10, 100} {
		p := make([]float64, k)
		for i := range p {
			p[i] = 1 / float64(k)
		}
		if got := Entropy(p); !almostEqual(got, math.Log(float64(k)), 1e-12) {
			t.Errorf("H(uniform %d) = %g, want ln %d = %g", k, got, k, math.Log(float64(k)))
		}
	}
}

func TestEntropyDegenerate(t *testing.T) {
	if Entropy([]float64{1, 0, 0}) != 0 {
		t.Error("point mass should have zero entropy")
	}
	if Entropy(nil) != 0 {
		t.Error("empty distribution should have zero entropy")
	}
}

func TestEntropyBoundedProperty(t *testing.T) {
	// For any normalized distribution, 0 <= H <= ln k.
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		p := make([]float64, len(raw))
		for i, r := range raw {
			p[i] = float64(r) + 1 // strictly positive
		}
		if _, err := Normalize(p); err != nil {
			return false
		}
		h := Entropy(p)
		return h >= -1e-12 && h <= math.Log(float64(len(p)))+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKLNonNegativeProperty(t *testing.T) {
	// Gibbs' inequality: D(p||q) >= 0, equality iff p == q.
	f := func(rawP, rawQ [6]uint8) bool {
		p := make([]float64, 6)
		q := make([]float64, 6)
		for i := 0; i < 6; i++ {
			p[i] = float64(rawP[i]) + 1
			q[i] = float64(rawQ[i]) + 1
		}
		Normalize(p)
		Normalize(q)
		d, err := KLDivergence(p, q)
		return err == nil && d >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKLSelfIsZero(t *testing.T) {
	p := []float64{0.2, 0.3, 0.5}
	d, err := KLDivergence(p, p)
	if err != nil || !almostEqual(d, 0, 1e-14) {
		t.Errorf("D(p||p) = %g, err %v", d, err)
	}
}

func TestKLAbsoluteContinuity(t *testing.T) {
	d, err := KLDivergence([]float64{0.5, 0.5}, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(d, 1) {
		t.Errorf("KL with missing support = %g, want +Inf", d)
	}
	// But zero p mass over zero q mass is fine.
	d, err = KLDivergence([]float64{1, 0}, []float64{0.5, 0.5})
	if err != nil || math.IsInf(d, 1) {
		t.Errorf("KL with p-null cell should be finite, got %g err %v", d, err)
	}
}

func TestKLLengthMismatch(t *testing.T) {
	if _, err := KLDivergence([]float64{1}, []float64{0.5, 0.5}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestMutualInformationIndependent(t *testing.T) {
	// Product distribution has zero MI.
	px := []float64{0.3, 0.7}
	py := []float64{0.2, 0.5, 0.3}
	joint := make([]float64, 6)
	for x := 0; x < 2; x++ {
		for y := 0; y < 3; y++ {
			joint[x*3+y] = px[x] * py[y]
		}
	}
	mi, err := MutualInformation(joint, 2, 3)
	if err != nil || !almostEqual(mi, 0, 1e-12) {
		t.Errorf("MI(independent) = %g err %v", mi, err)
	}
}

func TestMutualInformationPerfectlyCorrelated(t *testing.T) {
	// X == Y uniform binary: MI = ln 2.
	joint := []float64{0.5, 0, 0, 0.5}
	mi, err := MutualInformation(joint, 2, 2)
	if err != nil || !almostEqual(mi, math.Log(2), 1e-12) {
		t.Errorf("MI(copy) = %g err %v, want ln 2", mi, err)
	}
}

func TestMutualInformationBadShape(t *testing.T) {
	if _, err := MutualInformation([]float64{1, 2, 3}, 2, 2); err == nil {
		t.Error("shape mismatch accepted")
	}
	if _, err := MutualInformation(nil, 0, 2); err == nil {
		t.Error("zero dimension accepted")
	}
}

func TestNormalize(t *testing.T) {
	p := []float64{2, 3, 5}
	sum, err := Normalize(p)
	if err != nil || sum != 10 {
		t.Fatalf("Normalize sum = %g err %v", sum, err)
	}
	if !almostEqual(p[0], 0.2, 1e-15) || !almostEqual(p[2], 0.5, 1e-15) {
		t.Errorf("normalized to %v", p)
	}
	if _, err := Normalize([]float64{0, 0}); err == nil {
		t.Error("zero-sum normalize accepted")
	}
	if _, err := Normalize([]float64{1, -1}); err == nil {
		t.Error("negative entry accepted")
	}
	if _, err := Normalize([]float64{1, math.NaN()}); err == nil {
		t.Error("NaN entry accepted")
	}
}
