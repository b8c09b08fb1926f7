package maxent

import (
	"math"
	"testing"
	"testing/quick"
)

func TestUpdateFactorsInterior(t *testing.T) {
	f, g, err := updateFactors(0.2, Constraint{Target: 0.4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-2) > 1e-12 {
		t.Errorf("f = %g, want 2", f)
	}
	if math.Abs(g-0.75) > 1e-12 {
		t.Errorf("g = %g, want 0.6/0.8 = 0.75", g)
	}
	// Mass conservation: f·q + g·(1-q) = 1.
	if v := f*0.2 + g*0.8; math.Abs(v-1) > 1e-12 {
		t.Errorf("mass after update = %g", v)
	}
}

func TestUpdateFactorsFixedPoints(t *testing.T) {
	f, g, err := updateFactors(0.3, Constraint{Target: 0.3}, nil)
	if err != nil || f != 1 || g != 1 {
		t.Errorf("matched target should be identity: %g, %g, %v", f, g, err)
	}
	// q = 0 with target 0 is satisfied.
	f, g, err = updateFactors(0, Constraint{Target: 0}, nil)
	if err != nil || f != 1 || g != 1 {
		t.Errorf("zero-zero should be identity: %g, %g, %v", f, g, err)
	}
	// q = 1 with target 1 is satisfied.
	f, g, err = updateFactors(1, Constraint{Target: 1}, nil)
	if err != nil || f != 1 || g != 1 {
		t.Errorf("one-one should be identity: %g, %g, %v", f, g, err)
	}
}

func TestUpdateFactorsErrors(t *testing.T) {
	if _, _, err := updateFactors(0, Constraint{Target: 0.5}, nil); err == nil {
		t.Error("zero support with positive target accepted")
	}
	if _, _, err := updateFactors(1, Constraint{Target: 0.5}, nil); err == nil {
		t.Error("full mass with smaller target accepted")
	}
	if _, _, err := updateFactors(0.5, Constraint{Target: 1}, nil); err == nil {
		t.Error("target 1 from interior accepted")
	}
}

func TestUpdateFactorsZeroTarget(t *testing.T) {
	f, g, err := updateFactors(0.25, Constraint{Target: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f != 0 {
		t.Errorf("f = %g, want 0", f)
	}
	if math.Abs(g-1/0.75) > 1e-12 {
		t.Errorf("g = %g, want 1/0.75", g)
	}
}

func TestUpdateFactorsConservationProperty(t *testing.T) {
	// For any interior q and target, the update conserves total mass and
	// lands the matched partition exactly on the target.
	fn := func(qSeed, tSeed uint16) bool {
		q := (float64(qSeed%998) + 1) / 1000  // (0,1)
		tg := (float64(tSeed%998) + 1) / 1000 // (0,1)
		f, g, err := updateFactors(q, Constraint{Target: tg}, nil)
		if err != nil {
			return false
		}
		newMass := f*q + g*(1-q)
		newMatched := f * q / newMass
		return math.Abs(newMass-1) < 1e-9 && math.Abs(newMatched-tg) < 1e-9
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}
