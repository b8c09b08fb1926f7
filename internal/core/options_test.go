package core

import (
	"testing"

	"pka/internal/mml"
)

func TestDiscoverWithStricterPrior(t *testing.T) {
	// A higher p(H2') makes significance easier (m2 shrinks), so findings
	// can only grow.
	tab := memoTable(t)
	base, err := Discover(tab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eager, err := Discover(tab, Options{MML: mml.Config{PriorH2: 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	if len(eager.Findings) < len(base.Findings) {
		t.Errorf("eager prior found %d < default %d", len(eager.Findings), len(base.Findings))
	}
	// A very skeptical prior can only shrink the set.
	skeptic, err := Discover(tab, Options{MML: mml.Config{PriorH2: 0.01}})
	if err != nil {
		t.Fatal(err)
	}
	if len(skeptic.Findings) > len(base.Findings) {
		t.Errorf("skeptical prior found %d > default %d", len(skeptic.Findings), len(base.Findings))
	}
}

func TestDiscoverIncludeForcedMode(t *testing.T) {
	// The literal-memo mode accepts forced cells; it must still terminate
	// and satisfy all its constraints.
	tab := memoTable(t)
	res, err := Discover(tab, Options{MML: mml.Config{PriorH2: 0.5, IncludeForced: true}})
	if err != nil {
		t.Fatal(err)
	}
	def, err := Discover(tab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) < len(def.Findings) {
		t.Errorf("forced mode found %d < default %d", len(res.Findings), len(def.Findings))
	}
	resid, err := res.Model.Residual()
	if err != nil {
		t.Fatal(err)
	}
	if resid > 0.01/float64(tab.Total())+1e-9 {
		t.Errorf("forced-mode residual %g", resid)
	}
}

func TestDiscoverParallelMatchesSequential(t *testing.T) {
	tab := memoTable(t)
	seq, err := Discover(tab, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 8} {
		par, err := Discover(tab, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(par.Findings) != len(seq.Findings) {
			t.Fatalf("workers=%d: %d findings vs %d sequential",
				workers, len(par.Findings), len(seq.Findings))
		}
		for i := range seq.Findings {
			a, b := seq.Findings[i], par.Findings[i]
			if a.Test.Family != b.Test.Family || a.Test.Delta != b.Test.Delta {
				t.Errorf("workers=%d: finding %d differs", workers, i)
			}
		}
	}
}

func TestOptionsDefaultsValidation(t *testing.T) {
	tab := memoTable(t) // R = 3, N = 3428
	if _, err := (Options{MaxOrder: 1}).withDefaults(tab); err == nil {
		t.Error("MaxOrder 1 accepted")
	}
	if _, err := (Options{MaxOrder: 4}).withDefaults(tab); err == nil {
		t.Error("MaxOrder above R accepted")
	}
	o, err := (Options{}).withDefaults(tab)
	if err != nil {
		t.Fatal(err)
	}
	if o.MaxOrder != 3 || o.MML.PriorH2 != 0.5 || o.Solve.Tol != 0.01/3428 {
		t.Errorf("defaults = %+v", o)
	}
}
