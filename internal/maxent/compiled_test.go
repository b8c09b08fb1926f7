package maxent

import (
	"math/rand"
	"sync"
	"testing"

	"pka/internal/contingency"
)

// fittedMemoModel builds and fits the memo's first-order model plus the
// significant N^AC_12 constraint — a realistic fitted coefficient state.
func fittedMemoModel(t testing.TB) *Model {
	t.Helper()
	m, err := NewModel([]string{"A", "B", "C"}, []int{3, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	targets := [][]float64{
		{1290.0 / 3428, 1133.0 / 3428, 1005.0 / 3428},
		{433.0 / 3428, 2995.0 / 3428},
		{1780.0 / 3428, 1648.0 / 3428},
	}
	for axis, probs := range targets {
		for v, p := range probs {
			err := m.AddConstraint(Constraint{
				Family: contingency.NewVarSet(axis),
				Values: []int{v},
				Target: p,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	err = m.AddConstraint(Constraint{
		Family: contingency.NewVarSet(0, 2),
		Values: []int{0, 1},
		Target: 750.0 / 3428,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Fit(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatal("memo model did not converge")
	}
	return m
}

// TestCompiledProbBitIdenticalToPerCellPath: the compiled engine must
// reproduce the original rebuild-an-evaluator-per-call path bit for bit,
// for single cells and for whole batch marginals — the invariant that keeps
// discovery output unchanged by the refactor.
func TestCompiledProbBitIdenticalToPerCellPath(t *testing.T) {
	m := fittedMemoModel(t)
	ev, err := m.evaluator() // the reference per-cell path
	if err != nil {
		t.Fatal(err)
	}
	cards := m.Cards()
	r := m.R()
	for mask := 1; mask < 1<<r; mask++ {
		var members []int
		var fam contingency.VarSet
		for v := 0; v < r; v++ {
			if mask&(1<<v) != 0 {
				members = append(members, v)
				fam = fam.Add(v)
			}
		}
		marg, err := m.Marginal(fam)
		if err != nil {
			t.Fatal(err)
		}
		values := make([]int, len(members))
		pinned := make([]int, r)
		for idx := 0; ; idx++ {
			for i := range pinned {
				pinned[i] = -1
			}
			for i, p := range members {
				pinned[p] = values[i]
			}
			want := m.A0() * ev.SumFixed(pinned)
			got, err := m.Prob(fam, values)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("family %v cell %v: Prob = %x, per-cell path %x", fam, values, got, want)
			}
			if marg[idx] != want {
				t.Fatalf("family %v cell %v: Marginal[%d] = %x, per-cell path %x",
					fam, values, idx, marg[idx], want)
			}
			i := len(members) - 1
			for i >= 0 {
				values[i]++
				if values[i] < cards[members[i]] {
					break
				}
				values[i] = 0
				i--
			}
			if i < 0 {
				break
			}
		}
	}
	// Full joint and per-cell direct evaluation agree too.
	joint, err := m.Joint()
	if err != nil {
		t.Fatal(err)
	}
	ref := ev.FullJoint()
	cell := make([]int, r)
	for off := range ref {
		rem := off
		for v := r - 1; v >= 0; v-- {
			cell[v] = rem % cards[v]
			rem /= cards[v]
		}
		if want := ref[off] * m.A0(); joint[off] != want {
			t.Errorf("Joint[%d] = %x, want %x", off, joint[off], want)
		}
	}
	_ = cell
}

// TestCompileInvalidation: AddConstraint and Fit must refresh the snapshot
// so queries never serve stale coefficients.
func TestCompileInvalidation(t *testing.T) {
	m := fittedMemoModel(t)
	c1, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	c1b, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c1b {
		t.Error("Compile did not cache the snapshot")
	}
	before, err := m.Prob(contingency.NewVarSet(0, 1), []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	err = m.AddConstraint(Constraint{
		Family: contingency.NewVarSet(0, 1),
		Values: []int{0, 0},
		Target: 0.10,
	})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if c2 == c1 {
		t.Error("AddConstraint did not invalidate the snapshot")
	}
	if rep, err := m.Fit(SolveOptions{}); err != nil || !rep.Converged {
		t.Fatalf("refit: %v (converged %v)", err, rep != nil && rep.Converged)
	}
	c3, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if c3 == c2 {
		t.Error("Fit did not refresh the snapshot")
	}
	after, err := m.Prob(contingency.NewVarSet(0, 1), []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if after == before {
		t.Error("constrained probability unchanged after refit; stale snapshot suspected")
	}
	if diff := after - 0.10; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("refit probability %g, want ~0.10", after)
	}
	// The old snapshot still answers with its frozen coefficients.
	if p, err := c1.Prob(contingency.NewVarSet(0, 1), []int{0, 0}); err != nil || p != before {
		t.Errorf("frozen snapshot moved: %g -> %g (err %v)", before, p, err)
	}
}

// TestCloneSharesSnapshotSafely: a clone shares the immutable snapshot but
// diverges after its own mutation.
func TestCloneSharesSnapshotSafely(t *testing.T) {
	m := fittedMemoModel(t)
	cp := m.Clone()
	pm, err := m.Prob(contingency.NewVarSet(1), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := cp.Prob(contingency.NewVarSet(1), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if pm != pc {
		t.Errorf("clone diverged before mutation: %x vs %x", pm, pc)
	}
	err = cp.AddConstraint(Constraint{
		Family: contingency.NewVarSet(1, 2),
		Values: []int{0, 0},
		Target: 0.08,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := cp.Fit(SolveOptions{}); err != nil || !rep.Converged {
		t.Fatalf("clone refit: %v", err)
	}
	pm2, err := m.Prob(contingency.NewVarSet(1), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if pm2 != pm {
		t.Errorf("mutating the clone changed the original: %x -> %x", pm, pm2)
	}
}

// TestCompiledConcurrentQueries hammers one fitted model from many
// goroutines (run with -race): all query paths share the snapshot.
func TestCompiledConcurrentQueries(t *testing.T) {
	m := fittedMemoModel(t)
	fam := contingency.NewVarSet(0, 2)
	wantProb, err := m.Prob(fam, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	wantMarg, err := m.Marginal(fam)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				switch (g + i) % 3 {
				case 0:
					p, err := m.Prob(fam, []int{0, 1})
					if err != nil || p != wantProb {
						errs <- "Prob mismatch"
						return
					}
				case 1:
					marg, err := m.Marginal(fam)
					if err != nil {
						errs <- err.Error()
						return
					}
					for j := range marg {
						if marg[j] != wantMarg[j] {
							errs <- "Marginal mismatch"
							return
						}
					}
				default:
					if _, err := m.CellProb([]int{0, 0, 1}); err != nil {
						errs <- err.Error()
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

// TestConcurrentCompileOnStaleSnapshot: queries hitting a model whose
// snapshot was invalidated (AddConstraint after Fit) race to rebuild it;
// the atomic publication must keep this safe (run with -race) and every
// caller must see the same coefficients.
func TestConcurrentCompileOnStaleSnapshot(t *testing.T) {
	m := fittedMemoModel(t)
	err := m.AddConstraint(Constraint{
		Family: contingency.NewVarSet(0, 1),
		Values: []int{0, 0},
		Target: 0.07,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot is now stale (nil); fan out queries that all rebuild it.
	fam := contingency.NewVarSet(0, 2)
	want, err := m.Prob(fam, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Invalidate again so the goroutines really race on the rebuild.
	err = m.AddConstraint(Constraint{
		Family: contingency.NewVarSet(0, 1),
		Values: []int{1, 0},
		Target: 0.04,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				p, err := m.Prob(fam, []int{0, 1})
				if err != nil || p != want {
					errs <- "stale-snapshot rebuild diverged"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

func TestCompiledValidationErrors(t *testing.T) {
	m := fittedMemoModel(t)
	c, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Prob(contingency.NewVarSet(0), []int{0, 1}); err == nil {
		t.Error("value-count mismatch accepted")
	}
	if _, err := c.Prob(contingency.NewVarSet(7), []int{0}); err == nil {
		t.Error("out-of-range attribute accepted")
	}
	if _, err := c.Prob(contingency.NewVarSet(0), []int{5}); err == nil {
		t.Error("out-of-range value accepted")
	}
	if _, err := c.Marginal(contingency.VarSet{}); err == nil {
		t.Error("empty marginal family accepted")
	}
	if _, err := c.Marginal(contingency.NewVarSet(9)); err == nil {
		t.Error("out-of-range marginal family accepted")
	}
	if _, err := c.MarginalGiven(contingency.NewVarSet(0), []int{0, -1, -1}); err == nil {
		t.Error("kept+clamped attribute accepted")
	}
	if _, err := c.MarginalGiven(contingency.NewVarSet(0), []int{-1, 9, -1}); err == nil {
		t.Error("out-of-range clamp accepted")
	}
	if _, err := c.CellProb([]int{0}); err == nil {
		t.Error("short cell accepted")
	}
	if _, err := c.CellProb([]int{9, 0, 0}); err == nil {
		t.Error("out-of-range cell accepted")
	}
}

// TestMarginalsMatchMarginal: one Marginals batch over every family of
// orders 1-3, plus a repeated family, equals Marginal of each family bit
// for bit on random dense models (the engine's shared elimination walk)
// and random factored ones (per-family assembly), at any worker count.
// An invalid family fails the batch with Marginal's error.
func TestMarginalsMatchMarginal(t *testing.T) {
	forceFactored(t, 64)
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		for _, factored := range []bool{false, true} {
			var m *Model
			if factored {
				m = randomFactoredModel(t, rng)
			} else {
				m = randomDenseModel(t, rng)
			}
			c, err := m.Compile()
			if err != nil {
				t.Fatal(err)
			}
			if c.Factored() != factored {
				t.Fatalf("model over %v: factored %v, want %v", m.cards, c.Factored(), factored)
			}
			var fams []contingency.VarSet
			for order := 1; order <= 3; order++ {
				fams = append(fams, contingency.Combinations(m.R(), order)...)
			}
			fams = append(fams, fams[len(fams)/2])
			for _, workers := range []int{1, 2, 8} {
				got, err := m.Marginals(fams, workers)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(fams) {
					t.Fatalf("%d marginals for %d families", len(got), len(fams))
				}
				for i, fam := range fams {
					want, err := c.Marginal(fam)
					if err != nil {
						t.Fatal(err)
					}
					if !sameBits(got[i], want) {
						t.Fatalf("factored=%v workers=%d: Marginals %v = %v, Marginal %v",
							factored, workers, fam, got[i], want)
					}
				}
			}
			for _, bad := range []contingency.VarSet{{}, contingency.NewVarSet(0, m.R())} {
				_, want := c.Marginal(bad)
				_, err := c.Marginals([]contingency.VarSet{contingency.NewVarSet(0), bad}, 2)
				if want == nil || err == nil || err.Error() != want.Error() {
					t.Errorf("factored=%v: Marginals with %v gave %v, Marginal %v", factored, bad, err, want)
				}
			}
		}
	}
}
