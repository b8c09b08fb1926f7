package maxent

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pka/internal/contingency"
)

// referenceSubModel builds one block of m as a dense model of its own by
// scanning every family and every constraint: the specification the
// factored fit's block decomposition must reproduce. The sub-model's
// families alias m's coefficient arrays, so solving it writes m's
// coefficients.
func referenceSubModel(m *Model, blk []int) (*Model, error) {
	local := make(map[int]int, len(blk))
	names := make([]string, len(blk))
	cards := make([]int, len(blk))
	for i, p := range blk {
		local[p] = i
		names[i] = m.names[p]
		cards[i] = m.cards[p]
	}
	sub, err := NewModel(names, cards)
	if err != nil {
		return nil, err
	}
	for _, ft := range m.sortedFamilyTerms() {
		vs := ft.vs
		members := vs.Members()
		if _, in := local[members[0]]; !in {
			continue
		}
		lv := make([]int, len(members))
		for i, p := range members {
			li, ok := local[p]
			if !ok {
				return nil, fmt.Errorf("maxent: family %v straddles blocks", vs)
			}
			lv[i] = li
		}
		sub.families[contingency.NewVarSet(lv...)] = &familyTerm{vars: lv, coeffs: ft.coeffs}
	}
	for _, c := range m.cons {
		members := c.Family.Members()
		if _, in := local[members[0]]; !in {
			continue
		}
		lv := make([]int, len(members))
		for i, p := range members {
			lv[i] = local[p]
		}
		lc := Constraint{Family: contingency.NewVarSet(lv...), Values: append([]int(nil), c.Values...), Target: c.Target}
		sub.conIdx[lc.indexKey(sub.cards)] = len(sub.cons)
		sub.cons = append(sub.cons, lc)
	}
	return sub, nil
}

// manyBlocksModel is a 48-attribute model whose constraint graph is mostly
// singleton blocks plus three pair blocks and one triple, with the order-2
// constraints added out of block order and several per family, so each
// block's constraint order is a real interleaving of the parent's.
func manyBlocksModel(t *testing.T) *Model {
	t.Helper()
	const r = 48
	cards := make([]int, r)
	for i := range cards {
		cards[i] = 2 + i%2
	}
	tab, err := contingency.NewSparse(nil, cards)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	coupled := [][2]int{{40, 41}, {3, 17}, {8, 9}, {30, 45}, {17, 22}}
	cell := make([]int, r)
	for n := 0; n < 3000; n++ {
		for i, c := range cards {
			cell[i] = rng.Intn(c)
		}
		for _, pr := range coupled {
			if rng.Float64() < 0.7 {
				cell[pr[1]] = cell[pr[0]] % cards[pr[1]]
			}
		}
		if err := tab.Observe(cell...); err != nil {
			t.Fatal(err)
		}
	}
	m, err := NewModel(nil, cards)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddFirstOrderConstraints(tab); err != nil {
		t.Fatal(err)
	}
	for _, con := range []struct {
		fam  contingency.VarSet
		vals []int
	}{
		{contingency.NewVarSet(40, 41), []int{1, 1}},
		{contingency.NewVarSet(3, 17), []int{0, 0}},
		{contingency.NewVarSet(8, 9), []int{0, 0}},
		{contingency.NewVarSet(40, 41), []int{0, 2}},
		{contingency.NewVarSet(30, 45), []int{1, 1}},
		{contingency.NewVarSet(17, 22), []int{1, 0}},
		{contingency.NewVarSet(3, 17), []int{1, 1}},
	} {
		n, err := tab.MarginalCount(con.fam, con.vals)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddConstraint(Constraint{Family: con.fam, Values: con.vals, Target: float64(n) / float64(tab.Total())}); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// referenceFitFactored is fitFactored rebuilt from the specification: each
// block is a referenceSubModel solved as a whole model by the per-offset
// reference solver (refFit), a clean block without a cached a0 is summed
// over its full joint, and the block a0s multiply in block order. It reads and updates m's fit state as
// fitFactored does; opts must carry its defaults.
func referenceFitFactored(m *Model, opts SolveOptions) (*Report, error) {
	skipClean := opts.Incremental && m.fitClean && m.dirty != nil
	rep := &Report{Converged: true}
	a0 := 1.0
	blockA0 := make(map[contingency.VarSet]float64)
	for _, blk := range m.blocks() {
		sub, err := referenceSubModel(m, blk)
		if err != nil {
			return nil, err
		}
		vs := contingency.NewVarSet(blk...)
		dirty := false
		for fam := range m.dirty {
			for _, p := range blk {
				dirty = dirty || fam.Has(p)
			}
		}
		var ba0 float64
		switch {
		case len(sub.cons) == 0:
			ba0 = 1 / float64(sub.NumCells())
			if opts.Incremental {
				rep.BlocksSkipped++
			}
		case skipClean && !dirty:
			if cached, ok := m.blockA0[vs]; ok {
				ba0 = cached
			} else {
				ev, err := sub.evaluator()
				if err != nil {
					return nil, err
				}
				sum := 0.0
				for _, w := range ev.FullJoint() {
					sum += w
				}
				ba0 = 1 / sum
			}
			rep.BlocksSkipped++
		default:
			brep, err := refFit(sub, opts)
			if err != nil {
				return nil, err
			}
			ba0 = sub.a0
			rep.BlocksFit++
			rep.Sweeps = max(rep.Sweeps, brep.Sweeps)
			rep.Residual = math.Max(rep.Residual, brep.Residual)
			rep.Converged = rep.Converged && brep.Converged
		}
		a0 *= ba0
		blockA0[vs] = ba0
	}
	m.a0, m.blockA0 = a0, blockA0
	m.compiled.Store(nil)
	return rep, nil
}

// requireFitMatchesReference fits m with opts and a clone of it with
// referenceFitFactored, and requires the same error text or, on success,
// == on every report field, every coefficient, a0, the block a0 cache
// and the exported state. It returns m's report, nil on error.
func requireFitMatchesReference(t *testing.T, m *Model, opts SolveOptions, label string) *Report {
	t.Helper()
	ref := m.Clone()
	dopts, err := opts.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Fit(opts)
	wantRep, wantErr := referenceFitFactored(ref, dopts)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, per-block reference %v", label, err, wantErr)
	}
	if err != nil {
		return nil
	}
	if !reflect.DeepEqual(rep, wantRep) {
		t.Fatalf("%s: report %+v, per-block reference %+v", label, *rep, *wantRep)
	}
	requireBitIdentical(t, ref, m, label)
	if !reflect.DeepEqual(m.blockA0, ref.blockA0) {
		t.Fatalf("%s: block a0s %v, per-block reference %v", label, m.blockA0, ref.blockA0)
	}
	got, err := m.Export()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Export()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: exported state differs from the per-block reference", label)
	}
	return rep
}

// requireBlockCounts fails unless the report re-solved fit blocks and
// kept skipped ones.
func requireBlockCounts(t *testing.T, rep *Report, fit, skipped int, label string) {
	t.Helper()
	if rep.BlocksFit != fit || rep.BlocksSkipped != skipped {
		t.Fatalf("%s: %d blocks fit and %d skipped, want %d and %d", label, rep.BlocksFit, rep.BlocksSkipped, fit, skipped)
	}
}

// TestFactoredFitMatchesPerBlockReference: the factored fit gives the same
// coefficients, a0, block a0s, report and exported state, bit for bit, as
// solving per-block-scan sub-models one at a time and reducing in block
// order — from scratch and in Incremental refits, over dirty blocks, clean
// blocks with and without a cached a0, unconstrained blocks and
// zero-target constraints; and a block without model support for its
// target fails with the reference's error text.
func TestFactoredFitMatchesPerBlockReference(t *testing.T) {
	base := manyBlocksModel(t)
	// Two more attributes carry no constraint at all: unconstrained
	// singleton blocks.
	m, err := NewModel(nil, append(base.Cards(), 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range base.Constraints() {
		if err := m.AddConstraint(c); err != nil {
			t.Fatal(err)
		}
	}
	// A zero-target cell in a block of its own.
	if err := m.AddConstraint(Constraint{Family: contingency.NewVarSet(5, 6), Values: []int{1, 1}, Target: 0}); err != nil {
		t.Fatal(err)
	}
	if n := len(m.blocks()); n != 44 {
		t.Fatalf("%d blocks, want 44", n)
	}
	rep := requireFitMatchesReference(t, m, SolveOptions{}, "from scratch")
	requireBlockCounts(t, rep, 42, 0, "from scratch")

	// One dirty block; the clean ones reuse their cached a0.
	if err := m.SetTarget(contingency.NewVarSet(40, 41), []int{1, 1}, 0.9*constraintTarget(t, m, 40, 41)); err != nil {
		t.Fatal(err)
	}
	rep = requireFitMatchesReference(t, m, SolveOptions{Incremental: true}, "incremental, cached a0s")
	requireBlockCounts(t, rep, 1, 43, "incremental, cached a0s")

	// A new family merges two singleton blocks into a dirty pair block.
	if err := m.AddConstraint(Constraint{Family: contingency.NewVarSet(12, 13), Values: []int{0, 0}, Target: 0.2}); err != nil {
		t.Fatal(err)
	}
	rep = requireFitMatchesReference(t, m, SolveOptions{Incremental: true}, "incremental, merged block")
	requireBlockCounts(t, rep, 1, 42, "incremental, merged block")

	// Restored without block a0s: the clean blocks are summed in one pass.
	st, err := m.Export()
	if err != nil {
		t.Fatal(err)
	}
	for i := range st.Blocks {
		if i%3 != 0 {
			st.Blocks[i].HasA0 = false
		}
	}
	restored, err := RestoreModel(st)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.SetTarget(contingency.NewVarSet(3, 17), []int{1, 1}, 0.9*constraintTarget(t, restored, 3, 17)); err != nil {
		t.Fatal(err)
	}
	rep = requireFitMatchesReference(t, restored, SolveOptions{Incremental: true}, "incremental, restored without a0s")
	requireBlockCounts(t, rep, 1, 42, "incremental, restored without a0s")
	requireFitMatchesReference(t, restored.Clone(), SolveOptions{}, "restored, from scratch")

	// Emptying attribute 10's first value leaves a positive pair target on
	// it without model support.
	for _, opts := range []SolveOptions{{}, {Incremental: true}} {
		bad := m.Clone()
		if err := bad.SetTarget(contingency.NewVarSet(10), []int{0}, 0); err != nil {
			t.Fatal(err)
		}
		if err := bad.AddConstraint(Constraint{Family: contingency.NewVarSet(10, 11), Values: []int{0, 1}, Target: 0.05}); err != nil {
			t.Fatal(err)
		}
		ref := bad.Clone()
		_, err := bad.Fit(opts)
		if err == nil || !strings.Contains(err.Error(), "has zero model support") {
			t.Fatalf("zero-support fit: err = %v", err)
		}
		requireFitMatchesReference(t, ref, opts, "zero model support")
	}
}

// constraintTarget returns the target of m's constraint on the pair {p, q}
// at values (1, 1).
func constraintTarget(t *testing.T, m *Model, p, q int) float64 {
	t.Helper()
	fam := contingency.NewVarSet(p, q)
	for _, c := range m.cons {
		if c.Family == fam && c.Values[0] == 1 && c.Values[1] == 1 {
			return c.Target
		}
	}
	t.Fatalf("no constraint on %v at (1, 1)", fam)
	return 0
}
