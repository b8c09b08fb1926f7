package maxent

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"pka/internal/contingency"
)

// referenceSubModel is the per-block construction subModels replaced: one
// scan of every family and every constraint per block. It is kept here as
// the specification the one-pass partition must reproduce.
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
	for _, vs := range sortedFamilies(m.families) {
		ft := m.families[vs]
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
		sub.conIdx[lc.key()] = len(sub.cons)
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

// TestSubModelsMatchPerBlockScan: the one-pass partition builds, block for
// block, the same sub-models as the per-block scan — same families over
// the same aliased coefficient arrays, same constraints in the same order.
func TestSubModelsMatchPerBlockScan(t *testing.T) {
	m := manyBlocksModel(t)
	blocks := m.blocks()
	if len(blocks) != 43 {
		t.Fatalf("%d blocks, want 43 (39 singletons, three pairs and a triple)", len(blocks))
	}
	subs, err := m.subModels(blocks, m.sortedFamilyTerms())
	if err != nil {
		t.Fatal(err)
	}
	for bi, blk := range blocks {
		want, err := referenceSubModel(m, blk)
		if err != nil {
			t.Fatal(err)
		}
		got := subs[bi]
		if fmt.Sprint(got.names, got.cards) != fmt.Sprint(want.names, want.cards) {
			t.Fatalf("block %v: schema %v %v, want %v %v", blk, got.names, got.cards, want.names, want.cards)
		}
		if len(got.families) != len(want.families) {
			t.Fatalf("block %v: %d families, want %d", blk, len(got.families), len(want.families))
		}
		for vs, wf := range want.families {
			gf, ok := got.families[vs]
			if !ok || fmt.Sprint(gf.vars) != fmt.Sprint(wf.vars) || &gf.coeffs[0] != &wf.coeffs[0] {
				t.Fatalf("block %v: family %v differs or does not alias the parent's coefficients", blk, vs)
			}
		}
		if len(got.cons) != len(want.cons) {
			t.Fatalf("block %v: %d constraints, want %d", blk, len(got.cons), len(want.cons))
		}
		for i := range want.cons {
			g, w := got.cons[i], want.cons[i]
			if g.key() != w.key() || g.Target != w.Target || got.conIdx[g.key()] != i {
				t.Fatalf("block %v: constraint %d is %s, want %s", blk, i, g.Label(got.names), w.Label(want.names))
			}
		}
	}
}

// TestFactoredFitMatchesPerBlockReference: the factored fit gives the same
// coefficients, a0 and report, bit for bit, as solving per-block-scan
// sub-models one at a time and reducing in block order.
func TestFactoredFitMatchesPerBlockReference(t *testing.T) {
	m := manyBlocksModel(t)
	ref := m.Clone()
	opts, err := SolveOptions{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Fit(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}

	want := &Report{Converged: true}
	a0 := 1.0
	for _, blk := range ref.blocks() {
		sub, err := referenceSubModel(ref, blk)
		if err != nil {
			t.Fatal(err)
		}
		if len(sub.cons) == 0 {
			size, err := ref.blockDenseSize(blk)
			if err != nil {
				t.Fatal(err)
			}
			a0 *= 1 / float64(size)
			continue
		}
		brep, err := sub.fitDenseCore(opts)
		if err != nil {
			t.Fatal(err)
		}
		a0 *= sub.a0
		want.BlocksFit++
		want.Sweeps = max(want.Sweeps, brep.Sweeps)
		want.Residual = math.Max(want.Residual, brep.Residual)
		want.Converged = want.Converged && brep.Converged
	}

	if rep.BlocksFit != want.BlocksFit || rep.Sweeps != want.Sweeps || rep.Converged != want.Converged ||
		math.Float64bits(rep.Residual) != math.Float64bits(want.Residual) {
		t.Fatalf("report %+v, per-block reference %+v", *rep, *want)
	}
	if math.Float64bits(m.A0()) != math.Float64bits(a0) {
		t.Fatalf("a0 = %v, per-block reference %v", m.A0(), a0)
	}
	for _, c := range m.Constraints() {
		got, err := m.Coefficient(c.Family, c.Values)
		if err != nil {
			t.Fatal(err)
		}
		wantC, err := ref.Coefficient(c.Family, c.Values)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(wantC) {
			t.Fatalf("coefficient %s = %v, per-block reference %v", c.Label(m.names), got, wantC)
		}
	}
}

// TestSubModelsRejectStraddlingFamily: a partition that splits a family
// across blocks is refused, not silently truncated.
func TestSubModelsRejectStraddlingFamily(t *testing.T) {
	m := manyBlocksModel(t)
	split := make([][]int, m.R())
	for p := range split {
		split[p] = []int{p}
	}
	_, err := m.subModels(split, m.sortedFamilyTerms())
	if err == nil || !strings.Contains(err.Error(), "straddles blocks") {
		t.Fatalf("straddling partition: err = %v, want a straddles-blocks error", err)
	}
}
