package maxent

import (
	"math"
	"math/rand"
	"testing"

	"pka/internal/contingency"
)

// The factored engine finds the blocks a query touches through the
// snapshot's attribute index (blockOf, localOf). The oracles below are the
// per-block walks it replaced: every block probes a local index as long as
// the whole attribute space for every member and pin. Both must give the
// same bits, because they run the same engines in the same block order.

// refLocals rebuilds the per-block local index: locals[bi][p] is p's
// position in block bi, or -1.
func refLocals(c *Compiled) [][]int {
	locals := make([][]int, len(c.blocks))
	for bi := range c.blocks {
		local := make([]int, len(c.cards))
		for p := range local {
			local[p] = -1
		}
		for li, p := range c.blocks[bi].vars {
			local[p] = li
		}
		locals[bi] = local
	}
	return locals
}

// refFactoredMarginal is the per-block walk of factoredMarginal.
func refFactoredMarginal(c *Compiled, members []int, fixed []int) ([]float64, error) {
	locals := refLocals(c)
	scalar := c.a0
	type part struct {
		midx []int
		dims []int
		arr  []float64
	}
	var parts []part
	for bi := range c.blocks {
		b := &c.blocks[bi]
		var lm, midx, dims []int
		for i, p := range members {
			if li := locals[bi][p]; li >= 0 {
				lm = append(lm, li)
				midx = append(midx, i)
				dims = append(dims, c.cards[p])
			}
		}
		var localFixed []int
		for li, p := range b.vars {
			if p < len(fixed) && fixed[p] >= 0 {
				if localFixed == nil {
					localFixed = make([]int, len(b.vars))
					for j := range localFixed {
						localFixed[j] = -1
					}
				}
				localFixed[li] = fixed[p]
			}
		}
		switch {
		case len(lm) > 0:
			arr, err := b.eng.MarginalFixed(lm, localFixed)
			if err != nil {
				return nil, err
			}
			parts = append(parts, part{midx: midx, dims: dims, arr: arr})
		case localFixed != nil:
			scalar *= b.eng.SumFixed(localFixed)
		default:
			scalar *= b.sum
		}
	}
	size := 1
	for _, p := range members {
		size *= c.cards[p]
	}
	out := make([]float64, size)
	values := make([]int, len(members))
	for i := 0; i < size; i++ {
		v := scalar
		for _, pt := range parts {
			off := 0
			for k, mi := range pt.midx {
				off = off*pt.dims[k] + values[mi]
			}
			v *= pt.arr[off]
		}
		out[i] = v
		for j := len(members) - 1; j >= 0; j-- {
			values[j]++
			if values[j] < c.cards[members[j]] {
				break
			}
			values[j] = 0
		}
	}
	return out, nil
}

// refLocalPins gathers block bi's members and values through the local
// index.
func refLocalPins(local, members, values []int) (lv, lvals []int) {
	for i, p := range members {
		if li := local[p]; li >= 0 {
			lv = append(lv, li)
			lvals = append(lvals, values[i])
		}
	}
	return lv, lvals
}

// refProb is the per-block walk of Prob.
func refProb(c *Compiled, members, values []int) float64 {
	locals := refLocals(c)
	res := c.a0
	for bi := range c.blocks {
		b := &c.blocks[bi]
		if lv, lvals := refLocalPins(locals[bi], members, values); len(lv) == 0 {
			res *= b.sum
		} else {
			res *= b.eng.SumPinned(lv, lvals)
		}
	}
	return res
}

// refResidual is Model.Residual over the per-block walk of
// constraintRatio.
func refResidual(m *Model, c *Compiled) float64 {
	locals := refLocals(c)
	worst := 0.0
	for _, cons := range m.cons {
		members := cons.Family.Members()
		ratio := 1.0
		for bi := range c.blocks {
			b := &c.blocks[bi]
			if lv, lvals := refLocalPins(locals[bi], members, cons.Values); len(lv) > 0 {
				ratio *= b.eng.SumPinned(lv, lvals) / b.sum
			}
		}
		if d := math.Abs(ratio - cons.Target); d > worst {
			worst = d
		}
	}
	return worst
}

// randomFactoredModel fits a random model over 7-10 attributes of
// cardinality 2 or 3 whose order-2 and order-3 families chain attributes
// into blocks of up to four members, under a dense-model threshold low
// enough that it compiles in factored mode. Targets come from one sampled
// table, so they are consistent.
func randomFactoredModel(t *testing.T, rng *rand.Rand) *Model {
	t.Helper()
	r := 7 + rng.Intn(4)
	cards := make([]int, r)
	for i := range cards {
		cards[i] = 2 + rng.Intn(2)
	}
	tab := contingency.MustNew(nil, cards)
	cell := make([]int, r)
	for n := 0; n < 3000; n++ {
		for i := range cell {
			cell[i] = rng.Intn(cards[i])
			if i > 0 && rng.Float64() < 0.4 {
				cell[i] = cell[i-1] % cards[i]
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
	for k := 2 + rng.Intn(4); k > 0; k-- {
		members := rng.Perm(r)[:2+rng.Intn(2)]
		fam := contingency.NewVarSet(members...)
		members = fam.Members()
		probe := m.Clone()
		values := make([]int, len(members))
		for i, p := range members {
			values[i] = rng.Intn(cards[p])
		}
		if probe.HasConstraint(fam, values) {
			continue
		}
		count, err := tab.MarginalCount(fam, values)
		if err != nil {
			t.Fatal(err)
		}
		if count == 0 {
			continue
		}
		con := Constraint{Family: fam, Values: values, Target: float64(count) / float64(tab.Total())}
		if err := probe.AddConstraint(con); err != nil {
			t.Fatal(err)
		}
		tooDense := false
		for _, blk := range probe.blocks() {
			if err := probe.checkBlockSize(blk); err != nil {
				tooDense = true
			}
		}
		if !tooDense {
			m = probe
		}
	}
	if _, err := m.Fit(SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	return m
}

// sameBits reports whether two probability slices agree bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestFactoredEngineMatchesPerBlockWalk requires Marginal, MarginalGiven,
// Prob and Residual of random factored models, fitted and restored from a
// snapshot, to equal the per-block walks bit for bit: over families that
// span one to three blocks, pins only in blocks the family does not touch,
// pins inside touched blocks, and fixed slices shorter than R.
func TestFactoredEngineMatchesPerBlockWalk(t *testing.T) {
	forceFactored(t, 64)
	rng := rand.New(rand.NewSource(2027))
	spans := map[int]int{}
	pinKinds := map[string]int{}
	for model := 0; model < 24; model++ {
		fitted := randomFactoredModel(t, rng)
		st, err := fitted.Export()
		if err != nil {
			t.Fatal(err)
		}
		restored, err := RestoreModel(st)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []*Model{fitted, restored} {
			c, err := m.Compile()
			if err != nil {
				t.Fatal(err)
			}
			if !c.Factored() {
				t.Fatalf("model %d over %v did not compile in factored mode", model, m.cards)
			}
			r := m.R()
			for q := 0; q < 40; q++ {
				perm := rng.Perm(r)
				members := contingency.NewVarSet(perm[:1+rng.Intn(3)]...).Members()
				vs := contingency.NewVarSet(members...)
				blocks := map[int]bool{}
				for _, p := range members {
					blocks[c.blockOf[p]] = true
				}
				spans[len(blocks)]++

				got, err := c.Marginal(vs)
				if err != nil {
					t.Fatal(err)
				}
				want, err := refFactoredMarginal(c, members, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(got, want) {
					t.Fatalf("model %d: Marginal(%v) = %v, per-block walk %v", model, members, got, want)
				}

				// Pins on non-members, in a fixed slice that may stop
				// short of R.
				fixed := make([]int, rng.Intn(r+1))
				kind := "none"
				for v := range fixed {
					fixed[v] = -1
					if !vs.Has(v) && rng.Float64() < 0.3 {
						fixed[v] = rng.Intn(m.cards[v])
						if blocks[c.blockOf[v]] {
							kind = "touched"
						} else if kind == "none" {
							kind = "untouched"
						}
					}
				}
				if len(fixed) < r {
					pinKinds["short"]++
				}
				pinKinds[kind]++
				got, err = c.MarginalGiven(vs, fixed)
				if err != nil {
					t.Fatal(err)
				}
				want, err = refFactoredMarginal(c, members, fixed)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(got, want) {
					t.Fatalf("model %d: MarginalGiven(%v, %v) = %v, per-block walk %v", model, members, fixed, got, want)
				}

				values := make([]int, len(members))
				for i, p := range members {
					values[i] = rng.Intn(m.cards[p])
				}
				p, err := c.Prob(vs, values)
				if err != nil {
					t.Fatal(err)
				}
				if wp := refProb(c, members, values); math.Float64bits(p) != math.Float64bits(wp) {
					t.Fatalf("model %d: Prob(%v=%v) = %v, per-block walk %v", model, members, values, p, wp)
				}
			}
			res, err := m.Residual()
			if err != nil {
				t.Fatal(err)
			}
			if want := refResidual(m, c); math.Float64bits(res) != math.Float64bits(want) {
				t.Fatalf("model %d: Residual = %v, per-block walk %v", model, res, want)
			}
		}
	}
	for span := 1; span <= 3; span++ {
		if spans[span] == 0 {
			t.Errorf("no queried family spans %d blocks (spans %v)", span, spans)
		}
	}
	for _, kind := range []string{"untouched", "touched", "short"} {
		if pinKinds[kind] == 0 {
			t.Errorf("no query with %s pins (kinds %v)", kind, pinKinds)
		}
	}
	t.Logf("block spans %v, pin kinds %v", spans, pinKinds)
}
