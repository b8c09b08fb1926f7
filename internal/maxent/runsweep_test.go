package maxent

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pka/internal/contingency"
)

// refState is the per-offset reference for the dense solver: one flat
// joint offset per matched cell, family coefficients looked up in the map
// for every cell and every update — the bookkeeping the run-length solver
// replaced. The run sweeps must reproduce it bit for bit.
type refState struct {
	m     *Model
	w     []float64
	sumW  float64
	match [][]int
	order []int
}

func newRefState(m *Model) *refState {
	size := m.NumCells()
	s := &refState{m: m, w: make([]float64, size), match: make([][]int, len(m.cons))}
	strides := make([]int, len(m.cards))
	stride := 1
	for i := len(m.cards) - 1; i >= 0; i-- {
		strides[i] = stride
		stride *= m.cards[i]
	}
	famOrder := m.sortedFamilyTerms()
	cell := make([]int, len(m.cards))
	for off := 0; off < size; off++ {
		rem := off
		for i := len(m.cards) - 1; i >= 0; i-- {
			cell[i] = rem % m.cards[i]
			rem /= m.cards[i]
		}
		p := 1.0
		for _, ft := range famOrder {
			fo := 0
			for _, pos := range ft.vars {
				fo = fo*m.cards[pos] + cell[pos]
			}
			p *= ft.coeffs[fo]
		}
		s.w[off] = p
		s.sumW += p
	}
	for i, c := range m.cons {
		// Every joint offset whose coordinates agree with the family cell,
		// in ascending order.
		for off := 0; off < size; off++ {
			ok := true
			for j, p := range c.Family.Members() {
				if (off/strides[p])%m.cards[p] != c.Values[j] {
					ok = false
					break
				}
			}
			if ok {
				s.match[i] = append(s.match[i], off)
			}
		}
	}
	for i, c := range m.cons {
		if c.Target == 0 {
			s.order = append(s.order, i)
		}
	}
	for i, c := range m.cons {
		if c.Target != 0 {
			s.order = append(s.order, i)
		}
	}
	return s
}

func (s *refState) coeff(c Constraint) *float64 {
	ft := s.m.families[c.Family]
	return &ft.coeffs[ft.offset(s.m.cards, c.Values)]
}

func (s *refState) recomputeSum() {
	total := 0.0
	for _, v := range s.w {
		total += v
	}
	s.sumW = total
}

func (s *refState) sweepGaussSeidel() (float64, error) {
	maxResid := 0.0
	for _, ci := range s.order {
		c := s.m.cons[ci]
		var matchSum float64
		for _, off := range s.match[ci] {
			matchSum += s.w[off]
		}
		q := matchSum / s.sumW
		if d := math.Abs(q - c.Target); d > maxResid {
			maxResid = d
		}
		f, g, err := updateFactors(q, c, s.m.names)
		if err != nil {
			return 0, err
		}
		if f == 1 && g == 1 {
			continue
		}
		odds := f / g
		*s.coeff(c) *= odds
		newMatch := 0.0
		for _, off := range s.match[ci] {
			s.w[off] *= odds
			newMatch += s.w[off]
		}
		s.sumW += newMatch - matchSum
	}
	s.recomputeSum()
	return maxResid, nil
}

// refFit is solve's sweep loop over the reference state; opts must
// already carry its defaults.
func refFit(m *Model, opts SolveOptions) (*Report, error) {
	var err error
	s := newRefState(m)
	rep := &Report{}
	for sweep := 1; sweep <= opts.MaxSweeps; sweep++ {
		var resid float64
		resid, err = s.sweepGaussSeidel()
		if err != nil {
			return nil, err
		}
		rep.Sweeps, rep.Residual = sweep, resid
		if resid < opts.Tol {
			rep.Converged = true
			break
		}
	}
	m.a0 = 1 / s.sumW
	return rep, nil
}

// randomDenseModel draws a positive joint over random cardinalities, zeroes
// one family cell of it, and constrains the model to that joint's
// marginals: every first-order cell but each attribute's last (the first
// attribute's constraints are one long run each, the last attribute's runs
// have length 1), and likewise the cells of a few higher-order families,
// two of which contain the last attribute. The zeroed cell becomes a
// zero-target constraint.
func randomDenseModel(t *testing.T, rng *rand.Rand) *Model {
	t.Helper()
	r := 4 + rng.Intn(3)
	cards := make([]int, r)
	for i := range cards {
		cards[i] = 2 + rng.Intn(2)
	}
	m, err := NewModel(nil, cards)
	if err != nil {
		t.Fatal(err)
	}
	joint := make([]float64, m.NumCells())
	for i := range joint {
		joint[i] = 0.2 + rng.Float64()
	}
	strides := make([]int, r)
	stride := 1
	for i := r - 1; i >= 0; i-- {
		strides[i] = stride
		stride *= cards[i]
	}
	valueAt := func(off, v int) int { return (off / strides[v]) % cards[v] }
	families := []contingency.VarSet{
		contingency.NewVarSet(0, 1),
		contingency.NewVarSet(r-2, r-1),
		contingency.NewVarSet(0, r/2, r-1),
	}
	for k := 0; k < 2; k++ {
		a, b := rng.Intn(r), rng.Intn(r)
		if a != b {
			families = append(families, contingency.NewVarSet(a, b))
		}
	}
	// Zero out one cell of the first pair family: a zero-target constraint.
	zv := []int{rng.Intn(cards[0]), rng.Intn(cards[1])}
	for off := range joint {
		if valueAt(off, 0) == zv[0] && valueAt(off, 1) == zv[1] {
			joint[off] = 0
		}
	}
	total := 0.0
	for _, p := range joint {
		total += p
	}
	seen := map[contingency.VarSet]bool{}
	var fams []contingency.VarSet
	for v := 0; v < r; v++ {
		fams = append(fams, contingency.NewVarSet(v))
	}
	fams = append(fams, families...)
	for _, fam := range fams {
		if seen[fam] {
			continue
		}
		seen[fam] = true
		members := fam.Members()
		values := make([]int, len(members))
		for {
			mass := 0.0
			for off, p := range joint {
				ok := true
				for i, v := range members {
					if valueAt(off, v) != values[i] {
						ok = false
						break
					}
				}
				if ok {
					mass += p
				}
			}
			cell := append([]int(nil), values...)
			i := len(values) - 1
			for i >= 0 {
				values[i]++
				if values[i] < cards[members[i]] {
					break
				}
				values[i] = 0
				i--
			}
			if i < 0 {
				break // the family's last cell stays free
			}
			if err := m.AddConstraint(Constraint{Family: fam, Values: cell, Target: mass / total}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return m
}

// TestRunSweepsMatchPerOffsetReference fits random dense models with the
// run-length solver and with the per-offset reference, and requires
// bit-identical coefficients, a0 and report.
func TestRunSweepsMatchPerOffsetReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	opts, err := SolveOptions{MaxSweeps: 300}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	fits := 0
	for trial := 0; trial < 12; trial++ {
		base := randomDenseModel(t, rng)
		label := fmt.Sprintf("trial %d cards %v", trial, base.cards)
		got, want := base.Clone(), base.Clone()
		if !sameFit(t, got, want, opts, label) {
			continue
		}
		fits++
		// A refit after a retarget starts from the fitted coefficients,
		// so the initial weights are no longer all ones.
		last := got.cons[len(got.cons)-1]
		for _, m := range []*Model{got, want} {
			if err := m.SetTarget(last.Family, last.Values, last.Target*0.9); err != nil {
				t.Fatal(err)
			}
		}
		sameFit(t, got, want, opts, label+" refit")
	}
	if fits < 6 {
		t.Errorf("only %d of 12 fits ran without error", fits)
	}
}

// sameFit fits got with the run-length solver and want with the reference
// and requires the same error, or bit-identical reports, coefficients and
// a0. It reports whether the fits succeeded.
func sameFit(t *testing.T, got, want *Model, opts SolveOptions, label string) bool {
	t.Helper()
	rep, err := got.fitDense(opts)
	wantRep, wantErr := refFit(want, opts)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, reference %v", label, err, wantErr)
	}
	if err != nil {
		t.Logf("%s: %v", label, err)
		return false
	}
	requireSameReport(t, wantRep, rep, label)
	requireBitIdentical(t, want, got, label)
	return true
}

// TestMatchingRunsCoverFamilyCell checks the run bookkeeping directly: the
// runs of every constraint expand to exactly the ascending offsets whose
// coordinates agree with its family cell.
func TestMatchingRunsCoverFamilyCell(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 6; trial++ {
		m := randomDenseModel(t, rng)
		s := newSolverState(m.wholeView(), m.cons, m.names)
		ref := newRefState(m)
		for i, c := range m.cons {
			var got []int
			for _, st := range s.runs[i].starts {
				for k := 0; k < s.runs[i].n; k++ {
					got = append(got, st+k)
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(ref.match[i]) {
				t.Fatalf("cards %v constraint %s: runs cover %v, want %v", m.cards, c.Label(m.names), got, ref.match[i])
			}
		}
		for off := range s.w {
			if math.Float64bits(s.w[off]) != math.Float64bits(ref.w[off]) {
				t.Fatalf("cards %v: initial weight %d = %v, reference %v", m.cards, off, s.w[off], ref.w[off])
			}
		}
	}
}
