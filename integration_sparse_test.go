package pka_test

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"pka"
	"pka/internal/contingency"
	"pka/internal/dataset"
	"pka/internal/paperdata"
	"pka/internal/stats"
)

// TestIntegrationWideSparsePipeline exercises the wide-schema workflow end
// to end: 24 binary attributes (dense space 16.7M cells) are tabulated
// sparsely and discovery runs on the sparse table directly — screened,
// factored, and without ever materializing the joint space.
func TestIntegrationWideSparsePipeline(t *testing.T) {
	const r = 24
	attrs := make([]pka.Attribute, r)
	for i := range attrs {
		attrs[i] = pka.Attribute{
			Name:   attrName(i),
			Values: []string{"lo", "hi"},
		}
	}
	schema, err := pka.NewSchema(attrs)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := pka.NewSparseTable(schema)
	if err != nil {
		t.Fatal(err)
	}
	// Generate records where attribute 3 drives attribute 17 strongly and
	// everything else is independent noise.
	rng := stats.NewRNG(404)
	cell := make([]int, r)
	const n = 30000
	for s := 0; s < n; s++ {
		for i := range cell {
			cell[i] = rng.Intn(2)
		}
		if rng.Float64() < 0.85 {
			cell[17] = cell[3]
		}
		if err := sparse.Observe(cell...); err != nil {
			t.Fatal(err)
		}
	}
	if sparse.Total() != n {
		t.Fatalf("sparse total = %d", sparse.Total())
	}

	// Discovery runs on the full 24-attribute table: the association
	// screen bounds the order-2 scan to the pairs that associate.
	model, err := pka.DiscoverSparse(sparse, schema, pka.Options{
		MaxOrder:    2,
		ScreenPairs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := model.Screen()
	if rep == nil {
		t.Fatal("no screen report despite ScreenPairs")
	}
	if rep.PairsTotal != r*(r-1)/2 {
		t.Errorf("screen surveyed %d pairs, want %d", rep.PairsTotal, r*(r-1)/2)
	}
	if rep.PairsKept < 1 || rep.PairsKept > 5 {
		t.Errorf("screen kept %d pairs, want the planted coupling and little else", rep.PairsKept)
	}

	// The 3↔17 coupling must be found, and nothing else.
	want := contingency.NewVarSet(3, 17)
	found := false
	for _, f := range model.Findings() {
		if f.Order != 2 {
			continue
		}
		if f.Test.Family != want {
			t.Errorf("spurious family %v", f.Test.Family)
			continue
		}
		found = true
	}
	if !found {
		t.Error("planted coupling not found by sparse discovery")
	}
	// And the conditional strength is recovered, queried on the full
	// 24-attribute model: P(a17=hi | a3=hi) ≈ 0.85 + 0.15·0.5 = 0.925.
	p, err := model.Conditional(
		[]pka.Assignment{{Attr: attrName(17), Value: "hi"}},
		[]pka.Assignment{{Attr: attrName(3), Value: "hi"}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.925) > 0.02 {
		t.Errorf("P(17=hi|3=hi) = %.3f, want ≈0.925", p)
	}
	// Holdout-style validation also runs sparsely.
	loss, err := model.LogLoss(sparse)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(loss, 1) || loss <= 0 {
		t.Errorf("sparse log loss = %v", loss)
	}
}

func attrName(i int) string {
	return "SENSOR_" + string(rune('A'+i))
}

// TestIntegrationSparseVsDenseAgreement: on a space small enough for both,
// the sparse-projection path and the direct dense path find identical
// structure.
func TestIntegrationSparseVsDenseAgreement(t *testing.T) {
	schema := dataset.MustSchema([]dataset.Attribute{
		{Name: "X", Values: []string{"0", "1"}},
		{Name: "Y", Values: []string{"0", "1", "2"}},
		{Name: "Z", Values: []string{"0", "1"}},
	})
	d := dataset.NewDataset(schema)
	rng := stats.NewRNG(7)
	for s := 0; s < 5000; s++ {
		x := rng.Intn(2)
		y := rng.Intn(3)
		z := x
		if rng.Float64() < 0.2 {
			z = 1 - x
		}
		if err := d.Append(dataset.Record{x, y, z}); err != nil {
			t.Fatal(err)
		}
	}
	dense, err := d.Tabulate()
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := d.TabulateSparse()
	if err != nil {
		t.Fatal(err)
	}
	fromSparse, err := sparse.ToDense()
	if err != nil {
		t.Fatal(err)
	}
	mDense, err := pka.DiscoverTable(dense, schema, pka.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mSparse, err := pka.DiscoverTable(fromSparse, schema, pka.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fd, fs := mDense.Findings(), mSparse.Findings()
	if len(fd) != len(fs) {
		t.Fatalf("dense found %d, sparse-path %d", len(fd), len(fs))
	}
	for i := range fd {
		if fd[i].Test.Family != fs[i].Test.Family || fd[i].Test.Delta != fs[i].Test.Delta {
			t.Errorf("finding %d differs between paths", i)
		}
	}
}

// TestDiscoverSparseDenseBitIdentical is the equivalence guarantee of the
// new path: with screening off, DiscoverSparse on FromDense(table) must
// reproduce dense Discover on the same counts bit for bit — every finding
// (statistics included) and every query answer.
func TestDiscoverSparseDenseBitIdentical(t *testing.T) {
	run := func(t *testing.T, table *pka.Table, schema *pka.Schema) {
		t.Helper()
		sp, err := contingency.FromDense(table)
		if err != nil {
			t.Fatal(err)
		}
		mDense, err := pka.DiscoverTable(table, schema, pka.Options{})
		if err != nil {
			t.Fatal(err)
		}
		mSparse, err := pka.DiscoverSparse(sp, schema, pka.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(mDense.Findings(), mSparse.Findings()) {
			t.Errorf("findings differ:\ndense:  %+v\nsparse: %+v",
				mDense.Findings(), mSparse.Findings())
		}
		// Every full-joint cell probability must agree exactly.
		r := schema.R()
		assign := make([]pka.Assignment, r)
		var walk func(i int)
		walk = func(i int) {
			if i == r {
				pd, err := mDense.Probability(assign...)
				if err != nil {
					t.Fatal(err)
				}
				ps, err := mSparse.Probability(assign...)
				if err != nil {
					t.Fatal(err)
				}
				if pd != ps {
					t.Errorf("P(%v) = %v dense, %v sparse", assign, pd, ps)
				}
				return
			}
			a := schema.Attr(i)
			for _, v := range a.Values {
				assign[i] = pka.Assignment{Attr: a.Name, Value: v}
				walk(i + 1)
			}
		}
		walk(0)
	}

	t.Run("memo", func(t *testing.T) {
		run(t, paperdata.Table(), paperdata.Schema())
	})

	t.Run("random", func(t *testing.T) {
		schema := dataset.MustSchema([]dataset.Attribute{
			{Name: "A", Values: []string{"0", "1"}},
			{Name: "B", Values: []string{"0", "1", "2"}},
			{Name: "C", Values: []string{"0", "1"}},
			{Name: "D", Values: []string{"0", "1"}},
		})
		d := dataset.NewDataset(schema)
		rng := stats.NewRNG(11)
		for s := 0; s < 8000; s++ {
			a := rng.Intn(2)
			b := rng.Intn(3)
			c := a
			if rng.Float64() < 0.25 {
				c = 1 - a
			}
			dd := rng.Intn(2)
			if b == 2 && rng.Float64() < 0.6 {
				dd = 1
			}
			if err := d.Append(dataset.Record{a, b, c, dd}); err != nil {
				t.Fatal(err)
			}
		}
		table, err := d.Tabulate()
		if err != nil {
			t.Fatal(err)
		}
		run(t, table, schema)
	})
}

// TestSaveLoadQueryPropertyRoundTrip asserts a discovered Model and its
// re-Loaded QueryModel answer identical Probability, Conditional,
// Distribution, and MPE queries across a randomized battery — the
// serialized coefficients must round-trip exactly.
func TestSaveLoadQueryPropertyRoundTrip(t *testing.T) {
	model, err := pka.DiscoverTable(paperdata.Table(), paperdata.Schema(), pka.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := pka.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	schema := model.Schema()
	r := schema.R()
	rng := stats.NewRNG(1234)
	randomAssign := func(positions []int) []pka.Assignment {
		out := make([]pka.Assignment, len(positions))
		for i, p := range positions {
			a := schema.Attr(p)
			out[i] = pka.Assignment{Attr: a.Name, Value: a.Values[rng.Intn(len(a.Values))]}
		}
		return out
	}
	randomSubset := func() []int {
		var out []int
		for p := 0; p < r; p++ {
			if rng.Float64() < 0.5 {
				out = append(out, p)
			}
		}
		if len(out) == 0 {
			out = append(out, rng.Intn(r))
		}
		return out
	}

	for iter := 0; iter < 200; iter++ {
		// Probability over a random partial assignment.
		sub := randomSubset()
		assigns := randomAssign(sub)
		want, err := model.Probability(assigns...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Probability(assigns...)
		if err != nil {
			t.Fatal(err)
		}
		if want != got {
			t.Fatalf("iter %d: Probability(%v) = %v loaded, %v original", iter, assigns, got, want)
		}

		// Conditional: split the assignment into target | given.
		if len(assigns) >= 2 {
			cut := 1 + rng.Intn(len(assigns)-1)
			target, given := assigns[:cut], assigns[cut:]
			want, err := model.Conditional(target, given)
			if err == nil {
				got, err := loaded.Conditional(target, given)
				if err != nil {
					t.Fatal(err)
				}
				if want != got {
					t.Fatalf("iter %d: Conditional(%v|%v) = %v loaded, %v original",
						iter, target, given, got, want)
				}
			}
		}

		// Distribution of a random attribute given a random other one.
		attr := schema.Attr(rng.Intn(r)).Name
		var given []pka.Assignment
		if p := rng.Intn(r); schema.Attr(p).Name != attr {
			given = randomAssign([]int{p})
		}
		wantDist, err := model.Distribution(attr, given...)
		if err != nil {
			t.Fatal(err)
		}
		gotDist, err := loaded.Distribution(attr, given...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantDist, gotDist) {
			t.Fatalf("iter %d: Distribution(%s|%v) = %v loaded, %v original",
				iter, attr, given, gotDist, wantDist)
		}

		// MPE given a random single assignment.
		ev := randomAssign([]int{rng.Intn(r)})
		wantMPE, err := model.MostProbableExplanation(ev...)
		if err != nil {
			t.Fatal(err)
		}
		gotMPE, err := loaded.MostProbableExplanation(ev...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantMPE, gotMPE) {
			t.Fatalf("iter %d: MPE(%v) = %+v loaded, %+v original", iter, ev, gotMPE, wantMPE)
		}
	}
}
