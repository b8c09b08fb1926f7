package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pka/internal/contingency"
	"pka/internal/maxent"
	"pka/internal/stats"
	"pka/internal/synth"
)

// corrRow draws one row over [3,2,2,3] with the block-structured
// correlations the factored tests use: attr 1 tracks attr 0, attr 3 tracks
// attr 2.
func corrRow(rng *rand.Rand, cell []int) {
	cell[0] = rng.Intn(3)
	cell[1] = cell[0] % 2
	if rng.Float64() < 0.3 {
		cell[1] = rng.Intn(2)
	}
	cell[2] = rng.Intn(2)
	cell[3] = cell[2]
	if rng.Float64() < 0.25 {
		cell[3] = rng.Intn(3)
	}
}

func corrRows(rng *rand.Rand, n int) [][]int {
	rows := make([][]int, n)
	for i := range rows {
		rows[i] = make([]int, 4)
		corrRow(rng, rows[i])
	}
	return rows
}

func sparseFrom(t *testing.T, rows [][]int) *contingency.Sparse {
	t.Helper()
	s, err := contingency.NewSparse(nil, []int{3, 2, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ObserveBatch(rows); err != nil {
		t.Fatal(err)
	}
	return s
}

func asDeltas(rows [][]int) []contingency.CellDelta {
	out := make([]contingency.CellDelta, len(rows))
	for i, r := range rows {
		out[i] = contingency.CellDelta{Cell: r, Delta: 1}
	}
	return out
}

// constraintKey identifies a constraint up to its target.
func constraintKey(c maxent.Constraint) string {
	return fmt.Sprintf("%v:%v", c.Family, c.Values)
}

// TestUpdateMatchesScratch drives K incremental batches through Update and
// checks the running model against a scratch DiscoverCounts on the full
// data after every batch: every joint cell probability within tolerance,
// and — whenever the constraint sets coincide — targets bit-identical.
func TestUpdateMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := corrRows(rng, 4000)
	table := sparseFrom(t, base)
	opts := Options{MaxOrder: 2}
	res, err := DiscoverCounts(table, opts)
	if err != nil {
		t.Fatal(err)
	}
	all := append([][]int(nil), base...)

	for batch := 0; batch < 4; batch++ {
		delta := corrRows(rng, 40)
		all = append(all, delta...)
		if err := table.ObserveBatch(delta); err != nil {
			t.Fatal(err)
		}
		out, err := Update(res, table, asDeltas(delta), opts)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if !out.Refit {
			t.Fatalf("batch %d: a row batch must refit", batch)
		}
		res = out.Result

		scratch, err := DiscoverCounts(sparseFrom(t, all), opts)
		if err != nil {
			t.Fatal(err)
		}

		// Constraint-set comparison.
		upd := make(map[string]float64)
		for _, c := range res.Model.Constraints() {
			upd[constraintKey(c)] = c.Target
		}
		same := len(upd) == scratch.Model.NumConstraints()
		for _, c := range scratch.Model.Constraints() {
			target, ok := upd[constraintKey(c)]
			if !ok {
				same = false
				continue
			}
			if same && target != c.Target {
				t.Errorf("batch %d: constraint %s target %g (update) vs %g (scratch)",
					batch, c.Label(res.Model.Names()), target, c.Target)
			}
		}
		if !same {
			t.Logf("batch %d: constraint sets diverged (update %d, scratch %d) — tolerance check only",
				batch, len(upd), scratch.Model.NumConstraints())
		}

		ju, err := res.Model.Joint()
		if err != nil {
			t.Fatal(err)
		}
		js, err := scratch.Model.Joint()
		if err != nil {
			t.Fatal(err)
		}
		for i := range ju {
			if math.Abs(ju[i]-js[i]) > 1e-3 {
				t.Fatalf("batch %d: joint cell %d: update %.8f vs scratch %.8f",
					batch, i, ju[i], js[i])
			}
		}
	}
}

// TestUpdateNoOpDeltaKeepsResult: a delta whose net effect is zero must
// return the previous result untouched — the bit-identity half of the
// incremental contract.
func TestUpdateNoOpDeltaKeepsResult(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	table := sparseFrom(t, corrRows(rng, 2000))
	res, err := DiscoverCounts(table, Options{MaxOrder: 2})
	if err != nil {
		t.Fatal(err)
	}
	deltas := []contingency.CellDelta{
		{Cell: []int{0, 0, 0, 0}, Delta: 3},
		{Cell: []int{0, 0, 0, 0}, Delta: -3},
	}
	// Net-zero: nothing applied to the table either.
	out, err := Update(res, table, deltas, Options{MaxOrder: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.Refit || out.Rediscovered || out.Retargeted != 0 || out.Added != 0 {
		t.Errorf("no-op delta produced work: %+v", out)
	}
	if out.Result != res {
		t.Error("no-op delta must return the previous result pointer")
	}
}

// TestUpdateImpliedZeroGainingSupportRediscovers: observing a cell the
// model pinned to zero is a structural change; Update must fall back to a
// full rediscovery that writes the same model bytes as a scratch run. The
// factored case checks that the fallback re-solves every block, as
// scratch discovery does, rather than keeping blocks an incremental refit
// would call clean.
func TestUpdateImpliedZeroGainingSupportRediscovers(t *testing.T) {
	cases := []struct {
		name string
		rows [][]int
		opts Options
	}{
		// Two perfectly correlated binary attributes.
		{"dense", func() [][]int {
			var rows [][]int
			for i := 0; i < 120; i++ {
				rows = append(rows, []int{i % 2, i % 2})
			}
			return rows
		}(), Options{}},
		// 22 binary attributes, the first two perfectly correlated.
		{"factored", dupColumnRows(200, 22, 7), Options{MaxOrder: 2}},
	}
	for _, tc := range cases {
		r := len(tc.rows[0])
		cards := make([]int, r)
		for i := range cards {
			cards[i] = 2
		}
		tab, err := contingency.NewSparse(nil, cards)
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.ObserveBatch(tc.rows); err != nil {
			t.Fatal(err)
		}
		res, err := DiscoverCounts(tab, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		// Discovery pins the off-diagonal cells of (0,1) to zero.
		if !res.Model.HasConstraint(contingency.NewVarSet(0, 1), []int{0, 1}) {
			t.Fatalf("%s setup: cell (0,1) not pinned to zero", tc.name)
		}

		delta := [][]int{make([]int, r)}
		delta[0][1] = 1
		if err := tab.ObserveBatch(delta); err != nil {
			t.Fatal(err)
		}
		out, err := Update(res, tab, asDeltas(delta), tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Rediscovered {
			t.Errorf("%s: implied-zero cell gaining support must force rediscovery", tc.name)
		}
		scratch, err := DiscoverCounts(tab, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(out.Result.Model)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(scratch.Model)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: rediscovered model JSON (%d bytes) differs from scratch (%d bytes)",
				tc.name, len(got), len(want))
		}
	}
}

// TestUpdateRejectsBadDeltas: coordinate validation happens before any
// model work.
func TestUpdateRejectsBadDeltas(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	table := sparseFrom(t, corrRows(rng, 1000))
	res, err := DiscoverCounts(table, Options{MaxOrder: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Update(res, table, []contingency.CellDelta{{Cell: []int{9, 0, 0, 0}, Delta: 1}}, Options{}); err == nil {
		t.Error("out-of-range delta accepted")
	}
	if _, err := Update(res, table, []contingency.CellDelta{{Cell: []int{0, 0}, Delta: 1}}, Options{}); err == nil {
		t.Error("short delta cell accepted")
	}
	if _, err := Update(nil, table, nil, Options{}); err == nil {
		t.Error("nil previous result accepted")
	}
}

// swapDeltas removes the first n rows and adds each back with every
// attribute from 2 on redrawn, so the delta has both signs and its net
// effect on the marginal of family {0, 1} (and of its subsets) is zero.
func swapDeltas(rng *rand.Rand, rows [][]int, cards []int, n int) []contingency.CellDelta {
	var out []contingency.CellDelta
	for _, row := range rows[:n] {
		moved := append([]int(nil), row...)
		for p := 2; p < len(moved); p++ {
			moved[p] = rng.Intn(cards[p])
		}
		out = append(out,
			contingency.CellDelta{Cell: row, Delta: -1},
			contingency.CellDelta{Cell: moved, Delta: 1})
	}
	return out
}

// TestMovedIndexMixedSigns: a delta whose additions and removals cancel
// on a family's marginal leaves that family unmoved and moves the others;
// a delta of one sign moves every family, and the per-family walk agrees
// with the shortcut that skips it.
func TestMovedIndexMixedSigns(t *testing.T) {
	cards := []int{3, 2, 2, 3}
	fams := contingency.NewVarSet(0, 1, 2, 3).Subsets()
	mixed, err := aggregateDeltas([]contingency.CellDelta{
		{Cell: []int{0, 1, 0, 0}, Delta: 1},
		{Cell: []int{0, 1, 1, 2}, Delta: -1},
	}, cards)
	if err != nil {
		t.Fatal(err)
	}
	mi := newMovedIndex(mixed)
	if mi.oneSign {
		t.Fatal("a +1/-1 delta was indexed as one-signed")
	}
	for _, vs := range fams {
		if vs.Len() == 0 {
			continue
		}
		want := vs.Has(2) || vs.Has(3)
		if got := mi.moved(vs); got != want {
			t.Errorf("family %v: moved = %v, want %v", vs.Members(), got, want)
		}
	}

	for _, sign := range []int64{1, -1} {
		rng := rand.New(rand.NewSource(9))
		var deltas []contingency.CellDelta
		for _, row := range corrRows(rng, 30) {
			deltas = append(deltas, contingency.CellDelta{Cell: row, Delta: sign * int64(1+rng.Intn(3))})
		}
		net, err := aggregateDeltas(deltas, cards)
		if err != nil {
			t.Fatal(err)
		}
		mi := newMovedIndex(net)
		if !mi.oneSign {
			t.Fatalf("sign %d: a one-signed delta was indexed as mixed", sign)
		}
		walk := &movedIndex{net: net, memo: make(map[contingency.VarSet]bool)}
		for _, vs := range fams {
			if vs.Len() == 0 {
				continue
			}
			if !mi.moved(vs) {
				t.Errorf("sign %d: family %v unmoved", sign, vs.Members())
			}
			if !walk.moved(vs) {
				t.Errorf("sign %d: the walk finds family %v unmoved", sign, vs.Members())
			}
		}
	}
}

// TestUpdateMixedSignDelta: an Update over a delta of both signs, which
// leaves the marginal of family {0, 1} where it was, walks the moved
// index per family. Its outcome and the SHA-256 of its model JSON are
// pinned to the values that walk gave before one-signed deltas skipped it:
// a dense four-attribute model, and an 80-attribute factored model behind
// the pair screen.
func TestUpdateMixedSignDelta(t *testing.T) {
	wide, err := synth.WidePairs(40, 3)
	if err != nil {
		t.Fatal(err)
	}
	bank, err := wide.SampleDataset(stats.NewRNG(77), 3000)
	if err != nil {
		t.Fatal(err)
	}
	wideRows := make([][]int, bank.Len())
	for i := range wideRows {
		wideRows[i] = bank.Record(i)
	}
	cases := []struct {
		name     string
		rows     [][]int
		cards    []int
		opts     Options
		want     UpdateOutcome
		findings int
		sha      string
	}{
		{"dense4", corrRows(rand.New(rand.NewSource(21)), 3000), []int{3, 2, 2, 3}, Options{MaxOrder: 2},
			UpdateOutcome{Retargeted: 7, Refit: true, FitSweeps: 50}, 3,
			"798129e9024d677f452e12767c8f07856ff4f6f6b81b6fb41536329f593f5dd5"},
		{"wide80", wideRows, wide.Schema().Cards(), Options{MaxOrder: 2, ScreenPairs: true},
			UpdateOutcome{Retargeted: 187, Refit: true, FitSweeps: 41, BlocksFit: 39, BlocksSkipped: 1}, 40,
			"21c82990985066b4d29cf0b8efdaa741960dda2c7617664962acbbfbd2f55322"},
	}
	for _, tc := range cases {
		table, err := contingency.NewSparse(nil, tc.cards)
		if err != nil {
			t.Fatal(err)
		}
		if err := table.ObserveBatch(tc.rows); err != nil {
			t.Fatal(err)
		}
		res, err := DiscoverCounts(table, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		deltas := swapDeltas(rand.New(rand.NewSource(22)), tc.rows, tc.cards, 60)
		if err := table.ApplyBatch(deltas); err != nil {
			t.Fatal(err)
		}
		out, err := Update(res, table, deltas, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(out.Result.Model)
		if err != nil {
			t.Fatal(err)
		}
		got := *out
		got.Result = nil
		sum := fmt.Sprintf("%x", sha256.Sum256(js))
		if got != tc.want || len(out.Result.Findings) != tc.findings || sum != tc.sha {
			t.Errorf("%s: outcome %+v, %d findings, model sha256 %s; want %+v, %d, %s",
				tc.name, got, len(out.Result.Findings), sum, tc.want, tc.findings, tc.sha)
		}
	}
}
