package sumprod

import (
	"math/rand"
	"testing"
)

// randomShape draws 1..maxR cardinalities in 1..4, shrinking the draws so
// the joint space stays at most maxSize cells.
func randomShape(rng *rand.Rand, maxR, maxSize int) []int {
	r := 1 + rng.Intn(maxR)
	cards := make([]int, r)
	size := 1
	for v := range cards {
		card := 1 + rng.Intn(4)
		for card > 1 && size*card > maxSize {
			card--
		}
		cards[v] = card
		size *= card
	}
	return cards
}

// randomFamilies draws n ascending families of orders 1..4 over r
// attributes; about half of them keep the last attribute, and every
// fifth repeats an earlier draw.
func randomFamilies(rng *rand.Rand, r, n int) [][]int {
	var fams [][]int
	for len(fams) < n {
		if len(fams) > 0 && len(fams)%5 == 4 {
			fams = append(fams, fams[rng.Intn(len(fams))])
			continue
		}
		order := 1 + rng.Intn(min(4, r))
		keep := make([]bool, r)
		if rng.Intn(2) == 0 {
			keep[r-1] = true
		}
		for picked := 0; picked < order; {
			v := rng.Intn(r)
			if picked == 0 && keep[r-1] {
				picked++
				continue
			}
			if !keep[v] {
				keep[v] = true
				picked++
			}
		}
		var fam []int
		for v, k := range keep {
			if k {
				fam = append(fam, v)
			}
		}
		fams = append(fams, fam)
	}
	return fams
}

// checkMarginals asserts that Marginals(fams) equals Marginal of every
// family with ==. The batch runs before any Marginal, so on a cold engine
// it builds the shared suffix.
func checkMarginals(t *testing.T, ce *Compiled, fams [][]int, label string) {
	t.Helper()
	got, err := ce.Marginals(fams)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(got) != len(fams) {
		t.Fatalf("%s: %d results for %d families", label, len(got), len(fams))
	}
	for i, fam := range fams {
		want, err := ce.Marginal(fam)
		if err != nil {
			t.Fatal(err)
		}
		if len(got[i]) != len(want) {
			t.Fatalf("%s family %v: %d cells, Marginal %d", label, fam, len(got[i]), len(want))
		}
		for j := range want {
			if got[i][j] != want[j] {
				t.Fatalf("%s family %v cell %d: batch %x, Marginal %x", label, fam, j, got[i][j], want[j])
			}
		}
	}
}

// TestMarginalsMatchMarginal: on random engines of 1-14 attributes with
// cardinalities 1-4, every entry of one Marginals call over families of
// orders 1-4 — with and without the last attribute, with duplicates —
// equals Marginal with ==, on a cold engine (the walk builds the shared
// suffix) and a warm one. Every family of orders 1-3 runs too, since the deepest tries
// show sibling subtrees of each shape. A batch that keeps the last
// attribute in every family leaves the suffix unbuilt.
func TestMarginalsMatchMarginal(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		cards := randomShape(rng, 14, 1<<12)
		r := len(cards)
		_, ce := randomEngine(t, rng, cards)
		fams := randomFamilies(rng, r, 1+rng.Intn(40))
		checkMarginals(t, ce, fams, "cold")
		checkMarginals(t, ce, fams, "warm")
		var all [][]int
		for _, order := range []int{1, 2, 3} {
			all = append(all, combinations(r, order)...)
		}
		checkMarginals(t, ce, all, "every order 1-3")

		_, fresh := randomEngine(t, rng, cards)
		var withLast [][]int
		for _, fam := range fams {
			if fam[len(fam)-1] == r-1 {
				withLast = append(withLast, fam)
			}
		}
		if len(withLast) == 0 {
			continue
		}
		checkMarginals(t, fresh, withLast, "last attribute kept")
		if r > 1 && suffixBuilt(fresh) {
			t.Fatalf("cards %v: a batch keeping the last attribute built the suffix", cards)
		}
	}
	_, ce := randomEngine(t, rng, []int{2, 3, 2})
	got, err := ce.Marginals(nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty batch = %v, %v", got, err)
	}
}

// TestMarginalsInvalidFamilies: a batch holding an invalid family fails
// with the error Marginal gives for that family, whatever valid families
// surround it.
func TestMarginalsInvalidFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	_, ce := randomEngine(t, rng, []int{2, 3, 2, 4})
	for _, bad := range [][]int{{}, {2, 1}, {1, 1}, {0, 4}, {-1, 2}, {0, 2, 2, 3}} {
		_, want := ce.Marginal(bad)
		if want == nil {
			t.Fatalf("Marginal(%v) accepted an invalid family", bad)
		}
		_, err := ce.Marginals([][]int{{0, 1}, bad, {3}})
		if err == nil || err.Error() != want.Error() {
			t.Errorf("Marginals with %v: error %v, Marginal's %v", bad, err, want)
		}
	}
}

// combinations lists every ascending r-subset of 0..n-1 in
// lexicographic order.
func combinations(n, r int) [][]int {
	var out [][]int
	cur := make([]int, 0, r)
	var rec func(start int)
	rec = func(start int) {
		if len(cur) == r {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for v := start; v < n; v++ {
			cur = append(cur, v)
			rec(v + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return out
}
