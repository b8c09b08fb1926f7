package contingency

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"
)

// memoTable builds the exact contingency table of the memo's Figure 1:
// axes A (smoking, 3 values), B (cancer, 2), C (family history, 2), N=3428.
func memoTable(t *testing.T) *Table {
	t.Helper()
	tab, err := New([]string{"A", "B", "C"}, []int{3, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	// counts[i][j][k]: Figure 1a is k=0 (family history yes),
	// Figure 1b is k=1 (no).
	data := [3][2][2]int64{
		{{130, 110}, {410, 640}},
		{{62, 31}, {580, 460}},
		{{78, 22}, {520, 385}},
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			for k := 0; k < 2; k++ {
				if err := tab.Set(data[i][j][k], i, j, k); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return tab
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Error("zero attributes accepted")
	}
	if _, err := New(nil, []int{2, 0}); err == nil {
		t.Error("zero cardinality accepted")
	}
	if _, err := New([]string{"x"}, []int{2, 2}); err == nil {
		t.Error("name/card mismatch accepted")
	}
	if _, err := New(nil, []int{1 << 15, 1 << 15}); err == nil {
		t.Error("oversized table accepted")
	}
	tab, err := New(nil, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Name(0) != "v0" || tab.Name(1) != "v1" {
		t.Errorf("default names = %v", tab.Names())
	}
}

func TestMemoTableTotals(t *testing.T) {
	tab := memoTable(t)
	if tab.Total() != 3428 {
		t.Fatalf("N = %d, memo says 3428", tab.Total())
	}
	if tab.NumCells() != 12 {
		t.Errorf("cells = %d, want 12", tab.NumCells())
	}
	// Spot check the memo's highlighted cell: N^ABC_121 = 410
	// (smoker, no cancer, family history yes).
	if v := tab.MustAt(0, 1, 0); v != 410 {
		t.Errorf("N_121 = %d, memo says 410", v)
	}
	if err := tab.CheckConsistency(); err != nil {
		t.Error(err)
	}
}

func TestSetAddObserve(t *testing.T) {
	tab := MustNew(nil, []int{2, 2})
	if err := tab.Observe(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := tab.Add(4, 0, 1); err != nil {
		t.Fatal(err)
	}
	if v := tab.MustAt(0, 1); v != 5 {
		t.Errorf("count = %d, want 5", v)
	}
	if tab.Total() != 5 {
		t.Errorf("total = %d, want 5", tab.Total())
	}
	if err := tab.Set(2, 0, 1); err != nil {
		t.Fatal(err)
	}
	if tab.Total() != 2 {
		t.Errorf("total after Set = %d, want 2", tab.Total())
	}
	if err := tab.Add(-3, 0, 1); err == nil {
		t.Error("negative cell accepted")
	}
	if err := tab.Set(-1, 0, 1); err == nil {
		t.Error("negative Set accepted")
	}
}

func TestIndexValidation(t *testing.T) {
	tab := MustNew(nil, []int{2, 3})
	if _, err := tab.At(0); err == nil {
		t.Error("short tuple accepted")
	}
	if _, err := tab.At(0, 3); err == nil {
		t.Error("out-of-range coordinate accepted")
	}
	if _, err := tab.At(-1, 0); err == nil {
		t.Error("negative coordinate accepted")
	}
	if err := tab.Observe(2, 0); err == nil {
		t.Error("observe out of range accepted")
	}
}

func TestFlattenUnflattenRoundTrip(t *testing.T) {
	tab := MustNew(nil, []int{3, 2, 4})
	cell := make([]int, 3)
	for off := 0; off < tab.NumCells(); off++ {
		if err := tab.Unflatten(off, cell); err != nil {
			t.Fatal(err)
		}
		back, err := tab.offset(cell)
		if err != nil {
			t.Fatal(err)
		}
		if back != off {
			t.Fatalf("roundtrip %d -> %v -> %d", off, cell, back)
		}
	}
	if err := tab.Unflatten(-1, cell); err == nil {
		t.Error("negative flat index accepted")
	}
	if err := tab.Unflatten(tab.NumCells(), cell); err == nil {
		t.Error("past-end flat index accepted")
	}
	if err := tab.Unflatten(0, make([]int, 2)); err == nil {
		t.Error("short destination accepted")
	}
}

func TestEachCellVisitsAllOnce(t *testing.T) {
	tab := memoTable(t)
	visits := 0
	var sum int64
	tab.EachCell(func(cell []int, count int64) {
		visits++
		sum += count
	})
	if visits != 12 {
		t.Errorf("visited %d cells, want 12", visits)
	}
	if sum != 3428 {
		t.Errorf("cell sum %d, want 3428", sum)
	}
}

func TestCloneIndependence(t *testing.T) {
	tab := memoTable(t)
	cp := tab.Clone()
	if !tab.Equal(cp) {
		t.Fatal("clone not equal")
	}
	if err := cp.Add(1, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if tab.Equal(cp) {
		t.Error("mutating clone affected original (or Equal is broken)")
	}
	if tab.MustAt(0, 0, 0) != 130 {
		t.Error("original mutated")
	}
}

func TestProbabilitiesSumToOne(t *testing.T) {
	tab := memoTable(t)
	p, err := tab.Probabilities()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range p {
		sum += v
	}
	if sum < 0.999999 || sum > 1.000001 {
		t.Errorf("probabilities sum to %g", sum)
	}
	empty := MustNew(nil, []int{2})
	if _, err := empty.Probabilities(); err == nil {
		t.Error("empty table probabilities accepted")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tab := memoTable(t)
	data, err := json.Marshal(tab)
	if err != nil {
		t.Fatal(err)
	}
	var back Table
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !tab.Equal(&back) {
		t.Error("JSON round trip lost data")
	}
}

func TestJSONRejectsCorrupt(t *testing.T) {
	var tab Table
	cases := []string{
		`{"names":["a"],"cards":[2],"counts":[1,2,3]}`, // wrong count length
		`{"names":["a"],"cards":[2],"counts":[1,-1]}`,  // negative count
		`{"names":["a","b"],"cards":[2],"counts":[1,1]}`,
		`{"names":[],"cards":[],"counts":[]}`,
		`not json`,
	}
	for _, c := range cases {
		if err := json.Unmarshal([]byte(c), &tab); err == nil {
			t.Errorf("corrupt JSON accepted: %s", c)
		}
	}
}

func TestTableString(t *testing.T) {
	tab := memoTable(t)
	s := tab.String()
	if !strings.Contains(s, "N=3428") || !strings.Contains(s, "A:3") {
		t.Errorf("String = %q", s)
	}
}

func TestTotalInvariantProperty(t *testing.T) {
	// Any sequence of valid Set/Add operations keeps total == Σ cells.
	f := func(ops []struct {
		Cell  uint8
		Delta uint8
	}) bool {
		tab := MustNew(nil, []int{2, 3})
		for _, op := range ops {
			cell := make([]int, 2)
			tab.Unflatten(int(op.Cell)%tab.NumCells(), cell)
			tab.Add(int64(op.Delta), cell...)
		}
		return tab.CheckConsistency() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDenseFits: DenseFits is true exactly for the shapes New accepts.
// New is not called on the accepted shapes at the cell ceiling (big), so
// the test never allocates a table that large.
func TestDenseFits(t *testing.T) {
	binary := func(n int) []int {
		cards := make([]int, n)
		for i := range cards {
			cards[i] = 2
		}
		return cards
	}
	cases := []struct {
		cards     []int
		fits, big bool
	}{
		{nil, false, false},
		{[]int{3, 2, 2}, true, false},
		{[]int{1}, true, false},
		{[]int{2, 0, 2}, false, false},
		{[]int{2, -1}, false, false},
		{binary(20), true, false},
		{binary(28), true, true},
		{binary(29), false, false},
		{[]int{maxDenseCells}, true, true},
		{[]int{maxDenseCells, 2}, false, false},
		{[]int{2, maxDenseCells}, false, false},
		{binary(MaxVars + 1), false, false},
	}
	for _, tc := range cases {
		if got := DenseFits(tc.cards); got != tc.fits {
			t.Errorf("DenseFits over %d attributes = %v, want %v", len(tc.cards), got, tc.fits)
		}
		if tc.big {
			continue
		}
		if _, err := New(nil, tc.cards); (err == nil) != tc.fits {
			t.Errorf("New over %d attributes: error %v, DenseFits says %v", len(tc.cards), err, tc.fits)
		}
	}
}
