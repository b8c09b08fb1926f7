package contingency

import (
	"math/rand"
	"testing"
)

// memberCodecSchemas are cardinality mixes whose packed keys span one, two
// and four 64-bit words — both widths of the [2]uint64 codec (key128) and
// the string codec (keyWide). Cardinalities 3 and 5 leave unused code points in their bit
// fields, so a decode that reads the wrong field or mask shows up as a
// count landing in the wrong cell.
func memberCodecSchemas() []struct {
	name  string
	words int
	cards []int
} {
	mix := func(n int, pattern ...int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = pattern[i%len(pattern)]
		}
		return out
	}
	return []struct {
		name  string
		words int
		cards []int
	}{
		{"one-word", 1, mix(14, 2, 3, 5)},
		{"two-word", 2, mix(40, 5, 3)},
		{"four-word", 4, mix(90, 5, 3, 5, 2)},
	}
}

// referenceProject is Project computed the slow way: every occupied cell
// decoded in full, then summed onto the family through the validating
// dense Add.
func referenceProject(t *testing.T, s *Sparse, members []int) *Table {
	t.Helper()
	names := make([]string, len(members))
	cards := make([]int, len(members))
	for i, p := range members {
		names[i] = s.names[p]
		cards[i] = s.cards[p]
	}
	ref, err := New(names, cards)
	if err != nil {
		t.Fatal(err)
	}
	sub := make([]int, len(members))
	s.EachCell(func(cell []int, c int64) {
		for i, p := range members {
			sub[i] = cell[p]
		}
		if err := ref.Add(c, sub...); err != nil {
			t.Fatal(err)
		}
	})
	return ref
}

// referenceMarginal sums the full-unpack cells agreeing with values.
func referenceMarginal(s *Sparse, members, values []int) int64 {
	var sum int64
	s.EachCell(func(cell []int, c int64) {
		for i, p := range members {
			if cell[p] != values[i] {
				return
			}
		}
		sum += c
	})
	return sum
}

// randomFamily draws 1-4 distinct attributes, ascending.
func randomFamily(rng *rand.Rand, r int) VarSet {
	var vs VarSet
	for k := 1 + rng.Intn(4); vs.Len() < k; {
		vs = vs.Add(rng.Intn(r))
	}
	return vs
}

// checkMemberDecode compares Project, the uncached scan and the cached
// MarginalCount against the full-unpack references over random families.
func checkMemberDecode(t *testing.T, s *Sparse, rng *rand.Rand, families int) {
	t.Helper()
	for f := 0; f < families; f++ {
		vs := randomFamily(rng, s.R())
		members := vs.Members()
		got, err := s.Project(vs)
		if err != nil {
			t.Fatal(err)
		}
		if ref := referenceProject(t, s, members); !got.Equal(ref) {
			t.Fatalf("Project(%v) differs from the full-unpack reference", vs)
		}
		values := make([]int, len(members))
		for i, p := range members {
			values[i] = rng.Intn(s.cards[p])
		}
		want := referenceMarginal(s, members, values)
		if scan := s.marginalCountScan(members, values); scan != want {
			t.Fatalf("marginalCountScan(%v, %v) = %d, reference %d", vs, values, scan, want)
		}
		cached, err := s.MarginalCount(vs, values)
		if err != nil {
			t.Fatal(err)
		}
		if cached != want {
			t.Fatalf("MarginalCount(%v, %v) = %d, reference %d", vs, values, cached, want)
		}
	}
}

// TestMemberDecodeMatchesFullUnpack: the member-only key decode behind
// Project and the marginal scan agrees with decoding every field, on every
// key codec, before and after an ObserveBatch that maintains the cached
// projections in place — which must still verify against rebuilt ones.
func TestMemberDecodeMatchesFullUnpack(t *testing.T) {
	for _, sc := range memberCodecSchemas() {
		t.Run(sc.name, func(t *testing.T) {
			s, err := NewSparse(nil, sc.cards)
			if err != nil {
				t.Fatal(err)
			}
			if s.KeyWords() != sc.words {
				t.Fatalf("schema packs into %d words, want %d", s.KeyWords(), sc.words)
			}
			rng := rand.New(rand.NewSource(int64(len(sc.cards))))
			if err := s.ObserveBatch(randomRows(rng, sc.cards, 400)); err != nil {
				t.Fatal(err)
			}
			checkMemberDecode(t, s, rng, 60)
			if s.CachedProjections() == 0 {
				t.Fatal("no projections cached before the batch")
			}
			if err := s.ObserveBatch(randomRows(rng, sc.cards, 150)); err != nil {
				t.Fatal(err)
			}
			if err := s.VerifyProjections(); err != nil {
				t.Fatal(err)
			}
			checkMemberDecode(t, s, rng, 60)
		})
	}
}

// TestMemberDecodeLastField pins the highest attribute of every schema —
// the field at the top of the last word, where an off-by-one in the word
// ordering of the wide codec would read the wrong bytes.
func TestMemberDecodeLastField(t *testing.T) {
	for _, sc := range memberCodecSchemas() {
		s, err := NewSparse(nil, sc.cards)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		if err := s.ObserveBatch(randomRows(rng, sc.cards, 200)); err != nil {
			t.Fatal(err)
		}
		last := len(sc.cards) - 1
		for _, vs := range []VarSet{NewVarSet(last), NewVarSet(0, last), NewVarSet(last/2, last)} {
			got, err := s.Project(vs)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(referenceProject(t, s, vs.Members())) {
				t.Errorf("%s: Project(%v) differs from the full-unpack reference", sc.name, vs)
			}
		}
	}
}

// TestMarginalizeEveryFamily: the odometer walk of Marginalize agrees with
// MarginalCount's independent complement-axis sum on every cell of every
// non-empty family of a mixed-cardinality table with empty cells.
func TestMarginalizeEveryFamily(t *testing.T) {
	cards := []int{3, 5, 2, 3, 5}
	tab := MustNew(nil, cards)
	rng := rand.New(rand.NewSource(11))
	cell := make([]int, len(cards))
	for off := 0; off < tab.NumCells(); off++ {
		if rng.Intn(4) == 0 {
			continue
		}
		if err := tab.Unflatten(off, cell); err != nil {
			t.Fatal(err)
		}
		if err := tab.Set(int64(rng.Intn(50)), cell...); err != nil {
			t.Fatal(err)
		}
	}
	for mask := uint64(1); mask < 1<<len(cards); mask++ {
		vs := VarSetFromMask(mask)
		m, err := tab.Marginalize(vs)
		if err != nil {
			t.Fatal(err)
		}
		if m.Total() != tab.Total() {
			t.Fatalf("Marginalize(%v) total %d, table %d", vs, m.Total(), tab.Total())
		}
		values := make([]int, vs.Len())
		for off := 0; off < m.NumCells(); off++ {
			if err := m.Unflatten(off, values); err != nil {
				t.Fatal(err)
			}
			want, err := tab.MarginalCount(vs, values)
			if err != nil {
				t.Fatal(err)
			}
			if got := m.Counts()[off]; got != want {
				t.Fatalf("Marginalize(%v)%v = %d, MarginalCount %d", vs, values, got, want)
			}
		}
	}
}
