package contingency

import (
	"math/bits"
	"math/rand"
	"testing"
)

// fuzzSchema derives a deterministic schema and cell from the fuzz inputs:
// r attributes with mixed cardinalities (including ones wide enough to
// force several bits per field and occasional word-boundary padding).
func fuzzSchema(seed int64, r int) (cards, cell []int) {
	rng := rand.New(rand.NewSource(seed))
	cards = make([]int, r)
	cell = make([]int, r)
	for i := range cards {
		switch rng.Intn(5) {
		case 0:
			cards[i] = 2
		case 1:
			cards[i] = 3
		case 2:
			cards[i] = 1 + rng.Intn(16)
		case 3:
			cards[i] = 1 << (1 + rng.Intn(10))
		default:
			cards[i] = 1 + rng.Intn(1000)
		}
		cell[i] = rng.Intn(cards[i])
	}
	return cards, cell
}

// FuzzPackUnpackRoundTrip fuzzes the multi-word cell key codec: for any
// schema the packed key must unpack to the same cell, repack to the same
// words, and distinct cells must get distinct keys.
func FuzzPackUnpackRoundTrip(f *testing.F) {
	f.Add(int64(1), 4)    // single word
	f.Add(int64(2), 64)   // exactly the old ceiling
	f.Add(int64(3), 65)   // first multi-word width
	f.Add(int64(4), 130)  // past the [2]uint64 key
	f.Add(int64(5), 520)  // wide string-key path
	f.Add(int64(42), 200) // mixed cardinalities across many words
	f.Fuzz(func(t *testing.T, seed int64, r int) {
		if r < 1 || r > 1024 {
			t.Skip()
		}
		cards, cell := fuzzSchema(seed, r)
		s, err := NewSparse(nil, cards)
		if err != nil {
			t.Fatalf("NewSparse(%v): %v", cards, err)
		}
		words := make([]uint64, s.KeyWords())
		s.packWords(cell, words)
		back := make([]int, r)
		s.unpackWords(words, back)
		for i := range cell {
			if back[i] != cell[i] {
				t.Fatalf("round trip changed coordinate %d: %d -> %d (cards %v)", i, cell[i], back[i], cards)
			}
		}
		again := make([]uint64, s.KeyWords())
		s.packWords(back, again)
		for w := range words {
			if words[w] != again[w] {
				t.Fatalf("repack changed word %d: %#x -> %#x", w, words[w], again[w])
			}
		}
		// Perturb one coordinate: the key must change (injectivity).
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		p := rng.Intn(r)
		if cards[p] < 2 {
			return
		}
		cell[p] = (cell[p] + 1) % cards[p]
		s.packWords(cell, again)
		same := true
		for w := range words {
			if words[w] != again[w] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("distinct cells packed to the same key (perturbed attribute %d, cards %v)", p, cards)
		}
	})
}

// TestKeyLayoutSingleWordCompat pins the no-straddle layout contract: on a
// schema fitting 64 bits the field layout is the exact packing the
// single-word implementation used, so keys (and the canonical sorted cell
// order derived from them) are unchanged by the refactor.
func TestKeyLayoutSingleWordCompat(t *testing.T) {
	cards := []int{3, 2, 7, 16, 5, 2, 9}
	fields, nwords, err := buildKeyLayout(cards)
	if err != nil {
		t.Fatal(err)
	}
	if nwords != 1 {
		t.Fatalf("layout used %d words, want 1", nwords)
	}
	shift := uint(0)
	for i, c := range cards {
		b := uint(bits.Len64(uint64(c - 1)))
		if b == 0 {
			b = 1
		}
		if fields[i].word != 0 || fields[i].shift != shift || fields[i].mask != (1<<b)-1 {
			t.Errorf("attribute %d field %+v, want word 0 shift %d mask %#x", i, fields[i], shift, (1<<b)-1)
		}
		shift += b
	}
}

// narrowRef is the old single-word VarSet semantics, kept as an
// executable reference for the property test below.
type narrowRef uint64

func (m narrowRef) add(p int) narrowRef    { return m | 1<<uint(p) }
func (m narrowRef) remove(p int) narrowRef { return m &^ (1 << uint(p)) }
func (m narrowRef) has(p int) bool         { return m&(1<<uint(p)) != 0 }
func (m narrowRef) len() int               { return bits.OnesCount64(uint64(m)) }

// TestVarSetMatchesNarrowReference drives random set operations through
// both the multi-word VarSet and the uint64 reference on positions < 64:
// every observable (membership, length, members, order, algebra, mask
// round-trip) must agree — the wide representation is a strict extension.
func TestVarSetMatchesNarrowReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	set, ref := VarSet{}, narrowRef(0)
	other, otherRef := VarSet{}, narrowRef(0)
	check := func(step int) {
		t.Helper()
		if set != VarSetFromMask(uint64(ref)) {
			t.Fatalf("step %d: set %v, want mask %#x", step, set, uint64(ref))
		}
		if set.Len() != ref.len() {
			t.Fatalf("step %d: Len = %d, want %d", step, set.Len(), ref.len())
		}
		if set.Empty() != (ref == 0) {
			t.Fatalf("step %d: Empty = %v, want %v", step, set.Empty(), ref == 0)
		}
		for _, p := range []int{0, 1, 31, 62, 63} {
			if set.Has(p) != ref.has(p) {
				t.Fatalf("step %d: Has(%d) = %v, want %v", step, p, set.Has(p), ref.has(p))
			}
		}
		members := set.Members()
		if len(members) != ref.len() {
			t.Fatalf("step %d: %d members, want %d", step, len(members), ref.len())
		}
		for _, p := range members {
			if !ref.has(p) {
				t.Fatalf("step %d: spurious member %d", step, p)
			}
		}
		if NewVarSet(members...) != set {
			t.Fatalf("step %d: Members -> NewVarSet does not round-trip", step)
		}
		// Algebra and order against the second set.
		if got, want := set.Union(other), VarSetFromMask(uint64(ref|otherRef)); got != want {
			t.Fatalf("step %d: Union = %v, want %v", step, got, want)
		}
		if got, want := set.SubsetOf(other), ref&^otherRef == 0; got != want {
			t.Fatalf("step %d: SubsetOf = %v, want %v", step, got, want)
		}
		// Less must reproduce the old numeric-mask order exactly.
		if got, want := set.Less(other), uint64(ref) < uint64(otherRef); got != want {
			t.Fatalf("step %d: Less = %v, want numeric %v", step, got, want)
		}
	}
	for step := 0; step < 5000; step++ {
		p := rng.Intn(64)
		switch rng.Intn(4) {
		case 0:
			set, ref = set.Add(p), ref.add(p)
		case 1:
			set, ref = set.Remove(p), ref.remove(p)
		case 2:
			other, otherRef = other.Add(p), otherRef.add(p)
		default:
			other, otherRef = other.Remove(p), otherRef.remove(p)
		}
		check(step)
	}
}

// TestVarSetWideNarrowBoundary checks the representation transition at
// position 64: crossing it and coming back must restore the exact
// canonical narrow form (comparable equality, no lingering spill).
func TestVarSetWideNarrowBoundary(t *testing.T) {
	narrow := NewVarSet(3, 63)
	wide := narrow.Add(64).Add(200)
	if wide.NumWords() < 2 {
		t.Fatalf("wide set spans %d word", wide.NumWords())
	}
	if !wide.Has(200) || !wide.Has(64) || !wide.Has(63) || !wide.Has(3) {
		t.Fatal("wide set lost members")
	}
	if wide.Len() != 4 {
		t.Fatalf("Len = %d, want 4", wide.Len())
	}
	back := wide.Remove(200).Remove(64)
	if back != narrow {
		t.Fatalf("removing high members did not restore the canonical narrow set: %v vs %v", back, narrow)
	}
	if narrow.Less(wide) != true || wide.Less(narrow) != false {
		t.Fatal("multi-word order must place wider sets after narrow ones sharing low words")
	}
	// Union across the boundary.
	if got := narrow.Union(NewVarSet(64, 200)); got != wide {
		t.Fatalf("union does not rebuild the wide set: %v", got.Members())
	}
}
