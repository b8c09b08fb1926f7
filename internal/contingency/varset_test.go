package contingency

import (
	"testing"
	"testing/quick"
)

func TestVarSetBasics(t *testing.T) {
	s := NewVarSet(0, 2, 5)
	if !s.Has(0) || !s.Has(2) || !s.Has(5) {
		t.Error("membership wrong")
	}
	if s.Has(1) || s.Has(63) || s.Has(-1) || s.Has(64) {
		t.Error("non-members reported present")
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
	if got := s.String(); got != "{0,2,5}" {
		t.Errorf("String = %q", got)
	}
	members := s.Members()
	if len(members) != 3 || members[0] != 0 || members[1] != 2 || members[2] != 5 {
		t.Errorf("Members = %v", members)
	}
}

func TestVarSetAddRemove(t *testing.T) {
	var s VarSet
	if !s.Empty() {
		t.Error("zero value should be empty")
	}
	s = s.Add(3).Add(7)
	if s.Len() != 2 || !s.Has(3) || !s.Has(7) {
		t.Errorf("after adds: %v", s)
	}
	s = s.Remove(3)
	if s.Has(3) || s.Len() != 1 {
		t.Errorf("after remove: %v", s)
	}
	// Removing an absent member is a no-op.
	if s.Remove(50) != s {
		t.Error("removing absent member changed the set")
	}
}

func TestVarSetAddOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(MaxVars) did not panic")
		}
	}()
	VarSet{}.Add(MaxVars)
}

func TestVarSetAlgebra(t *testing.T) {
	a := NewVarSet(0, 1, 2)
	b := NewVarSet(1, 2, 3)
	if got := a.Union(b); got != NewVarSet(0, 1, 2, 3) {
		t.Errorf("union = %v", got)
	}
	if !NewVarSet(1).SubsetOf(a) || !a.SubsetOf(a) {
		t.Error("subset relation wrong")
	}
	if b.SubsetOf(a) {
		t.Error("subset relation wrong")
	}
}

func TestVarSetSubsets(t *testing.T) {
	s := NewVarSet(1, 4)
	subs := s.Subsets()
	if len(subs) != 4 {
		t.Fatalf("subsets of 2-set: %d, want 4", len(subs))
	}
	seen := map[VarSet]bool{}
	for _, x := range subs {
		seen[x] = true
		if !x.SubsetOf(s) {
			t.Errorf("%v not a subset of %v", x, s)
		}
	}
	for _, want := range []VarSet{{}, NewVarSet(1), NewVarSet(4), s} {
		if !seen[want] {
			t.Errorf("missing subset %v", want)
		}
	}
	prop := s.ProperSubsets()
	if len(prop) != 2 {
		t.Fatalf("proper subsets: %d, want 2", len(prop))
	}
	for _, x := range prop {
		if x.Empty() || x == s {
			t.Errorf("improper subset %v in ProperSubsets", x)
		}
	}
}

func TestVarSetSubsetsCountProperty(t *testing.T) {
	f := func(raw uint16) bool {
		s := VarSetFromMask(uint64(raw)) // up to 16 members
		return len(s.Subsets()) == 1<<uint(s.Len())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCombinations(t *testing.T) {
	// C(4,2) = 6 families, all distinct, all of order 2.
	combos := Combinations(4, 2)
	if len(combos) != 6 {
		t.Fatalf("Combinations(4,2) = %d sets, want 6", len(combos))
	}
	seen := map[VarSet]bool{}
	for _, c := range combos {
		if c.Len() != 2 {
			t.Errorf("combination %v has order %d", c, c.Len())
		}
		if seen[c] {
			t.Errorf("duplicate combination %v", c)
		}
		seen[c] = true
	}
	// Lexicographic first and last.
	if combos[0] != NewVarSet(0, 1) {
		t.Errorf("first = %v, want {0,1}", combos[0])
	}
	if combos[len(combos)-1] != NewVarSet(2, 3) {
		t.Errorf("last = %v, want {2,3}", combos[len(combos)-1])
	}
}

func TestCombinationsEdge(t *testing.T) {
	if got := Combinations(3, 0); len(got) != 1 || !got[0].Empty() {
		t.Errorf("C(3,0) = %v", got)
	}
	if got := Combinations(3, 3); len(got) != 1 || got[0] != NewVarSet(0, 1, 2) {
		t.Errorf("C(3,3) = %v", got)
	}
	if Combinations(3, 4) != nil {
		t.Error("r > n should be nil")
	}
	if Combinations(-1, 0) != nil || Combinations(3, -1) != nil {
		t.Error("negative arguments should be nil")
	}
}

func TestCombinationsCountProperty(t *testing.T) {
	choose := func(n, r int) int {
		if r < 0 || r > n {
			return 0
		}
		c := 1
		for i := 0; i < r; i++ {
			c = c * (n - i) / (i + 1)
		}
		return c
	}
	f := func(nSeed, rSeed uint8) bool {
		n := int(nSeed % 12)
		r := int(rSeed % 12)
		got := Combinations(n, r)
		if r > n {
			return got == nil
		}
		return len(got) == choose(n, r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestVarSetAllAndMax: All yields Members in order on the empty set, a
// narrow set and one spilling past two words, stops when the loop breaks,
// and allocates nothing; Max is the last member, -1 when empty.
func TestVarSetAllAndMax(t *testing.T) {
	for _, s := range []VarSet{{}, NewVarSet(0, 2, 63), NewVarSet(1, 64, 65, 190)} {
		var got []int
		for p := range s.All() {
			got = append(got, p)
		}
		want := s.Members()
		if len(got) != len(want) {
			t.Fatalf("%v: All yields %v, Members %v", s, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: All yields %v, Members %v", s, got, want)
			}
		}
		wantMax := -1
		if len(want) > 0 {
			wantMax = want[len(want)-1]
		}
		if s.Max() != wantMax {
			t.Errorf("%v: Max = %d, want %d", s, s.Max(), wantMax)
		}
		n := 0
		for range s.All() {
			n++
			break
		}
		if n != min(1, len(want)) {
			t.Errorf("%v: loop ran %d times after break", s, n)
		}
		sum := 0
		if allocs := testing.AllocsPerRun(10, func() {
			for p := range s.All() {
				sum += p
			}
		}); allocs != 0 {
			t.Errorf("%v: All allocates %v per loop", s, allocs)
		}
	}
}
