package contingency

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// VarSet is a set of attribute positions encoded as a multi-word bitmask:
// positions 0..63 live in an inline word, and wider sets spill the
// remaining words into an immutable string (8 little-endian bytes per
// word, canonical — the last spill word is never zero). The struct is
// comparable, so VarSet keys maps directly, and == is set equality; the
// zero value is the empty set. Sets within the first 64 positions never
// allocate, so narrow-schema call sites keep their old cost.
type VarSet struct {
	lo    uint64
	spill string
}

// MaxVars is the exclusive upper bound on attribute positions a VarSet
// accepts — a sanity ceiling far beyond any practical schema, not a
// packing limit. (Before multi-word keys it was 64 and capped every
// schema; wide schemas now size their sets to the widest member.)
const MaxVars = 1 << 16

// spillWords returns the number of spill words (beyond the inline word).
func (s VarSet) spillWords() int { return len(s.spill) >> 3 }

// NumWords returns how many 64-bit words the set spans (always >= 1).
// With Word it supports allocation-free member iteration:
//
//	for wi := 0; wi < s.NumWords(); wi++ {
//		for w := s.Word(wi); w != 0; w &= w - 1 {
//			p := wi*64 + bits.TrailingZeros64(w)
//			...
//		}
//	}
func (s VarSet) NumWords() int { return 1 + s.spillWords() }

// Word returns the i-th 64-bit word of the mask (word 0 holds positions
// 0..63). Out-of-range words are zero.
func (s VarSet) Word(i int) uint64 {
	if i == 0 {
		return s.lo
	}
	if i < 1 || i > s.spillWords() {
		return 0
	}
	b := s.spill[(i-1)*8:]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// varSetFromWords builds the canonical VarSet for a word slice (word 0 =
// positions 0..63). Trailing zero words are trimmed so equal sets compare
// equal.
func varSetFromWords(words []uint64) VarSet {
	n := len(words)
	for n > 1 && words[n-1] == 0 {
		n--
	}
	if n <= 1 {
		if len(words) == 0 {
			return VarSet{}
		}
		return VarSet{lo: words[0]}
	}
	buf := make([]byte, (n-1)*8)
	for i := 1; i < n; i++ {
		binary.LittleEndian.PutUint64(buf[(i-1)*8:], words[i])
	}
	return VarSet{lo: words[0], spill: string(buf)}
}

// appendWords writes the set's words into dst (resliced as needed) and
// returns it — the scratch form the word-wise set operations work on.
func (s VarSet) appendWords(dst []uint64) []uint64 {
	dst = append(dst[:0], s.lo)
	for i := 1; i <= s.spillWords(); i++ {
		dst = append(dst, s.Word(i))
	}
	return dst
}

// checkPos panics on positions outside [0, MaxVars), which indicates a
// programming error, not bad data.
func checkPos(p int) {
	if p < 0 || p >= MaxVars {
		panic(fmt.Sprintf("contingency: variable position %d out of range", p))
	}
}

// NewVarSet builds a set from explicit positions. It panics on positions
// outside [0, MaxVars).
func NewVarSet(positions ...int) VarSet {
	var lo uint64
	maxWord := 0
	for _, p := range positions {
		checkPos(p)
		if w := p >> 6; w > maxWord {
			maxWord = w
		} else if w == 0 {
			lo |= 1 << uint(p&63)
		}
	}
	if maxWord == 0 {
		return VarSet{lo: lo}
	}
	words := make([]uint64, maxWord+1)
	for _, p := range positions {
		words[p>>6] |= 1 << uint(p&63)
	}
	return varSetFromWords(words)
}

// VarSetFromMask builds a set over positions 0..63 from a plain bitmask —
// the single-word representation VarSet used to be, still the wire form of
// v1 snapshots.
func VarSetFromMask(mask uint64) VarSet { return VarSet{lo: mask} }

// Has reports whether position p is a member.
func (s VarSet) Has(p int) bool {
	if p < 0 {
		return false
	}
	if p < 64 {
		return s.lo&(1<<uint(p)) != 0
	}
	return s.Word(p>>6)&(1<<uint(p&63)) != 0
}

// Add returns the set with position p added.
func (s VarSet) Add(p int) VarSet {
	checkPos(p)
	if p < 64 {
		return VarSet{lo: s.lo | 1<<uint(p), spill: s.spill}
	}
	w := p >> 6
	n := s.NumWords()
	if w >= n {
		n = w + 1
	}
	words := s.appendWords(make([]uint64, 0, n))
	for len(words) < n {
		words = append(words, 0)
	}
	words[w] |= 1 << uint(p&63)
	return varSetFromWords(words)
}

// Remove returns the set with position p removed.
func (s VarSet) Remove(p int) VarSet {
	if p < 0 || !s.Has(p) {
		return s
	}
	if p < 64 {
		return VarSet{lo: s.lo &^ (1 << uint(p)), spill: s.spill}
	}
	words := s.appendWords(make([]uint64, 0, s.NumWords()))
	words[p>>6] &^= 1 << uint(p&63)
	return varSetFromWords(words)
}

// Union returns s ∪ t.
func (s VarSet) Union(t VarSet) VarSet {
	if s.spill == "" && t.spill == "" {
		return VarSet{lo: s.lo | t.lo}
	}
	n := s.NumWords()
	if tn := t.NumWords(); tn > n {
		n = tn
	}
	words := make([]uint64, n)
	for i := range words {
		words[i] = s.Word(i) | t.Word(i)
	}
	return varSetFromWords(words)
}

// SubsetOf reports whether every member of s is in t.
func (s VarSet) SubsetOf(t VarSet) bool {
	if s.lo&^t.lo != 0 {
		return false
	}
	for i := s.spillWords(); i >= 1; i-- {
		if s.Word(i)&^t.Word(i) != 0 {
			return false
		}
	}
	return true
}

// Len returns the number of members (the "order" of an attribute family).
func (s VarSet) Len() int {
	n := bits.OnesCount64(s.lo)
	for i := s.spillWords(); i >= 1; i-- {
		n += bits.OnesCount64(s.Word(i))
	}
	return n
}

// Empty reports whether the set has no members.
func (s VarSet) Empty() bool { return s.lo == 0 && s.spill == "" }

// Less orders sets by their mask value as a multi-word integer — on sets
// within the first 64 positions this is exactly the old uint64 ordering,
// so canonical enumerations (snapshot encodings, sorted family lists) are
// unchanged on narrow schemas.
func (s VarSet) Less(t VarSet) bool {
	// Canonical spills (last word nonzero) make word count the first key.
	if sn, tn := s.spillWords(), t.spillWords(); sn != tn {
		return sn < tn
	}
	for i := s.spillWords(); i >= 1; i-- {
		if sw, tw := s.Word(i), t.Word(i); sw != tw {
			return sw < tw
		}
	}
	return s.lo < t.lo
}

// Members returns the positions in ascending order.
func (s VarSet) Members() []int {
	out := make([]int, 0, s.Len())
	for wi, nw := 0, s.NumWords(); wi < nw; wi++ {
		base := wi * 64
		for w := s.Word(wi); w != 0; w &= w - 1 {
			out = append(out, base+bits.TrailingZeros64(w))
		}
	}
	return out
}

// AppendKey appends a canonical textual identity of the set to dst —
// stable, unique, and allocation-free for narrow sets — for callers
// building composite map keys.
func (s VarSet) AppendKey(dst []byte) []byte {
	dst = strconv.AppendUint(dst, s.lo, 16)
	for i := 1; i <= s.spillWords(); i++ {
		dst = append(dst, '.')
		dst = strconv.AppendUint(dst, s.Word(i), 16)
	}
	return dst
}

// String renders the set as {0,2,5}.
func (s VarSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for wi, nw := 0, s.NumWords(); wi < nw; wi++ {
		base := wi * 64
		for w := s.Word(wi); w != 0; w &= w - 1 {
			if !first {
				b.WriteByte(',')
			}
			first = false
			fmt.Fprintf(&b, "%d", base+bits.TrailingZeros64(w))
		}
	}
	b.WriteByte('}')
	return b.String()
}

// Subsets returns every subset of s, including the empty set and s itself,
// in ascending mask order — the order the old single-word submask
// enumeration produced. The count is 2^|s|; callers guard against large s.
func (s VarSet) Subsets() []VarSet {
	members := s.Members()
	out := make([]VarSet, 0, 1<<uint(len(members)))
	scratch := make([]int, 0, len(members))
	// Enumerating index masks ascending enumerates the actual masks
	// ascending: mapping index bits onto the ascending member positions is
	// monotone in the mask's integer value.
	for idx := 0; ; idx++ {
		scratch = scratch[:0]
		for i, p := range members {
			if idx&(1<<uint(i)) != 0 {
				scratch = append(scratch, p)
			}
		}
		out = append(out, NewVarSet(scratch...))
		if idx == 1<<uint(len(members))-1 {
			break
		}
	}
	return out
}

// ProperSubsets returns the non-empty proper subsets of s — exactly the
// "constraining marginals" of an attribute family in the memo's Eq. 41.
func (s VarSet) ProperSubsets() []VarSet {
	all := s.Subsets()
	out := make([]VarSet, 0, len(all)-2)
	for _, sub := range all {
		if !sub.Empty() && sub != s {
			out = append(out, sub)
		}
	}
	return out
}

// Combinations returns every VarSet of exactly r members drawn from the
// first n attribute positions, in lexicographic order of member lists.
// This enumerates the order-r attribute families of the memo's Figure 3 scan.
func Combinations(n, r int) []VarSet {
	if r < 0 || n < 0 || r > n || n > MaxVars {
		return nil
	}
	if r == 0 {
		return []VarSet{{}}
	}
	var out []VarSet
	idx := make([]int, r)
	for i := range idx {
		idx[i] = i
	}
	for {
		out = append(out, NewVarSet(idx...))
		// Advance the combination.
		i := r - 1
		for i >= 0 && idx[i] == n-r+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < r; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
	return out
}
