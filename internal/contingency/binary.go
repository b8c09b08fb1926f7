package contingency

import (
	"fmt"
	"math"

	"pka/internal/wire"
)

// Binary codec for the snapshot format (internal/snapshot): tables encode
// their shape and exact integer counts, and a sparse table additionally
// carries its per-family dense-projection cache so a restored replica
// starts with the same warm marginals the saved process had. Encodings are
// canonical — sparse cells sort by packed key, cached projections by
// family order — so Save→Load→Save reproduces identical bytes.
//
// Two sparse wire forms exist. Version 1 (the single-word era) stored each
// cell key as one uint64 and each projection family as a uvarint bitmask;
// version 2 stores KeyWords() uint64 words per cell and each family as its
// member list, so any schema width round-trips. Decoding accepts both.

// Counts kind bytes: the first byte of an EncodeCounts payload says which
// backend follows.
const (
	countsDense  = 1
	countsSparse = 2
)

// EncodeCounts appends either backend behind its kind byte — the snapshot's
// counts section.
func EncodeCounts(w *wire.Writer, c Counts) { c.encode(w) }

func (t *Table) encode(w *wire.Writer) {
	w.Byte(countsDense)
	EncodeTable(w, t)
}

func (s *Sparse) encode(w *wire.Writer) {
	w.Byte(countsSparse)
	EncodeSparse(w, s)
}

// DecodeCounts reads a payload written by EncodeCounts; version is the
// sparse wire form (see DecodeSparse).
func DecodeCounts(r *wire.Reader, version int) (Counts, error) {
	switch kind := r.Byte(); kind {
	case countsDense:
		return DecodeTable(r)
	case countsSparse:
		return DecodeSparse(r, version)
	default:
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("contingency: decoding counts: %w", err)
		}
		return nil, fmt.Errorf("contingency: unknown counts kind %d", kind)
	}
}

// encodeShape writes the shared axis header: labels then cardinalities.
func encodeShape(w *wire.Writer, names []string, cards []int) {
	w.Int(len(names))
	for _, n := range names {
		w.String(n)
	}
	w.Ints(cards)
}

// decodeShape reads the axis header written by encodeShape.
func decodeShape(r *wire.Reader) (names []string, cards []int) {
	n := r.Int()
	if r.Err() != nil || n < 0 || n > MaxVars {
		return nil, nil
	}
	names = make([]string, n)
	for i := range names {
		names[i] = r.String()
	}
	cards = r.Ints()
	return names, cards
}

// EncodeTable appends a dense table: shape, then every cell count in
// row-major order (the count of cells is derived from the cardinalities).
func EncodeTable(w *wire.Writer, t *Table) {
	encodeShape(w, t.names, t.cards)
	for _, c := range t.counts {
		w.Uvarint(uint64(c))
	}
}

// DecodeTable reads a dense table written by EncodeTable, revalidating the
// shape and recomputing the total from the decoded counts, which must sum
// within int64.
func DecodeTable(r *wire.Reader) (*Table, error) {
	names, cards := decodeShape(r)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("contingency: decoding dense shape: %w", err)
	}
	// Every count takes at least one byte, so a shape claiming more cells
	// than the payload has bytes left is truncated; rejecting it before New
	// stops a corrupt shape from allocating a table the payload cannot fill.
	cells := 1
	for _, c := range cards {
		if c > 0 && cells > r.Remaining()/c {
			return nil, fmt.Errorf("contingency: decoding dense counts: %w", wire.ErrTruncated)
		}
		cells *= max(c, 1)
	}
	t, err := New(names, cards)
	if err != nil {
		return nil, err
	}
	for i := range t.counts {
		c := r.Uvarint()
		if c > uint64(math.MaxInt64-t.total) {
			return nil, fmt.Errorf("contingency: decoded counts overflow int64 total")
		}
		t.counts[i] = int64(c)
		t.total += int64(c)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("contingency: decoding dense counts: %w", err)
	}
	return t, nil
}

// wordsLess compares equal-length packed keys as multi-word integers
// (words least-significant first).
func wordsLess(a, b []uint64) bool {
	for i := len(a) - 1; i >= 0; i-- {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// EncodeSparse appends a sparse table in the version-2 form: shape, the
// occupied cells as (packed key words, count) pairs in ascending key order,
// and the cached dense projections as (family member list, row-major
// counts) in ascending family order. On single-word schemas the cell
// section is byte-identical to version 1. Read-only with respect to the
// table; safe alongside concurrent readers.
func EncodeSparse(w *wire.Writer, s *Sparse) {
	encodeShape(w, s.names, s.cards)
	w.Int(s.store.occupied())
	words := make([]uint64, s.keyWords)
	s.EachCell(func(cell []int, c int64) {
		s.packWords(cell, words)
		for _, wd := range words {
			w.Uint64(wd)
		}
		w.Uvarint(uint64(c))
	})
	entries := s.projectionEntries()
	w.Int(len(entries))
	for _, e := range entries {
		w.Ints(e.members)
		// Shape is derivable from the parent table, so only counts travel.
		for _, c := range e.t.counts {
			w.Uvarint(uint64(c))
		}
	}
}

// DecodeSparse reads a sparse table written by EncodeSparse (or, for
// version 1, by the single-word writer). Every packed key is unpacked and
// revalidated against the cardinalities, counts must be positive and sum
// within int64, and each restored projection must be cacheable and equal
// its rebuild from the decoded cells — so a corrupt payload fails here
// rather than producing a silently inconsistent table.
func DecodeSparse(r *wire.Reader, version int) (*Sparse, error) {
	names, cards := decodeShape(r)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("contingency: decoding sparse shape: %w", err)
	}
	s, err := NewSparse(names, cards)
	if err != nil {
		return nil, err
	}
	keyWords := s.keyWords
	if version == 1 {
		if keyWords != 1 {
			return nil, fmt.Errorf(
				"contingency: version-1 sparse payload declares a schema needing %d key words", keyWords)
		}
	}
	ncells := r.Int()
	if r.Err() != nil || ncells < 0 || ncells > r.Remaining() {
		return nil, fmt.Errorf("contingency: decoding sparse cells: %w", wire.ErrTruncated)
	}
	cell := make([]int, len(cards))
	words := make([]uint64, keyWords)
	rewords := make([]uint64, keyWords)
	prev := make([]uint64, keyWords)
	havePrev := false
	for i := 0; i < ncells; i++ {
		for j := range words {
			words[j] = r.Uint64()
		}
		c := r.Uvarint()
		if r.Err() != nil {
			break
		}
		if havePrev && !wordsLess(prev, words) {
			return nil, fmt.Errorf("contingency: sparse cell keys not strictly ascending")
		}
		copy(prev, words)
		havePrev = true
		s.unpackWords(words, cell)
		if err := s.checkCell(cell); err != nil {
			return nil, fmt.Errorf("contingency: sparse cell key %#x does not unpack to a valid cell", words)
		}
		s.packWords(cell, rewords)
		if !slicesEqual(rewords, words) {
			return nil, fmt.Errorf("contingency: sparse cell key %#x does not unpack to a valid cell", words)
		}
		if c == 0 {
			return nil, fmt.Errorf("contingency: sparse cell %v holds non-positive count 0", cell)
		}
		if c > uint64(math.MaxInt64-s.total) {
			return nil, fmt.Errorf("contingency: decoded counts overflow int64 total")
		}
		s.store.add(cell, int64(c))
		s.total += int64(c)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("contingency: decoding sparse cells: %w", err)
	}
	nprojs := r.Int()
	if r.Err() != nil || nprojs < 0 || nprojs > r.Remaining() {
		return nil, fmt.Errorf("contingency: decoding projection cache: %w", wire.ErrTruncated)
	}
	var prevMask VarSet
	for i := 0; i < nprojs; i++ {
		var vs VarSet
		if version == 1 {
			vs = VarSetFromMask(r.Uvarint())
		} else {
			members := r.Ints()
			for _, p := range members {
				if p < 0 || p >= MaxVars {
					return nil, fmt.Errorf("contingency: projection member %d out of range", p)
				}
				vs = vs.Add(p)
			}
		}
		if r.Err() != nil {
			break
		}
		if (i > 0 && !prevMask.Less(vs)) || vs.Empty() {
			return nil, fmt.Errorf("contingency: projection families not strictly ascending")
		}
		prevMask = vs
		members := vs.Members()
		if members[len(members)-1] >= len(cards) {
			return nil, fmt.Errorf("contingency: projection family %v exceeds table's %d axes", vs, len(cards))
		}
		size := 1
		subNames := make([]string, len(members))
		subCards := make([]int, len(members))
		for j, p := range members {
			subNames[j] = s.names[p]
			subCards[j] = s.cards[p]
			size *= s.cards[p]
		}
		if size > maxCachedProjCells {
			return nil, fmt.Errorf("contingency: projection family %v exceeds cache limit", vs)
		}
		t, err := New(subNames, subCards)
		if err != nil {
			return nil, err
		}
		for j := range t.counts {
			c := int64(r.Uvarint())
			t.counts[j] = c
			t.total += c
		}
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("contingency: decoding projection %v: %w", vs, err)
		}
		if t.total != s.total {
			return nil, fmt.Errorf("contingency: projection %v total %d != table total %d", vs, t.total, s.total)
		}
		s.publishProjection(vs, t)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("contingency: decoding projection cache: %w", err)
	}
	// A projection is derived state: one that sums to the total but
	// disagrees with the cells (or holds a count that wrapped) is corrupt.
	if err := s.VerifyProjections(); err != nil {
		return nil, err
	}
	return s, nil
}

func slicesEqual(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
