package contingency

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Sparse is a contingency table held as a hash of occupied cells — the
// representation for wide schemas whose dense joint space would not fit in
// memory (the memo's "masses of data" over many attributes). Observed data
// occupies at most N distinct cells regardless of the joint-space size.
//
// Discovery itself solves over dense projected spaces; the sparse table's
// job is tabulation and projection: Project extracts the dense marginal
// table over any small attribute subset.
//
// Cell keys are packed bit fields over however many 64-bit words the
// schema needs. Schemas of up to two words use a fixed [2]uint64 key;
// anything wider packs the words into a comparable string key. Both
// specializations sit behind the same Counts contract, projection cache,
// and batch-mutation paths.
type Sparse struct {
	names []string
	cards []int
	// fields maps each attribute to its packed bit field: a word index
	// plus shift/mask within that word (fields never straddle words).
	fields   []keyField
	keyWords int
	store    cellStore
	total    int64

	// projs holds the per-family dense projections behind MarginalCount
	// and Marginalize: the first marginal query over an attribute family
	// projects the occupied cells onto that family once
	// (O(occupied × |family|)), and every later query over the same family
	// is a dense O(1) lookup. pairs is the pair-count ledger (PairCounts)
	// the wide pairwise screen reads. Both are derived state, owned by the
	// table for its whole lifetime: nothing evicts them, and mutation
	// (Observe/Add/ApplyBatch/ObserveBatch) maintains them in place —
	// O(families + pairs) per changed cell instead of an O(occupied)
	// re-projection on the next read — so they survive streaming ingest
	// and a table Marginalize returned stays current. projMu serializes
	// publication so a family only ever has one live table (first
	// publication wins), which in-place maintenance depends on.
	// Concurrency contract: mutation must not overlap any other call — it
	// writes the projections and the ledger in place — while read-only use,
	// MarginalCount and PairCounts included, is safe from any number of
	// goroutines.
	projMu sync.RWMutex
	projs  map[VarSet]*projEntry
	pairs  *PairCounts

	pairCountBuilds atomic.Int64
}

// maxCachedProjCells bounds the dense size of a cached projection; marginal
// queries over families wider than this fall back to scanning the occupied
// cells instead of materializing a large dense table per family.
const maxCachedProjCells = 1 << 16

// projEntry is one cached projection: the family, its member positions
// (pre-expanded so the per-cell mutation path need not re-derive them), and
// the dense table, which mutation updates in place.
type projEntry struct {
	vs      VarSet
	members []int
	t       *Table
}

// keyField locates one attribute's coordinate inside the packed multi-word
// cell key.
type keyField struct {
	word  int
	shift uint
	mask  uint64
}

// buildKeyLayout assigns each attribute a bit field, packing fields
// tightly but never across a word boundary — so single-word schemas get
// the exact layout (and therefore the exact keys and canonical cell order)
// the old uint64 implementation produced.
func buildKeyLayout(cards []int) (fields []keyField, nwords int, err error) {
	fields = make([]keyField, len(cards))
	word, used := 0, uint(0)
	for i, c := range cards {
		if c < 1 {
			return nil, 0, fmt.Errorf("contingency: attribute %d has cardinality %d", i, c)
		}
		b := uint(bits.Len64(uint64(c - 1)))
		if b == 0 {
			b = 1
		}
		if used+b > 64 {
			word++
			used = 0
		}
		fields[i] = keyField{word: word, shift: used, mask: (1 << b) - 1}
		used += b
	}
	return fields, word + 1, nil
}

// NewSparse creates an empty sparse table. Any schema width is accepted:
// the packed cell key spans as many 64-bit words as Σ ceil(log2(card))
// requires. Only the MaxVars attribute-count sanity ceiling applies.
func NewSparse(names []string, cards []int) (*Sparse, error) {
	if len(cards) == 0 {
		return nil, fmt.Errorf("contingency: sparse table needs at least one attribute")
	}
	if len(cards) > MaxVars {
		return nil, fmt.Errorf(
			"contingency: schema has %d attributes, the multi-word sparse backend caps out at %d",
			len(cards), MaxVars)
	}
	if names != nil && len(names) != len(cards) {
		return nil, fmt.Errorf("contingency: %d names for %d attributes", len(names), len(cards))
	}
	fields, nwords, err := buildKeyLayout(cards)
	if err != nil {
		return nil, err
	}
	s := &Sparse{
		cards:    append([]int(nil), cards...),
		fields:   fields,
		keyWords: nwords,
	}
	if nwords <= 2 {
		s.store = &cellMap[[2]uint64, key128]{codec: key128{fields: fields}, m: make(map[[2]uint64]int64)}
	} else {
		s.store = &cellMap[string, keyWide]{codec: keyWide{fields: fields, nwords: nwords}, m: make(map[string]int64)}
	}
	if names == nil {
		s.names = make([]string, len(cards))
		for i := range s.names {
			s.names[i] = fmt.Sprintf("v%d", i)
		}
	} else {
		s.names = append([]string(nil), names...)
	}
	return s, nil
}

// R returns the number of attributes.
func (s *Sparse) R() int { return len(s.cards) }

// Card returns the cardinality of axis i.
func (s *Sparse) Card(i int) int { return s.cards[i] }

// Cards returns a copy of all axis cardinalities.
func (s *Sparse) Cards() []int { return append([]int(nil), s.cards...) }

// Names returns a copy of the axis labels.
func (s *Sparse) Names() []string { return append([]string(nil), s.names...) }

// Total returns N.
func (s *Sparse) Total() int64 { return s.total }

// Occupied returns the number of distinct non-zero cells.
func (s *Sparse) Occupied() int { return s.store.occupied() }

// KeyWords returns how many 64-bit words the packed cell key spans — 1 for
// every schema the old single-word representation could hold.
func (s *Sparse) KeyWords() int { return s.keyWords }

// checkCell validates a cell's coordinates.
func (s *Sparse) checkCell(cell []int) error {
	if len(cell) != len(s.cards) {
		return fmt.Errorf("contingency: cell has %d coordinates, table has %d axes",
			len(cell), len(s.cards))
	}
	for i, v := range cell {
		if v < 0 || v >= s.cards[i] {
			return fmt.Errorf("contingency: coordinate %d = %d out of range [0,%d)",
				i, v, s.cards[i])
		}
	}
	return nil
}

// packWords packs a validated cell into words[0:KeyWords()].
func (s *Sparse) packWords(cell []int, words []uint64) {
	for i := range words[:s.keyWords] {
		words[i] = 0
	}
	for i, f := range s.fields {
		words[f.word] |= uint64(cell[i]) << f.shift
	}
}

// unpackWords is the inverse of packWords.
func (s *Sparse) unpackWords(words []uint64, cell []int) {
	for i, f := range s.fields {
		cell[i] = int((words[f.word] >> f.shift) & f.mask)
	}
}

// Observe records one sample.
func (s *Sparse) Observe(cell ...int) error { return s.Add(1, cell...) }

// Add increments a cell by delta, deleting it when it reaches zero. Cached
// marginal projections are updated in place, not dropped; a zero delta is a
// pure validation (it never touches cells or caches). Mutation must not
// overlap other calls (see the concurrency contract on Sparse).
func (s *Sparse) Add(delta int64, cell ...int) error {
	if err := s.checkCell(cell); err != nil {
		return err
	}
	if delta == 0 {
		return nil
	}
	if s.store.get(cell)+delta < 0 {
		return fmt.Errorf("contingency: cell %v would go negative", cell)
	}
	s.store.add(cell, delta)
	s.total += delta
	s.applyToProjections(cell, delta)
	return nil
}

// applyToProjections folds one cell delta into every cached projection and
// the cached pair-count ledger. The coordinates must already be validated
// and the delta must leave the cell non-negative, so no projection cell
// can go negative either. The in-place writes are safe because mutation
// holds exclusive access to the Sparse by contract.
func (s *Sparse) applyToProjections(cell []int, delta int64) {
	for _, e := range s.projs {
		off := 0
		for i, p := range e.members {
			off += cell[p] * e.t.strides[i]
		}
		e.t.counts[off] += delta
		e.t.total += delta
	}
	if s.pairs != nil {
		s.pairs.add(cell, delta)
	}
}

// ApplyBatch applies a group of cell deltas as one mutation. The whole batch
// is validated before anything is written — bad coordinates or a cell count
// that would go negative reject the batch with the table untouched — and
// cached marginal projections are updated in place, one O(families) pass per
// distinct changed cell instead of an O(occupied) re-projection per family
// on the next read. Updated caches are bit-identical to rebuilt ones
// (CheckConsistency verifies this invariant).
func (s *Sparse) ApplyBatch(deltas []CellDelta) error {
	if len(deltas) == 0 {
		return nil
	}
	return s.store.applyBatch(s, deltas)
}

// ObserveBatch records one sample per row, atomically: either every row is
// counted or (on a bad coordinate) none are. Cached projections are updated
// in place, making it the ingest step of the streaming/incremental-refit
// pipeline.
func (s *Sparse) ObserveBatch(rows [][]int) error { return s.ApplyBatch(observations(rows)) }

// At returns a cell's count (zero for unobserved cells).
func (s *Sparse) At(cell ...int) (int64, error) {
	if err := s.checkCell(cell); err != nil {
		return 0, err
	}
	return s.store.get(cell), nil
}

// Project sums the sparse table onto the kept attribute subset, returning a
// dense table over those axes (ascending position order) — the bridge from
// wide sparse data to the dense machinery of discovery. It costs
// O(occupied × |keep|): each occupied key decodes only the kept attributes'
// bit fields, never the full R-field cell, so a pair projection over a
// 500-attribute schema reads two fields per cell, not 500.
func (s *Sparse) Project(keep VarSet) (*Table, error) {
	if keep.Empty() {
		return nil, fmt.Errorf("contingency: cannot project to the empty attribute set")
	}
	members := keep.Members()
	if members[len(members)-1] >= s.R() {
		return nil, fmt.Errorf("contingency: attribute set %v exceeds table's %d axes", keep, s.R())
	}
	names := make([]string, len(members))
	cards := make([]int, len(members))
	for i, p := range members {
		names[i] = s.names[p]
		cards[i] = s.cards[p]
	}
	dense, err := New(names, cards)
	if err != nil {
		return nil, err
	}
	// Stored keys always decode to validated coordinates, so the dense
	// offset needs no per-cell range check.
	s.store.eachMembers(members, make([]int, len(members)), func(sub []int, c int64) {
		off := 0
		for i, v := range sub {
			off += v * dense.strides[i]
		}
		dense.counts[off] += c
		dense.total += c
	})
	return dense, nil
}

// Marginalize is Project served from (and populating) the per-family
// dense-projection cache when the family is small enough to cache; wider
// families fall back to a fresh projection. The returned table is the live
// cache entry and MUST be treated as read-only by the caller. It stays
// current across streaming mutation for free: Observe/Add/ApplyBatch
// maintain every cached projection in place, so repeated callers — the
// pairwise screen of schemas under 65 attributes above all — pay O(1) per
// call instead of an O(occupied) re-projection after every ingested batch.
// Wider schemas screen from the pair-count ledger instead (PairCounts),
// which holds every pair in one slab.
func (s *Sparse) Marginalize(keep VarSet) (*Table, error) {
	if keep.Empty() {
		return nil, fmt.Errorf("contingency: cannot project to the empty attribute set")
	}
	members := keep.Members()
	if members[len(members)-1] >= s.R() {
		return nil, fmt.Errorf("contingency: attribute set %v exceeds table's %d axes", keep, s.R())
	}
	if t := s.projection(keep, members); t != nil {
		return t, nil
	}
	return s.Project(keep)
}

// ToDense materializes the full dense table; it fails when the joint space
// exceeds the dense limit.
func (s *Sparse) ToDense() (*Table, error) {
	dense, err := New(s.names, s.cards)
	if err != nil {
		return nil, err
	}
	var outer error
	s.store.each(make([]int, len(s.cards)), func(cell []int, c int64) {
		if outer != nil {
			return
		}
		outer = dense.Add(c, cell...)
	})
	if outer != nil {
		return nil, outer
	}
	return dense, nil
}

// Clone returns a deep copy of the table's counts. Cached projections and
// the pair-count ledger do not travel: the copy starts cold and rebuilds
// them on first use — so cloning is cheap in proportion to the occupied
// cells, and a clone taken for speculative mutation never aliases the
// original's cached tables.
func (s *Sparse) Clone() *Sparse {
	return &Sparse{
		names:    append([]string(nil), s.names...),
		cards:    append([]int(nil), s.cards...),
		fields:   append([]keyField(nil), s.fields...),
		keyWords: s.keyWords,
		store:    s.store.clone(),
		total:    s.total,
	}
}

// FromDense converts a dense table to sparse form.
func FromDense(t *Table) (*Sparse, error) {
	s, err := NewSparse(t.Names(), t.Cards())
	if err != nil {
		return nil, err
	}
	var outer error
	t.EachCell(func(cell []int, count int64) {
		if outer != nil || count == 0 {
			return
		}
		outer = s.Add(count, cell...)
	})
	if outer != nil {
		return nil, outer
	}
	return s, nil
}

// MarginalCount returns the marginal count of a partial assignment. Small
// families are served from the per-family dense-projection cache — one
// O(occupied × |family|) projection on first use, O(1) per query
// afterwards, which is what makes the discovery scan's repeated marginal
// lookups affordable on wide tables. Families whose dense projection would
// exceed maxCachedProjCells fall back to scanning the occupied cells.
func (s *Sparse) MarginalCount(vars VarSet, values []int) (int64, error) {
	members := vars.Members()
	if len(members) != len(values) {
		return 0, fmt.Errorf("contingency: %d values for attribute set %v", len(values), vars)
	}
	if len(members) == 0 {
		return s.total, nil
	}
	if members[len(members)-1] >= s.R() {
		return 0, fmt.Errorf("contingency: attribute set %v exceeds table's %d axes", vars, s.R())
	}
	for i, p := range members {
		if values[i] < 0 || values[i] >= s.cards[p] {
			return 0, fmt.Errorf("contingency: value %d for axis %d out of range", values[i], p)
		}
	}
	if proj := s.projection(vars, members); proj != nil {
		return proj.At(values...)
	}
	return s.marginalCountScan(members, values), nil
}

// marginalCountScan is the uncached marginal: one pass over the occupied
// cells, decoding only the family's fields (O(occupied × |family|)).
// Retained as the fallback for families too wide to cache and as the
// reference path in tests and benchmarks.
func (s *Sparse) marginalCountScan(members, values []int) int64 {
	var sum int64
	s.store.eachMembers(members, make([]int, len(members)), func(sub []int, c int64) {
		for i, v := range sub {
			if v != values[i] {
				return
			}
		}
		sum += c
	})
	return sum
}

// projection returns the cached dense projection over vars, building and
// memoizing it on first use; nil when the family is too wide to cache.
// Safe for concurrent use among readers; racing builders each compute the
// same table and the first publication wins.
func (s *Sparse) projection(vars VarSet, members []int) *Table {
	size := 1
	for _, p := range members {
		size *= s.cards[p]
		if size > maxCachedProjCells {
			return nil
		}
	}
	s.projMu.RLock()
	e := s.projs[vars]
	s.projMu.RUnlock()
	if e != nil {
		return e.t
	}
	t, err := s.Project(vars)
	if err != nil {
		// Unreachable after the validations above; fall back to scanning.
		return nil
	}
	return s.publishProjection(vars, t)
}

// publishProjection installs a projection unless a racing builder got there
// first: the double-checked lock keeps one live table per family, which
// in-place maintenance depends on. Returns the table that won.
func (s *Sparse) publishProjection(vars VarSet, t *Table) *Table {
	s.projMu.Lock()
	defer s.projMu.Unlock()
	if e, ok := s.projs[vars]; ok {
		return e.t
	}
	if s.projs == nil {
		s.projs = make(map[VarSet]*projEntry)
	}
	s.projs[vars] = &projEntry{vs: vars, members: vars.Members(), t: t}
	return t
}

// projectionEntries snapshots the cached projections in ascending family
// order — the canonical enumeration the snapshot codec and the verifier
// walk.
func (s *Sparse) projectionEntries() []*projEntry {
	s.projMu.RLock()
	out := make([]*projEntry, 0, len(s.projs))
	for _, e := range s.projs {
		out = append(out, e)
	}
	s.projMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].vs.Less(out[j].vs) })
	return out
}

// ProjectionCacheEvictions always reports 0: cached projections and the
// pair-count ledger live as long as the table and are never evicted. It
// stays only because the benchmark's per-layer report still reads it.
func (s *Sparse) ProjectionCacheEvictions() int64 { return 0 }

// EachCell visits every occupied cell in ascending packed-key order — a
// deterministic enumeration (map iteration is not) for consumers whose
// floating-point accumulations must reproduce run to run. Multi-word keys
// order as multi-word integers. The coordinate slice is reused between
// calls.
func (s *Sparse) EachCell(fn func(cell []int, count int64)) {
	s.store.eachSorted(make([]int, len(s.cards)), fn)
}

// CheckConsistency verifies the cheap bookkeeping invariants: the cached
// total equals the cell sum and no occupied cell holds a non-positive
// count. It is O(occupied) and safe to run before every discovery pass;
// VerifyProjections adds the (more expensive) cache bit-identity check.
func (s *Sparse) CheckConsistency() error {
	var sum int64
	var bad error
	s.store.each(make([]int, len(s.cards)), func(cell []int, c int64) {
		if c <= 0 && bad == nil {
			bad = fmt.Errorf("contingency: sparse cell %v holds non-positive count %d", cell, c)
		}
		sum += c
	})
	if bad != nil {
		return bad
	}
	if sum != s.total {
		return fmt.Errorf("contingency: cached total %d != cell sum %d", s.total, sum)
	}
	return nil
}

// VerifyProjections checks the streaming-ingest invariant: every cached
// marginal projection and the cached pair-count ledger — maintained in
// place by the mutation paths — must be bit-identical to a rebuild from
// the occupied cells. It costs O((cached families + pairs) × occupied);
// tests and debugging call it, hot paths call CheckConsistency.
func (s *Sparse) VerifyProjections() error {
	if p := s.cachedPairCounts(); p != nil {
		rebuilt, err := s.buildPairCounts(1)
		if err != nil {
			return fmt.Errorf("contingency: rebuilding pair-count ledger: %w", err)
		}
		if !slices.Equal(p.counts, rebuilt.counts) {
			return fmt.Errorf("contingency: cached pair-count ledger diverged from rebuilt counts")
		}
	}
	for _, e := range s.projectionEntries() {
		rebuilt, err := s.Project(e.vs)
		if err != nil {
			return fmt.Errorf("contingency: rebuilding projection %v: %w", e.vs, err)
		}
		if !e.t.Equal(rebuilt) {
			return fmt.Errorf("contingency: cached projection %v diverged from rebuilt counts", e.vs)
		}
	}
	return nil
}

// CachedProjections reports how many per-family dense projections are
// currently cached — observability for the streaming-ingest invariant that
// mutation maintains caches instead of dropping them. The pair-count
// ledger is not a family projection and is not counted.
func (s *Sparse) CachedProjections() int {
	s.projMu.RLock()
	defer s.projMu.RUnlock()
	return len(s.projs)
}

// ---------------------------------------------------------------------------
// Cell stores: one generic hash-of-cells implementation instantiated per
// key width. The codec is a value type so key operations compile to direct
// calls; the store interface is what Sparse dispatches through.

// keyCodec packs validated cells to comparable keys and back.
type keyCodec[K comparable] interface {
	pack(cell []int) K
	unpack(k K, cell []int)
	// unpackMembers decodes only the listed attributes: sub[i] receives
	// the coordinate of attribute members[i]. Projections use it so their
	// per-cell cost scales with the family, not the schema width.
	unpackMembers(k K, members, sub []int)
	less(a, b K) bool
}

// key128 covers schemas needing one or two words ([2]uint64 keys hash
// inline — no allocation per cell). A one-word schema leaves word 1 zero,
// so its keys and their order are those of the packed word alone.
type key128 struct{ fields []keyField }

func (c key128) pack(cell []int) (k [2]uint64) {
	for i, f := range c.fields {
		k[f.word] |= uint64(cell[i]) << f.shift
	}
	return k
}

func (c key128) unpack(k [2]uint64, cell []int) {
	for i, f := range c.fields {
		cell[i] = int((k[f.word] >> f.shift) & f.mask)
	}
}

func (c key128) unpackMembers(k [2]uint64, members, sub []int) {
	for i, p := range members {
		f := c.fields[p]
		sub[i] = int((k[f.word] >> f.shift) & f.mask)
	}
}

func (key128) less(a, b [2]uint64) bool {
	if a[1] != b[1] {
		return a[1] < b[1]
	}
	return a[0] < b[0]
}

// keyWide packs any number of words into a string key. Words serialize
// most-significant first in big-endian byte order, so the string's
// lexicographic order is the keys' numeric order and sorted enumeration
// needs no decoding.
type keyWide struct {
	fields []keyField
	nwords int
}

func (c keyWide) pack(cell []int) string {
	buf := make([]byte, 8*c.nwords)
	for i, f := range c.fields {
		off := (c.nwords - 1 - f.word) * 8
		v := uint64(cell[i]) << f.shift
		binary.BigEndian.PutUint64(buf[off:], binary.BigEndian.Uint64(buf[off:])|v)
	}
	return string(buf)
}

func (c keyWide) unpack(k string, cell []int) {
	for i, f := range c.fields {
		off := (c.nwords - 1 - f.word) * 8
		w := binary.BigEndian.Uint64([]byte(k[off : off+8]))
		cell[i] = int((w >> f.shift) & f.mask)
	}
}

func (c keyWide) unpackMembers(k string, members, sub []int) {
	for i, p := range members {
		f := c.fields[p]
		off := (c.nwords - 1 - f.word) * 8
		w := binary.BigEndian.Uint64([]byte(k[off : off+8]))
		sub[i] = int((w >> f.shift) & f.mask)
	}
}

func (keyWide) less(a, b string) bool { return a < b }

// cellStore is the width-erased view Sparse drives; every method takes
// pre-validated cells.
type cellStore interface {
	occupied() int
	get(cell []int) int64
	// add applies a delta to a cell, deleting it at zero. The caller has
	// checked the result stays non-negative.
	add(cell []int, delta int64)
	each(scratch []int, fn func(cell []int, count int64))
	// eachMembers visits every occupied cell decoded onto members only
	// (see keyCodec.unpackMembers); sub is the reused scratch passed to fn.
	eachMembers(members, sub []int, fn func(sub []int, count int64))
	eachSorted(scratch []int, fn func(cell []int, count int64))
	clone() cellStore
	applyBatch(s *Sparse, deltas []CellDelta) error
}

// cellMap is the generic hash-of-cells store.
type cellMap[K comparable, C keyCodec[K]] struct {
	codec C
	m     map[K]int64
}

func (c *cellMap[K, C]) occupied() int { return len(c.m) }

func (c *cellMap[K, C]) get(cell []int) int64 { return c.m[c.codec.pack(cell)] }

func (c *cellMap[K, C]) add(cell []int, delta int64) {
	k := c.codec.pack(cell)
	if nv := c.m[k] + delta; nv == 0 {
		delete(c.m, k)
	} else {
		c.m[k] = nv
	}
}

func (c *cellMap[K, C]) each(scratch []int, fn func(cell []int, count int64)) {
	for k, v := range c.m {
		c.codec.unpack(k, scratch)
		fn(scratch, v)
	}
}

func (c *cellMap[K, C]) eachMembers(members, sub []int, fn func(sub []int, count int64)) {
	for k, v := range c.m {
		c.codec.unpackMembers(k, members, sub)
		fn(sub, v)
	}
}

func (c *cellMap[K, C]) eachSorted(scratch []int, fn func(cell []int, count int64)) {
	keys := make([]K, 0, len(c.m))
	for k := range c.m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return c.codec.less(keys[i], keys[j]) })
	for _, k := range keys {
		c.codec.unpack(k, scratch)
		fn(scratch, c.m[k])
	}
}

func (c *cellMap[K, C]) clone() cellStore {
	cp := &cellMap[K, C]{codec: c.codec, m: make(map[K]int64, len(c.m))}
	for k, v := range c.m {
		cp.m[k] = v
	}
	return cp
}

// applyBatch is ApplyBatch's width-specific core: validate and aggregate
// per packed key, reject if any aggregate would drive a cell negative,
// then commit in first-seen batch order, folding each distinct cell's
// delta into the cached projections.
func (c *cellMap[K, C]) applyBatch(s *Sparse, deltas []CellDelta) error {
	agg := make(map[K]int64, len(deltas))
	order := make([]K, 0, len(deltas))
	for i, d := range deltas {
		if err := s.checkCell(d.Cell); err != nil {
			return fmt.Errorf("contingency: batch delta %d: %w", i, err)
		}
		k := c.codec.pack(d.Cell)
		if _, seen := agg[k]; !seen {
			order = append(order, k)
		}
		agg[k] += d.Delta
	}
	cell := make([]int, len(s.cards))
	for _, k := range order {
		if nv := c.m[k] + agg[k]; nv < 0 {
			c.codec.unpack(k, cell)
			return fmt.Errorf("contingency: batch would drive cell %v negative (%d%+d)",
				cell, c.m[k], agg[k])
		}
	}
	for _, k := range order {
		d := agg[k]
		if d == 0 {
			continue
		}
		if nv := c.m[k] + d; nv == 0 {
			delete(c.m, k)
		} else {
			c.m[k] = nv
		}
		s.total += d
		c.codec.unpack(k, cell)
		s.applyToProjections(cell, d)
	}
	return nil
}
