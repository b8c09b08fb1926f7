package mml

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"pka/internal/contingency"
)

// Config tunes the significance test.
type Config struct {
	// PriorH2 is p(H2'), the prior probability that at least one more
	// significant constraint exists. The memo assumes 0.5 (Eq. 63), making
	// the prior terms cancel; 0.6 and 0.8 shift m2-m1 by -0.40 and -1.39,
	// which the memo works out and the tests verify. Must be in (0, 1).
	PriorH2 float64
	// IncludeForced keeps the memo's literal Eq. 41 ELSE branch: a cell
	// whose value is fully determined by the known marginals encodes for
	// free under H2 (p(D|H2) = 1) and therefore always tests significant.
	// Such cells carry no new information — their constraint is already
	// implied — so by default they are never selected; set IncludeForced
	// to reproduce the raw behaviour.
	IncludeForced bool
}

// DefaultConfig returns the memo's defaults (with forced cells excluded
// from selection; see Config.IncludeForced).
func DefaultConfig() Config { return Config{PriorH2: 0.5} }

func (c Config) validate() error {
	if !(c.PriorH2 > 0 && c.PriorH2 < 1) {
		return fmt.Errorf("mml: PriorH2 %g outside (0,1)", c.PriorH2)
	}
	return nil
}

// SignificantCell records one constraint already accepted: an attribute
// family, a cell of it, and the observed marginal count.
type SignificantCell struct {
	Family contingency.VarSet
	Values []int
	Count  int64
}

// Tester evaluates candidate cells against the observed contingency counts,
// tracking which cells have been marked significant so far (the memo's
// "significant(N...s)" bookkeeping in Eq. 41). The counts backend may be
// dense or sparse — scoring consumes only the Counts marginals.
//
// The table must stay read-only for the tester's lifetime, which lets every
// marginal count the scans need — a candidate cell's observed count and its
// known sub-marginals — come from one Counts.Marginalize per family, built
// on first use and kept for every later pass: O(joint) on a dense table,
// and on a sparse table its own cached projection (O(occupied × |family|)
// on a miss), held by reference rather than copied. Each lookup afterwards is O(|family|).
// The projections span only the candidate families and their sub-families,
// so their size is bounded by the cell universe CellsAtOrder counts.
type Tester struct {
	table contingency.Counts
	cfg   Config
	// sig holds accepted cells grouped by family.
	sig map[contingency.VarSet][]SignificantCell
	// sigKeys is the set of accepted cells, keyed by family and row-major
	// cell offset (cellID), so the per-cell lookups of a scan — whether the
	// cell itself and each of its known sub-family cells is significant —
	// neither format nor allocate a key.
	sigKeys map[cellID]bool
	// sigPerOrder counts accepted cells per order r (the memo's M).
	sigPerOrder map[int]int
	// familyGen enumerates the candidate attribute families of one order;
	// nil means the full Combinations(R, r) universe. Set by
	// RestrictFamilies for screened wide-schema scans.
	familyGen func(order int) []contingency.VarSet
	// cellsMemo caches CellsAtOrder per order (the table is read-only, so
	// the count never changes for a given family universe). cellsMu
	// guards it: ScanOrderParallel workers score concurrently, and every
	// Test consults CellsAtOrder.
	cellsMu   sync.RWMutex
	cellsMemo map[int]int
	// margs holds the per-family marginal tables (see the type comment);
	// margMu guards it because ScanOrderParallel workers score
	// concurrently. Entries are never mutated after publication.
	margMu sync.RWMutex
	margs  map[contingency.VarSet]*contingency.Table
}

// NewTester validates the configuration and builds a tester over the
// counts backend. The caller vouches for consistent counts: NewTester does
// not rerun table.CheckConsistency, which walks every occupied cell.
// Counts that come from outside are checked where they enter — discovery
// (core.DiscoverCounts) and snapshot restore — and ApplyBatch keeps them
// consistent from there on, so an incremental Update does not walk them.
func NewTester(table contingency.Counts, cfg Config) (*Tester, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if table.Total() == 0 {
		return nil, fmt.Errorf("mml: empty contingency table")
	}
	return &Tester{
		table:       table,
		cfg:         cfg,
		sig:         make(map[contingency.VarSet][]SignificantCell),
		sigKeys:     make(map[cellID]bool),
		sigPerOrder: make(map[int]int),
		cellsMemo:   make(map[int]int),
		margs:       make(map[contingency.VarSet]*contingency.Table),
	}, nil
}

// Table returns the observed counts the tester scores against.
func (t *Tester) Table() contingency.Counts { return t.table }

// RestrictFamilies narrows the candidate universe of order >= 2 attribute
// families: gen(r) must deterministically enumerate the families eligible
// at order r (a subset of Combinations(R, r)). Scans visit only those
// families, and CellsAtOrder — the memo's "no. of cells at this order" term
// of Eq. 45 — counts only their cells, so the message-length comparison
// prices candidates against the screened universe. nil restores the full
// enumeration. Association screening in the discovery engine is the
// intended caller; switching generators mid-run invalidates the cached
// cell counts and is not supported.
func (t *Tester) RestrictFamilies(gen func(order int) []contingency.VarSet) {
	t.familyGen = gen
	t.cellsMu.Lock()
	t.cellsMemo = make(map[int]int)
	t.cellsMu.Unlock()
}

// familiesAtOrder enumerates the candidate families of one order.
func (t *Tester) familiesAtOrder(r int) []contingency.VarSet {
	if t.familyGen != nil {
		return t.familyGen(r)
	}
	return contingency.Combinations(t.table.R(), r)
}

// cellID names one cell of one attribute family: its values as a
// row-major offset over the members ascending (first member slowest), the
// layout of the family's marginal table.
type cellID struct {
	family contingency.VarSet
	off    int
}

// cellOffset returns the row-major offset of values within the family,
// and false when values has the wrong length, names an attribute beyond
// the table, holds a value out of range, or the offset would overflow —
// a cell that cannot exist has no offset to alias another cell's.
func (t *Tester) cellOffset(family contingency.VarSet, values []int) (int, bool) {
	off, i := 0, 0
	for wi, nw := 0, family.NumWords(); wi < nw; wi++ {
		for w := family.Word(wi); w != 0; w &= w - 1 {
			p := wi*64 + bits.TrailingZeros64(w)
			if i >= len(values) || p >= t.table.R() {
				return 0, false
			}
			card, v := t.table.Card(p), values[i]
			if v < 0 || v >= card || off > (math.MaxInt-v)/card {
				return 0, false
			}
			off = off*card + v
			i++
		}
	}
	return off, i == len(values)
}

// MarkSignificant records a cell as an accepted constraint (the discovery
// loop calls this after each selection; callers may also seed it with
// "originally given" constraints, per the memo).
func (t *Tester) MarkSignificant(family contingency.VarSet, values []int) error {
	count, err := t.marginalCount(family, values)
	if err != nil {
		return fmt.Errorf("mml: marking significant cell: %w", err)
	}
	off, ok := t.cellOffset(family, values)
	if !ok {
		return fmt.Errorf("mml: marking significant cell: no cell %v%v", family, values)
	}
	k := cellID{family, off}
	if t.sigKeys[k] {
		return fmt.Errorf("mml: cell %v%v already marked significant", family, values)
	}
	t.sigKeys[k] = true
	t.sig[family] = append(t.sig[family], SignificantCell{
		Family: family,
		Values: append([]int(nil), values...),
		Count:  count,
	})
	t.sigPerOrder[family.Len()]++
	return nil
}

// IsSignificant reports whether the exact family cell has been marked. A
// cell that cannot exist — values of the wrong length or out of range —
// is never significant.
func (t *Tester) IsSignificant(family contingency.VarSet, values []int) bool {
	off, ok := t.cellOffset(family, values)
	return ok && t.sigKeys[cellID{family, off}]
}

// SignificantAtOrder returns M, the number of accepted order-r cells.
func (t *Tester) SignificantAtOrder(r int) int { return t.sigPerOrder[r] }

// CellsAtOrder returns the total number of cells across the order-r
// candidate attribute families — the memo's "no. of cells at this order"
// (16 for the example's second order). With a restricted family universe
// (RestrictFamilies) only the eligible families' cells are counted.
func (t *Tester) CellsAtOrder(r int) int {
	t.cellsMu.RLock()
	n, ok := t.cellsMemo[r]
	t.cellsMu.RUnlock()
	if ok {
		return n
	}
	total := 0
	for _, fam := range t.familiesAtOrder(r) {
		size := 1
		for _, p := range fam.Members() {
			size *= t.table.Card(p)
		}
		total += size
	}
	// Racing scorers compute the same total; last store is idempotent.
	t.cellsMu.Lock()
	t.cellsMemo[r] = total
	t.cellsMu.Unlock()
	return total
}

// familyScan is what scoring needs to know about one candidate family,
// worked out once per family rather than once per cell: its members'
// cardinalities and its proper sub-families — the constraining marginals
// of Eq. 41.
type familyScan struct {
	family contingency.VarSet
	cards  []int // cardinality of each member, members ascending
	subs   []subFamily
}

// subFamily is one proper sub-family of a scanned family.
type subFamily struct {
	vs contingency.VarSet
	// keep lists the indices into the family's members that the
	// sub-family keeps, ascending.
	keep []int
	// avail is the number of family cells consistent with one cell of
	// the sub-family.
	avail int64
}

// newFamilyScan works out the family's scan state. The family's members
// must lie within the table.
func (t *Tester) newFamilyScan(family contingency.VarSet) *familyScan {
	members := family.Members()
	fs := &familyScan{family: family, cards: make([]int, len(members))}
	for i, p := range members {
		fs.cards[i] = t.table.Card(p)
	}
	for _, sub := range family.ProperSubsets() {
		sf := subFamily{vs: sub, avail: 1}
		for i, p := range members {
			if sub.Has(p) {
				sf.keep = append(sf.keep, i)
			} else {
				sf.avail *= int64(fs.cards[i])
			}
		}
		fs.subs = append(fs.subs, sf)
	}
	return fs
}

// chanceRange implements the generalized Eq. 41 for one cell of the
// scanned family. It returns:
//
//	forced — true when some known marginal leaves the cell no freedom
//	         (≤1 free cell on that margin), so its value is determined and
//	         p(D|H2) = 1;
//	rangeMax — otherwise, the largest value the cell could take by chance:
//	         the minimum slack over known marginals after subtracting
//	         significant sibling cells.
func (t *Tester) chanceRange(fs *familyScan, values []int) (forced bool, rangeMax int64, err error) {
	siblings := t.sig[fs.family]
	rangeMax = math.MaxInt64
	sawKnown := false
	for si := range fs.subs {
		sub := &fs.subs[si]
		off := 0
		for _, i := range sub.keep {
			off = off*fs.cards[i] + values[i]
		}
		known := len(sub.keep) == 1 || t.sigKeys[cellID{sub.vs, off}]
		if !known {
			continue
		}
		sawKnown = true
		marginVal, merr := t.subCount(sub, off, values)
		if merr != nil {
			return false, 0, merr
		}
		var sibSum int64
		var sibCount int64
		for _, s := range siblings {
			if agreesOn(s.Values, values, sub.keep) {
				// The candidate itself is never in siblings: callers test
				// only unmarked cells.
				sibSum += s.Count
				sibCount++
			}
		}
		if sub.avail-sibCount <= 1 {
			return true, 0, nil
		}
		if slack := marginVal - sibSum; slack < rangeMax {
			rangeMax = slack
		}
	}
	if !sawKnown {
		// Cannot happen for order >= 2 (first-order marginals are always
		// known), but guard the degenerate call.
		return false, t.table.Total(), nil
	}
	if rangeMax < 0 {
		return false, 0, fmt.Errorf("mml: negative chance range for %v%v", fs.family, values)
	}
	return false, rangeMax, nil
}

// subCount is the observed count of the sub-family cell at offset off,
// which the family cell values restricts to: a lookup in the sub-family's
// marginal table, or the backend's MarginalCount when it has none.
func (t *Tester) subCount(sub *subFamily, off int, values []int) (int64, error) {
	if m := t.marginal(sub.vs); m != nil {
		return m.Counts()[off], nil
	}
	restriction := make([]int, len(sub.keep))
	for k, i := range sub.keep {
		restriction[k] = values[i]
	}
	return t.table.MarginalCount(sub.vs, restriction)
}

// marginalCount is Counts.MarginalCount served from the family's marginal
// table. Invalid values, and families or backends the tester cannot
// project, go to the backend's own MarginalCount, so results and error
// messages never depend on the cache.
func (t *Tester) marginalCount(family contingency.VarSet, values []int) (int64, error) {
	if m := t.marginal(family); m != nil {
		if n, err := m.At(values...); err == nil {
			return n, nil
		}
	}
	return t.table.MarginalCount(family, values)
}

// marginal returns the family's marginal table, projecting and publishing
// it on first use, or nil when the backend cannot project the family (the
// empty family, or one beyond its axes).
// Racing builders compute equal tables and the first publication wins.
func (t *Tester) marginal(family contingency.VarSet) *contingency.Table {
	t.margMu.RLock()
	m, ok := t.margs[family]
	t.margMu.RUnlock()
	if ok {
		return m
	}
	m, err := t.table.Marginalize(family)
	if err != nil {
		return nil
	}
	t.margMu.Lock()
	defer t.margMu.Unlock()
	if prev, ok := t.margs[family]; ok {
		return prev
	}
	t.margs[family] = m
	return m
}

// agreesOn reports whether a sibling cell's values match the candidate's on
// the family member indices keep (a sub-family's); both value slices are
// in family member order.
func agreesOn(sibling, candidate []int, keep []int) bool {
	for _, i := range keep {
		if sibling[i] != candidate[i] {
			return false
		}
	}
	return true
}
