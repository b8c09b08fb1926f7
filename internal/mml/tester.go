package mml

import (
	"fmt"
	"math"
	"strconv"
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
	// sigKeys dedupes accepted cells across families.
	sigKeys map[string]bool
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
		sigKeys:     make(map[string]bool),
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

func cellKey(family contingency.VarSet, values []int) string {
	b := family.AppendKey(make([]byte, 0, 24+4*len(values)))
	b = append(b, ':')
	for _, v := range values {
		b = strconv.AppendInt(b, int64(v), 10)
		b = append(b, ',')
	}
	return string(b)
}

// MarkSignificant records a cell as an accepted constraint (the discovery
// loop calls this after each selection; callers may also seed it with
// "originally given" constraints, per the memo).
func (t *Tester) MarkSignificant(family contingency.VarSet, values []int) error {
	count, err := t.marginalCount(family, values)
	if err != nil {
		return fmt.Errorf("mml: marking significant cell: %w", err)
	}
	k := cellKey(family, values)
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

// IsSignificant reports whether the exact family cell has been marked.
func (t *Tester) IsSignificant(family contingency.VarSet, values []int) bool {
	return t.sigKeys[cellKey(family, values)]
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

// chanceRange implements the generalized Eq. 41. It returns:
//
//	forced — true when some known marginal leaves the cell no freedom
//	         (≤1 free cell on that margin), so its value is determined and
//	         p(D|H2) = 1;
//	rangeMax — otherwise, the largest value the cell could take by chance:
//	         the minimum slack over known marginals after subtracting
//	         significant sibling cells.
func (t *Tester) chanceRange(family contingency.VarSet, values []int) (forced bool, rangeMax int64, err error) {
	members := family.Members()
	pos := make(map[int]int, len(members)) // attribute -> index into values
	for i, p := range members {
		pos[p] = i
	}
	siblings := t.sig[family]
	rangeMax = math.MaxInt64
	sawKnown := false
	for _, sub := range family.ProperSubsets() {
		subMembers := sub.Members()
		restriction := make([]int, len(subMembers))
		for i, p := range subMembers {
			restriction[i] = values[pos[p]]
		}
		known := sub.Len() == 1 || t.IsSignificant(sub, restriction)
		if !known {
			continue
		}
		sawKnown = true
		marginVal, merr := t.marginalCount(sub, restriction)
		if merr != nil {
			return false, 0, merr
		}
		// Cells of this family consistent with the restriction.
		avail := int64(1)
		for _, p := range members {
			if !sub.Has(p) {
				avail *= int64(t.table.Card(p))
			}
		}
		var sibSum int64
		var sibCount int64
		for _, s := range siblings {
			if agreesOn(s.Values, values, members, sub) {
				// The candidate itself is never in siblings: callers test
				// only unmarked cells.
				sibSum += s.Count
				sibCount++
			}
		}
		if avail-sibCount <= 1 {
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
		return false, 0, fmt.Errorf("mml: negative chance range for %v%v", family, values)
	}
	return false, rangeMax, nil
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
// the attributes of sub. members lists the family's attributes ascending;
// both value slices are in that order.
func agreesOn(sibling, candidate []int, members []int, sub contingency.VarSet) bool {
	for i, p := range members {
		if sub.Has(p) && sibling[i] != candidate[i] {
			return false
		}
	}
	return true
}
