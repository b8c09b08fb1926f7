package contingency

import (
	"fmt"

	"pka/internal/par"
)

// PairCounts is the pair-count ledger: every attribute pair's dense
// card_i × card_j count table in one flat slab. Pair (i, j), i < j, sits
// after every pair (i', j') with i' < i, or i' == i and j' < j — the
// lexicographic order of Combinations(R, 2) — and its table is row-major
// over (value of i, value of j).
//
// It is derived state of a Sparse table, like its cached projections: the
// wide pairwise screen reads every pair from it, and every mutation folds
// its changed cells into it in place (O(pairs) per distinct changed cell),
// so re-screening a table under streaming ingest never rescans the
// occupied cells. It does not travel in Clone or in snapshots.
type PairCounts struct {
	cards []int
	// rowOff[i] is the offset of pair (i, i+1); cum[j] = Σ_{l<j} card_l,
	// so pair (i, j) starts at rowOff[i] + card_i·(cum[j] - cum[i+1]).
	rowOff []int
	cum    []int
	counts []int64
}

// maxKeptPairCountBytes is the largest ledger a table keeps. A bigger one
// is counted for the call that asks and dropped afterwards, so a very wide
// schema cannot pin more than this much derived state.
const maxKeptPairCountBytes = 256 << 20

// newPairCounts lays out an all-zero ledger for the cardinalities, or
// fails when its slab would exceed the dense-table cell limit.
func newPairCounts(cards []int) (*PairCounts, error) {
	r := len(cards)
	tooBig := func() error {
		return fmt.Errorf("contingency: pair-count ledger over %d attributes would exceed %d cells", r, maxDenseCells)
	}
	p := &PairCounts{cards: cards, rowOff: make([]int, r), cum: make([]int, r+1)}
	for j, c := range cards {
		if c > maxDenseCells && r > 1 {
			return nil, tooBig()
		}
		p.cum[j+1] = p.cum[j] + c
	}
	size := 0
	for i, c := range cards {
		p.rowOff[i] = size
		rest := p.cum[r] - p.cum[i+1]
		if rest > 0 && c > (maxDenseCells-size)/rest {
			return nil, tooBig()
		}
		size += c * rest
	}
	p.counts = make([]int64, size)
	return p, nil
}

// Counts returns pair (i, j)'s card_i × card_j table, row-major; i < j.
// The slice is the live ledger: read-only, and current only until the
// next mutation of the table it came from.
func (p *PairCounts) Counts(i, j int) []int64 {
	ci := p.cards[i]
	off := p.rowOff[i] + ci*(p.cum[j]-p.cum[i+1])
	return p.counts[off : off+ci*p.cards[j]]
}

// add folds one validated cell delta into every pair's table.
func (p *PairCounts) add(cell []int, delta int64) {
	counts := p.counts
	off := 0
	for i, a := range cell {
		ci := p.cards[i]
		for j := i + 1; j < len(cell); j++ {
			cj := p.cards[j]
			counts[off+a*cj+cell[j]] += delta
			off += ci * cj
		}
	}
}

// bytes is the ledger's resident size.
func (p *PairCounts) bytes() int64 {
	return int64(8*len(p.counts) + 8*(len(p.rowOff)+len(p.cum)))
}

// PairCounts returns the table's pair-count ledger, building it on first
// use and keeping it for the table's lifetime; from then on every
// mutation keeps it current. A ledger over maxKeptPairCountBytes is built
// for this call only. The build decodes the occupied cells once into
// narrow columns and spreads the pairs over workers (Options.Workers
// semantics); its integer adds make the result independent of the worker
// count.
//
// Safe for concurrent readers: racing first callers each count the same
// ledger and the first publication wins, as for projections.
func (s *Sparse) PairCounts(workers int) (*PairCounts, error) {
	return s.pairCounts(workers, maxKeptPairCountBytes)
}

// pairCounts is PairCounts with the keep ceiling as a parameter.
func (s *Sparse) pairCounts(workers int, keepBytes int64) (*PairCounts, error) {
	if p := s.cachedPairCounts(); p != nil {
		return p, nil
	}
	p, err := s.buildPairCounts(workers)
	if err != nil {
		return nil, err
	}
	s.pairCountBuilds.Add(1)
	if p.bytes() > keepBytes {
		return p, nil
	}
	s.projMu.Lock()
	defer s.projMu.Unlock()
	if s.pairs == nil {
		s.pairs = p
	}
	return s.pairs, nil
}

// PairCountBuilds reports how many times the pair-count ledger has been
// counted from the occupied cells — observability for the streaming
// invariant that mutation maintains the ledger instead of dropping it.
func (s *Sparse) PairCountBuilds() int64 { return s.pairCountBuilds.Load() }

// cachedPairCounts returns the kept ledger, or nil.
func (s *Sparse) cachedPairCounts() *PairCounts {
	s.projMu.RLock()
	defer s.projMu.RUnlock()
	return s.pairs
}

// buildPairCounts counts a fresh ledger from the occupied cells.
func (s *Sparse) buildPairCounts(workers int) (*PairCounts, error) {
	p, err := newPairCounts(s.cards)
	if err != nil {
		return nil, err
	}
	narrow := true
	for _, c := range s.cards {
		narrow = narrow && c <= 1<<8
	}
	if narrow {
		fillPairCounts[uint8](p, s, workers)
	} else {
		fillPairCounts[int](p, s, workers)
	}
	return p, nil
}

// fillPairCounts decodes every occupied cell once into column-major
// columns of T (bytes whenever every cardinality allows), then counts each
// pair's table from its two columns. Tasks own whole rows of pairs (all j
// for one i), so their slab regions are disjoint.
func fillPairCounts[T uint8 | int](p *PairCounts, s *Sparse, workers int) {
	r, n := len(s.cards), s.store.occupied()
	slab := make([]T, r*n)
	counts := make([]int64, 0, n)
	s.store.each(make([]int, r), func(cell []int, c int64) {
		row := len(counts)
		for i, v := range cell {
			slab[i*n+row] = T(v)
		}
		counts = append(counts, c)
	})
	// The tasks cannot fail, so neither can Do.
	_ = par.Do(r-1, workers, func(i int) error {
		ci := slab[i*n : (i+1)*n]
		for j := i + 1; j < r; j++ {
			cj := slab[j*n : (j+1)*n]
			card := p.cards[j]
			tab := p.Counts(i, j)
			for k, c := range counts {
				tab[int(ci[k])*card+int(cj[k])] += c
			}
		}
		return nil
	})
}
