package contingency

import (
	"fmt"
	"math/bits"
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
// occupied cells. It is counted serially and exactly (fillPairCounts). It
// does not travel in Clone or in snapshots.
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
// for this call only. The build is serial (buildPairCounts); its exact
// integer counts make it equal to any other way of counting the cells.
//
// Safe for concurrent readers: racing first callers each count the same
// ledger and the first publication wins, as for projections.
func (s *Sparse) PairCounts() (*PairCounts, error) {
	return s.pairCounts(maxKeptPairCountBytes)
}

// pairCounts is PairCounts with the keep ceiling as a parameter.
func (s *Sparse) pairCounts(keepBytes int64) (*PairCounts, error) {
	if p := s.cachedPairCounts(); p != nil {
		return p, nil
	}
	p, err := s.buildPairCounts()
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
func (s *Sparse) buildPairCounts() (*PairCounts, error) {
	p, err := newPairCounts(s.cards)
	if err != nil {
		return nil, err
	}
	narrow := true
	for _, c := range s.cards {
		narrow = narrow && c <= 1<<8
	}
	if narrow {
		fillPairCounts[uint8](p, s)
	} else {
		fillPairCounts[int](p, s)
	}
	return p, nil
}

// maxPopcountCost is the largest (card_i−1)·(card_j−1)·planes for which
// fillPairCounts counts a pair by popcount. Each unit costs one AND-and-
// popcount sweep over occupied/64 words, against one pass over the
// occupied cells for the scatter loop, whose every step is a dependent,
// randomly addressed add; near 64 units the two cost about the same.
const maxPopcountCost = 64

// countsByPopcount reports whether fillPairCounts counts a pair of the
// cardinalities by popcount when the largest cell count has planes bits.
func countsByPopcount(ci, cj, planes int) bool {
	return (ci-1)*(cj-1)*planes <= maxPopcountCost
}

// fillPairCounts counts every pair's table exactly. One pass over the
// occupied cells decodes them into column-major columns of T (bytes
// whenever every cardinality allows) and sums each attribute's margin and
// the total. Then, for each pair:
//
//   - When (card_i−1)·(card_j−1)·planes is at most maxPopcountCost, where
//     planes is the bit length of the largest cell count, the inner
//     (card_i−1)×(card_j−1) block is counted by popcount over per-value
//     bitsets of the occupied cells: n(v,w) = Σ_k 2^k·|B_iv ∧ B_jw ∧ P_k|,
//     with P_k the cells whose count has bit k set. The last column is
//     each row's margin of i minus its inner cells, the last row each
//     column's margin of j minus its inner cells, and the last cell the
//     total minus the rest.
//   - Otherwise each occupied cell is scatter-added into the table.
//
// The choice depends on the schema and the counts only, and both sides
// are exact, so the ledger does not depend on it. Bitsets are built only
// for attributes in a popcount pair with a non-empty inner block, and
// only for values below the last, so a many-valued column that always
// scatters costs no bitset memory.
func fillPairCounts[T uint8 | int](p *PairCounts, s *Sparse) {
	cards := p.cards
	r, n := len(cards), s.store.occupied()
	slab := make([]T, r*n)
	counts := make([]int64, 0, n)
	margins := make([]int64, p.cum[r])
	var total, maxCount int64
	s.store.each(make([]int, r), func(cell []int, c int64) {
		row := len(counts)
		for i, v := range cell {
			slab[i*n+row] = T(v)
			margins[p.cum[i]+v] += c
		}
		counts = append(counts, c)
		total += c
		maxCount = max(maxCount, c)
	})
	planes := bits.Len64(uint64(maxCount))
	popcount := func(i, j int) bool { return countsByPopcount(cards[i], cards[j], planes) }

	// The bitset of attribute i's value v is sets[(setOff[i]+v)*nw:][:nw].
	nw := (n + 63) / 64
	setOff := make([]int, r)
	nsets := 0
	for i, ci := range cards {
		setOff[i] = -1
		for j, cj := range cards {
			if j != i && ci > 1 && cj > 1 && popcount(i, j) {
				setOff[i] = nsets
				nsets += ci - 1
				break
			}
		}
	}
	sets := make([]uint64, nsets*nw)
	for i, off := range setOff {
		for v := 0; off >= 0 && v < cards[i]-1; v++ {
			col, val := slab[i*n:(i+1)*n], T(v)
			for w := range sets[(off+v)*nw : (off+v+1)*nw] {
				var word uint64
				for b, x := range col[w*64 : min(n, w*64+64)] {
					var bit uint64
					if x == val {
						bit = 1
					}
					word |= bit << b
				}
				sets[(off+v)*nw+w] = word
			}
		}
	}
	// With every count 1 the one plane holds every cell, and is skipped.
	var planeSets []uint64
	if planes > 1 {
		planeSets = make([]uint64, planes*nw)
		for k, c := range counts {
			for b := uint64(c); b != 0; b &= b - 1 {
				planeSets[bits.TrailingZeros64(b)*nw+k>>6] |= 1 << (k & 63)
			}
		}
	}
	set := func(i, v int) []uint64 { return sets[(setOff[i]+v)*nw:][:nw] }

	for i := 0; i < r; i++ {
		ci, mi := cards[i], margins[p.cum[i]:p.cum[i+1]]
		coli := slab[i*n : (i+1)*n]
		for j := i + 1; j < r; j++ {
			cj, mj := cards[j], margins[p.cum[j]:p.cum[j+1]]
			tab := p.Counts(i, j)
			if !popcount(i, j) {
				colj := slab[j*n : (j+1)*n]
				for k, c := range counts {
					tab[int(coli[k])*cj+int(colj[k])] += c
				}
				continue
			}
			for v := 0; v < ci-1 && cj > 1; v++ {
				bv := set(i, v)
				for w := 0; w < cj-1; w++ {
					bw := set(j, w)
					if planes == 1 {
						tab[v*cj+w] = andCount(bv, bw)
						continue
					}
					var c int64
					for k := 0; k < planes; k++ {
						c += andCount3(bv, bw, planeSets[k*nw:][:nw]) << k
					}
					tab[v*cj+w] = c
				}
			}
			rest := total
			for v := 0; v < ci-1; v++ {
				row := tab[v*cj : (v+1)*cj]
				row[cj-1] = mi[v]
				for _, c := range row[:cj-1] {
					row[cj-1] -= c
				}
				rest -= mi[v]
			}
			lastRow := tab[(ci-1)*cj : ci*cj]
			for w := 0; w < cj-1; w++ {
				lastRow[w] = mj[w]
				for v := 0; v < ci-1; v++ {
					lastRow[w] -= tab[v*cj+w]
				}
				rest -= lastRow[w]
			}
			lastRow[cj-1] = rest
		}
	}
}

// andCount is |a ∧ b| over equal-length bitsets.
func andCount(a, b []uint64) int64 {
	b = b[:len(a)]
	n := 0
	for k, x := range a {
		n += bits.OnesCount64(x & b[k])
	}
	return int64(n)
}

// andCount3 is |a ∧ b ∧ m| over equal-length bitsets.
func andCount3(a, b, m []uint64) int64 {
	b, m = b[:len(a)], m[:len(a)]
	n := 0
	for k, x := range a {
		n += bits.OnesCount64(x & b[k] & m[k])
	}
	return int64(n)
}
