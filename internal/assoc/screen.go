package assoc

import (
	"math"

	"pka/internal/contingency"
	"pka/internal/stats"
)

// ScreenPairs is the association screen's test: for every attribute pair
// of a dense or sparse table, in lexicographic (i, j) order, it calls
// keep(i, j) when the pair's G² rejects independence at alpha, that is
// when stats.ChiSquareSF(G², df) <= alpha with df = (card_i-1)(card_j-1).
// Pairs are read as in ScorePairs (the pair-count ledger at 65 or more
// attributes), and G² is the bit-identical value ScorePairs reports, but
// nothing else is computed: no mutual information, X² or Cramér's V, and
// the chi-square tail is evaluated only for pairs whose G² lies near the
// critical value (see screenCut). The decisions are exactly those of
// comparing ScorePairs' PValue with alpha.
//
// The error cases and the concurrency contract are those of ScorePairs.
func ScreenPairs(c contingency.Counts, alpha float64, keep func(i, j int)) error {
	table, err := pairTables(c)
	if err != nil {
		return err
	}
	cards := contingency.CardsOf(c)
	n := float64(c.Total())
	var sc pairScratch
	var cuts []screenCut
	for i := range cards {
		for j := i + 1; j < len(cards); j++ {
			obs, err := table(i, j)
			if err != nil {
				return err
			}
			ci, cj := cards[i], cards[j]
			g2, _, err := pairG2(obs, ci, cj, n, sc.floats(ci*cj+ci+cj))
			if err != nil {
				return err
			}
			df := (ci - 1) * (cj - 1)
			k := 0
			for k < len(cuts) && cuts[k].df != df {
				k++
			}
			if k == len(cuts) {
				cuts = append(cuts, newScreenCut(df, alpha))
			}
			if cuts[k].rejects(g2) {
				keep(i, j)
			}
		}
	}
	return nil
}

// screenCut decides ChiSquareSF(g2, df) <= alpha for one (df, alpha) from
// a critical value, so a screen evaluates the chi-square tail — a series
// or continued fraction of up to a thousand terms — only near it.
type screenCut struct {
	df    int
	alpha float64
	// crit is a float64 x >= 0 with ChiSquareSF(x, df) <= alpha whose
	// predecessor fails that test: the least one, were the tail exactly
	// monotone. It is 0 when x = 0 passes, +Inf when MaxFloat64 fails.
	crit float64
}

// newScreenCut bisects the non-negative float64s, ordered by their bit
// patterns, for crit: at most 64 evaluations of ChiSquareSF.
func newScreenCut(df int, alpha float64) screenCut {
	s := screenCut{df: df, alpha: alpha}
	passes := func(x float64) bool { return stats.ChiSquareSF(x, df) <= alpha }
	switch {
	case passes(0):
		s.crit = 0
	case !passes(math.MaxFloat64):
		s.crit = math.Inf(1)
	default:
		lo, hi := uint64(0), math.Float64bits(math.MaxFloat64)
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if passes(math.Float64frombits(mid)) {
				hi = mid
			} else {
				lo = mid
			}
		}
		s.crit = math.Float64frombits(hi)
	}
	return s
}

// rejects reports whether ChiSquareSF(g2, df) <= alpha. The tail falls
// monotonically in g2 up to rounding in its last bits, and halving or
// doubling g2 moves it much further than that, so a positive finite g2
// more than twice crit passes and one below half of crit fails. Within
// that margin, and for g2 <= 0, NaN or +Inf, the tail itself decides.
func (s *screenCut) rejects(g2 float64) bool {
	if g2 > 0 && g2 <= math.MaxFloat64 {
		if g2 > 2*s.crit {
			return true
		}
		if g2 < s.crit/2 {
			return false
		}
	}
	return stats.ChiSquareSF(g2, s.df) <= s.alpha
}
