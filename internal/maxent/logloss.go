package maxent

import (
	"fmt"
	"math"

	"pka/internal/contingency"
)

// LogLoss returns the average negative log-likelihood (nats per sample) the
// snapshot assigns to observed data — the held-out and deployment-time
// validation measure. Cells the model rules out while the data occupies
// them give +Inf. The counts may be dense or sparse, and the snapshot dense
// or factored: only occupied cells contribute, each scored by one CellProb
// evaluation, so the joint is never materialized.
func (c *Compiled) LogLoss(t contingency.Counts) (float64, error) {
	if t.Total() == 0 {
		return 0, fmt.Errorf("maxent: empty validation table")
	}
	if t.R() != c.R() {
		return 0, fmt.Errorf("maxent: table has %d attributes, model %d", t.R(), c.R())
	}
	for i := 0; i < t.R(); i++ {
		if t.Card(i) != c.cards[i] {
			return 0, fmt.Errorf("maxent: axis %d has %d values in table, %d in model", i, t.Card(i), c.cards[i])
		}
	}
	var loss float64
	var ruledOut bool
	var visitErr error
	t.EachCell(func(cell []int, n int64) {
		if n == 0 || ruledOut || visitErr != nil {
			return
		}
		p, err := c.CellProb(cell)
		if err != nil {
			visitErr = err
			return
		}
		if p <= 0 {
			ruledOut = true
			return
		}
		loss -= float64(n) * math.Log(p)
	})
	if visitErr != nil {
		return 0, visitErr
	}
	if ruledOut {
		return math.Inf(1), nil
	}
	return loss / float64(t.Total()), nil
}
