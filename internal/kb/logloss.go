package kb

import (
	"fmt"
	"math"

	"pka/internal/contingency"
)

// LogLoss returns the average negative log-likelihood (nats per sample) the
// knowledge base assigns to observed data — the deployment-time validation
// measure. Cells the model rules out while the data occupies them give
// +Inf. The validation counts may be dense or sparse: only occupied cells
// contribute, so a wide sparse holdout scores in O(occupied) cell
// evaluations without materializing the joint.
func (k *KnowledgeBase) LogLoss(t contingency.Counts) (float64, error) {
	if t.Total() == 0 {
		return 0, fmt.Errorf("kb: empty validation table")
	}
	if t.R() != k.model.R() {
		return 0, fmt.Errorf("kb: table has %d attributes, model %d", t.R(), k.model.R())
	}
	cards := k.model.Cards()
	for i := 0; i < t.R(); i++ {
		if t.Card(i) != cards[i] {
			return 0, fmt.Errorf("kb: axis %d has %d values in table, %d in model", i, t.Card(i), cards[i])
		}
	}
	// The dense full-joint walk needs both a dense table AND a dense
	// engine (wide factored models cannot materialize their joint); it is
	// kept bit-compatible with prior releases.
	if dense, ok := t.(*contingency.Table); ok && !k.eng.Factored() {
		joint, err := k.eng.Joint()
		if err != nil {
			return 0, err
		}
		var loss float64
		for i, c := range dense.Counts() {
			if c == 0 {
				continue
			}
			if joint[i] <= 0 {
				return math.Inf(1), nil
			}
			loss -= float64(c) * math.Log(joint[i])
		}
		return loss / float64(t.Total()), nil
	}
	var loss float64
	var ruledOut bool
	var visitErr error
	t.EachCell(func(cell []int, c int64) {
		if c == 0 || ruledOut || visitErr != nil {
			return
		}
		p, err := k.eng.CellProb(cell)
		if err != nil {
			visitErr = err
			return
		}
		if p <= 0 {
			ruledOut = true
			return
		}
		loss -= float64(c) * math.Log(p)
	})
	if visitErr != nil {
		return 0, visitErr
	}
	if ruledOut {
		return math.Inf(1), nil
	}
	return loss / float64(t.Total()), nil
}
