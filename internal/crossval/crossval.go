// Package crossval selects discovery hyperparameters by k-fold
// cross-validation — the modern answer to "how deep should the level-wise
// scan go?" that the memo leaves to the analyst. Folds are sampled at count
// level from the contingency table, models are discovered on k−1 folds and
// scored by held-out log loss on the remaining one.
package crossval

import (
	"fmt"

	"pka/internal/contingency"
	"pka/internal/core"
	"pka/internal/stats"
)

// OrderScore is the cross-validated loss of one MaxOrder candidate.
type OrderScore struct {
	MaxOrder int
	// MeanLoss is the average held-out log loss (nats/sample) across
	// the scored folds; +Inf when any fold's model zeroes an occupied
	// held-out cell.
	MeanLoss float64
	// FoldLosses holds the per-fold losses, in fold order. A fold that drew
	// no samples is not scored and has no entry.
	FoldLosses []float64
	// MeanFindings is the average number of accepted constraints across
	// the scored folds.
	MeanFindings float64
}

// SelectMaxOrder evaluates every MaxOrder in [2, maxOrder] with k-fold
// cross-validation and returns the scores (ascending order) plus the index
// of the winner (lowest mean loss; ties to the smaller order).
//
// The RNG drives the fold assignment; fixed seeds give reproducible splits.
func SelectMaxOrder(table *contingency.Table, maxOrder, folds int, rng *stats.RNG, opts core.Options) ([]OrderScore, int, error) {
	if table.Total() == 0 {
		return nil, 0, fmt.Errorf("crossval: empty table")
	}
	if maxOrder < 2 || maxOrder > table.R() {
		return nil, 0, fmt.Errorf("crossval: maxOrder %d outside [2,%d]", maxOrder, table.R())
	}
	if folds < 2 {
		return nil, 0, fmt.Errorf("crossval: need at least 2 folds, got %d", folds)
	}
	if int64(folds) > table.Total() {
		return nil, 0, fmt.Errorf("crossval: %d folds for %d samples", folds, table.Total())
	}
	if rng == nil {
		return nil, 0, fmt.Errorf("crossval: nil RNG")
	}
	foldTables, err := split(table, folds, rng)
	if err != nil {
		return nil, 0, err
	}
	var scores []OrderScore
	for order := 2; order <= maxOrder; order++ {
		sc := OrderScore{MaxOrder: order}
		sumLoss := 0.0
		sumFind := 0.0
		for heldIdx, held := range foldTables {
			if held.Total() == 0 {
				continue
			}
			train, err := trainingTable(foldTables, heldIdx)
			if err != nil {
				return nil, 0, err
			}
			o := opts
			o.MaxOrder = order
			res, err := core.Discover(train, o)
			if err != nil {
				return nil, 0, fmt.Errorf("crossval: order %d fold %d: %w", order, heldIdx, err)
			}
			eng, err := res.Model.Compile()
			if err != nil {
				return nil, 0, err
			}
			loss, err := eng.LogLoss(held)
			if err != nil {
				return nil, 0, err
			}
			sc.FoldLosses = append(sc.FoldLosses, loss)
			sumLoss += loss
			sumFind += float64(len(res.Findings))
		}
		scored := float64(len(sc.FoldLosses))
		sc.MeanLoss = sumLoss / scored
		sc.MeanFindings = sumFind / scored
		scores = append(scores, sc)
	}
	best := 0
	for i := 1; i < len(scores); i++ {
		if scores[i].MeanLoss < scores[best].MeanLoss {
			best = i
		}
	}
	return scores, best, nil
}

// trainingTable pools every fold but the held-out one.
func trainingTable(foldTables []*contingency.Table, heldIdx int) (*contingency.Table, error) {
	train, err := contingency.New(foldTables[0].Names(), foldTables[0].Cards())
	if err != nil {
		return nil, err
	}
	for fi, ft := range foldTables {
		if fi == heldIdx {
			continue
		}
		var addErr error
		ft.EachCell(func(cell []int, count int64) {
			if addErr != nil || count == 0 {
				return
			}
			addErr = train.Add(count, cell...)
		})
		if addErr != nil {
			return nil, addErr
		}
	}
	return train, nil
}

// split distributes the table's samples over k fold tables.
func split(table *contingency.Table, folds int, rng *stats.RNG) ([]*contingency.Table, error) {
	out := make([]*contingency.Table, folds)
	for i := range out {
		t, err := contingency.New(table.Names(), table.Cards())
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	var outer error
	table.EachCell(func(cell []int, count int64) {
		if outer != nil {
			return
		}
		for s := int64(0); s < count; s++ {
			f := rng.Intn(folds)
			if err := out[f].Add(1, cell...); err != nil {
				outer = err
				return
			}
		}
	})
	if outer != nil {
		return nil, outer
	}
	return out, nil
}
