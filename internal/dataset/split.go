package dataset

import (
	"fmt"

	"pka/internal/contingency"
)

// TrainTestSplit splits a record-count table into train and test tables by
// assigning each sample independently to test with probability testFrac,
// using the supplied uniform variates source for determinism.
//
// Splitting happens at count level: for a cell with n samples the test
// count is binomial(n, testFrac) — equivalent to shuffling the underlying
// records.
func TrainTestSplit(t *contingency.Table, testFrac float64, uniform func() float64) (train, test *contingency.Table, err error) {
	if testFrac <= 0 || testFrac >= 1 {
		return nil, nil, fmt.Errorf("dataset: test fraction %g outside (0,1)", testFrac)
	}
	if uniform == nil {
		return nil, nil, fmt.Errorf("dataset: nil uniform source")
	}
	train, err = contingency.New(t.Names(), t.Cards())
	if err != nil {
		return nil, nil, err
	}
	test, err = contingency.New(t.Names(), t.Cards())
	if err != nil {
		return nil, nil, err
	}
	var outer error
	t.EachCell(func(cell []int, count int64) {
		if outer != nil {
			return
		}
		var toTest int64
		for s := int64(0); s < count; s++ {
			if uniform() < testFrac {
				toTest++
			}
		}
		if err := test.Add(toTest, cell...); err != nil {
			outer = err
			return
		}
		if err := train.Add(count-toTest, cell...); err != nil {
			outer = err
		}
	})
	if outer != nil {
		return nil, nil, outer
	}
	return train, test, nil
}
