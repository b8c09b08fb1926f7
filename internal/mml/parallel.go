package mml

import (
	"fmt"

	"pka/internal/contingency"
	"pka/internal/par"
)

// ScanOrderParallel scores every not-yet-significant cell of every order-r
// family and returns the tests in deterministic (family, cell) order — one
// full scan of the memo's Figure 3 inner loop. The families that still
// have an open cell are priced in one predictor call, so a dense model
// folds each elimination buffer they share once (maxent.Model.Marginals);
// a fully promoted family has nothing left to test and is left out of the
// request (repeat passes at one order hit this). The families are then
// scored over the shared worker pool (par.Do). Results are identical for
// any worker count (same order, same values); only wall time changes.
// workers <= 0 uses GOMAXPROCS; 1 runs on the calling goroutine.
//
// The scoring fan-out was re-measured once the shared walk had made the
// folds a small part of the scan: on a 2-CPU host, in-process discovery
// alternating workers 1 and 2 in 10 paired groups, scoring on two workers
// won 10 of 10 at acquire_wide's shape (median 83.0 to 76.6 ms) and 6 of
// 10 at acquire_dense's (CHANGES.md). The dense walk itself runs on the
// calling goroutine.
//
// Scoring is read-only on the tester, and the predictor must be safe for
// concurrent use — compiled model engines are.
func (t *Tester) ScanOrderParallel(r int, pred Predictor, workers int) ([]CellTest, error) {
	if r < 2 || r > t.table.R() {
		return nil, fmt.Errorf("mml: scan order %d outside [2,%d]", r, t.table.R())
	}
	var families []contingency.VarSet
	for _, fam := range t.familiesAtOrder(r) {
		if len(t.sig[fam]) < t.familySize(fam) {
			families = append(families, fam)
		}
	}
	margs, err := pred.Marginals(families, workers)
	if err != nil {
		return nil, err
	}
	if len(margs) != len(families) {
		return nil, fmt.Errorf("mml: predictor returned %d marginals for %d families", len(margs), len(families))
	}
	results := make([][]CellTest, len(families))
	if err := par.Do(len(families), workers, func(i int) error {
		var err error
		results[i], err = t.scanFamily(families[i], margs[i])
		return err
	}); err != nil {
		return nil, err
	}
	n := 0
	for _, tests := range results {
		n += len(tests)
	}
	out := make([]CellTest, 0, n)
	for _, tests := range results {
		out = append(out, tests...)
	}
	return out, nil
}
