package mml

import (
	"fmt"

	"pka/internal/par"
)

// ScanOrderParallel scores every not-yet-significant cell of every order-r
// family, drawing model probabilities one batch marginal per family, and
// returns the tests in deterministic (family, cell) order — one full scan
// of the memo's Figure 3 inner loop. Families are priced over the shared
// worker pool (par.Do): each costs one batch marginal sweep plus its cell
// tests, so families are the natural unit of parallel work. Results are
// identical for any worker count (same order, same values); only wall time
// changes. workers <= 0 uses GOMAXPROCS; 1 runs the families sequentially
// on the calling goroutine. Measured on 2 CPUs, one worker made
// acquire_dense discovery 28% slower (op_p50_ms, 6 of 6 paired seeds;
// CHANGES.md).
//
// Scoring is read-only on the tester, and the predictor must be safe for
// concurrent use — compiled model engines are.
func (t *Tester) ScanOrderParallel(r int, pred Predictor, workers int) ([]CellTest, error) {
	if r < 2 || r > t.table.R() {
		return nil, fmt.Errorf("mml: scan order %d outside [2,%d]", r, t.table.R())
	}
	families := t.familiesAtOrder(r)
	results := make([][]CellTest, len(families))
	if err := par.Do(len(families), workers, func(i int) error {
		var err error
		results[i], err = t.scanFamily(families[i], pred)
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
