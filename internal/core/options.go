package core

import (
	"fmt"

	"pka/internal/contingency"
	"pka/internal/maxent"
	"pka/internal/mml"
)

// Options tunes a discovery run. The zero value requests the memo's
// defaults: scan every order up to R, p(H2') = 0.5, Gauss–Seidel solving at
// library precision.
type Options struct {
	// MaxOrder caps the highest attribute-family order scanned; 0 means
	// the table's full order R. The memo scans second order, then third,
	// and so on (Figure 3's r loop).
	MaxOrder int
	// MML configures the significance test (prior, forced-cell policy).
	// The zero value is patched to mml.DefaultConfig().
	MML mml.Config
	// Solve configures the per-refit maxent solver. A zero Tol means
	// countScaleTol at the table's sample size.
	Solve maxent.SolveOptions
	// MaxConstraints aborts a runaway run after this many accepted
	// higher-order constraints; 0 means no cap.
	MaxConstraints int
	// RecordScans stores every full scan's CellTest rows in the result —
	// needed to regenerate Table 1; costs memory on large spaces.
	RecordScans bool
	// Workers fans the run's one parallel stage, the per-family
	// significance scans, out over a goroutine pool; the association
	// screen runs serially. 0 uses GOMAXPROCS, 1 forces the sequential
	// loop. Results are bit-identical either way.
	Workers int
	// ScreenPairs enables association-based candidate screening: before
	// scanning, every attribute pair's association is surveyed (one dense
	// 2-D projection per pair), and order >= 2 scans visit only families
	// whose member pairs all pass the screen — the combinatorial bound
	// that makes wide-schema discovery tractable. Screening changes which
	// candidates are priced (and so the Eq. 45 cells-at-order term); with
	// it off, discovery over a sparse backend is bit-identical to the
	// dense run on the same counts.
	ScreenPairs bool
	// ScreenAlpha is the pairwise G² p-value a pair must beat to pass the
	// screen. 0 means the Bonferroni default 0.05 / (number of pairs).
	ScreenAlpha float64
	// ScreenCI adds a conditional-independence pass on top of the pairwise
	// screen (requires ScreenPairs): for every surviving pair, each common
	// neighbor k is tried as a separator with a per-slice G² test of
	// i ⊥ j | k, and pairs some k renders independent are dropped from the
	// adjacency before order >= 2 families are enumerated. This is the
	// PC-algorithm order-1 refinement: on wide schemas it prunes the
	// transitive edges a marginal-only screen keeps, shrinking the clique
	// universe the family scan walks.
	ScreenCI bool
	// ScreenCIAlpha is the p-value above which a conditional test counts
	// as "independent given k" (larger drops more edges). 0 means 0.05.
	ScreenCIAlpha float64

	// predictor builds the scan predictor for a model. It defaults to the
	// model itself — Model.Marginal satisfies mml.Predictor, serving one
	// batch elimination sweep per family from the compiled engine — and is
	// unexported so only the equivalence test can swap in the legacy
	// per-cell path and assert bit-identical discovery results.
	predictor func(m *maxent.Model) mml.Predictor
}

// withDefaults fills in the defaults for a run over table and validates
// the result.
func (o Options) withDefaults(table contingency.Counts) (Options, error) {
	r := table.R()
	if o.MaxOrder == 0 {
		o.MaxOrder = r
	}
	if o.predictor == nil {
		o.predictor = func(m *maxent.Model) mml.Predictor { return m }
	}
	if o.MaxOrder < 2 || o.MaxOrder > r {
		return o, fmt.Errorf("core: MaxOrder %d outside [2,%d]", o.MaxOrder, r)
	}
	if o.Solve.Tol == 0 {
		o.Solve.Tol = countScaleTol(table.Total())
	}
	if o.MML.PriorH2 == 0 {
		o.MML.PriorH2 = mml.DefaultConfig().PriorH2
	}
	if o.MaxConstraints < 0 {
		return o, fmt.Errorf("core: negative MaxConstraints %d", o.MaxConstraints)
	}
	if o.ScreenAlpha < 0 || o.ScreenAlpha >= 1 {
		return o, fmt.Errorf("core: ScreenAlpha %g outside [0,1)", o.ScreenAlpha)
	}
	if o.ScreenCI && !o.ScreenPairs {
		return o, fmt.Errorf("core: ScreenCI refines the pairwise adjacency and requires ScreenPairs")
	}
	if o.ScreenCIAlpha < 0 || o.ScreenCIAlpha >= 1 {
		return o, fmt.Errorf("core: ScreenCIAlpha %g outside [0,1)", o.ScreenCIAlpha)
	}
	return o, nil
}
