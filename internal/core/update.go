package core

import (
	"fmt"

	"pka/internal/contingency"
	"pka/internal/mml"
)

// UpdateOutcome reports what an incremental Update did, for observability
// and for the serving layer's ingest responses.
type UpdateOutcome struct {
	// Result is the updated discovery result: the refitted model plus the
	// cumulative findings. On a no-op delta it is the previous result,
	// untouched (same pointer).
	Result *Result
	// Retargeted counts constraints whose targets were recomputed because
	// their family marginal moved.
	Retargeted int
	// Added counts newly significant constraints promoted by the re-scan.
	Added int
	// Rediscovered reports that a structural invalidation (an implied-zero
	// cell gaining support, or a non-converging warm refit) forced a full
	// from-scratch rediscovery instead of the incremental path.
	Rediscovered bool
	// Refit reports whether any solve ran at all: false exactly when the
	// delta left every marginal unchanged, in which case the previous
	// model keeps serving bit-identically.
	Refit bool
	// FitSweeps is the warm refit's sweep count (worst block on the
	// factored path).
	FitSweeps int
	// BlocksFit and BlocksSkipped mirror the maxent report: how many
	// constraint blocks the warm refit re-solved versus kept (factored
	// engines only).
	BlocksFit     int
	BlocksSkipped int
}

// Update folds a count delta into a previous discovery result without
// re-deriving the knowledge base from scratch. The delta must ALREADY be
// applied to table (Counts.ApplyBatch); deltas describes what changed so
// Update can tell which marginals moved.
//
// The incremental pipeline: constraints whose family marginals moved are
// retargeted in place (maxent.SetTarget), the model warm-refits from the
// previous coefficient vector (per-block on factored engines — unmoved
// blocks keep their converged solution), and the level-wise significance
// scan re-tests only families whose marginals moved, promoting any newly
// significant cells exactly as scratch discovery would. With ScreenPairs
// on, the scan's candidates are the re-run pair screen's cliques (no
// all-pairs family list is built); the screen decides each pair from its
// G² alone (buildScreen).
//
// A delta whose net cell changes all have one sign — every observe batch,
// which only adds rows — moves every family's marginal, so the moved
// check costs nothing; only a delta that mixes additions and removals is
// projected onto each family (movedIndex).
//
// Update never demotes a constraint: previously significant structure is
// retargeted, not re-judged. Structural invalidations it cannot absorb —
// an implied-zero cell gaining support, or a warm refit that fails to
// converge — fall back to a full DiscoverCounts run on the updated table
// (Rediscovered reports this). A delta whose net effect on every marginal
// is zero returns the previous result untouched.
func Update(prev *Result, table contingency.Counts, deltas []contingency.CellDelta, opts Options) (*UpdateOutcome, error) {
	if prev == nil || prev.Model == nil {
		return nil, fmt.Errorf("core: Update needs a previous discovery result")
	}
	if table == nil {
		return nil, fmt.Errorf("core: Update needs the updated counts")
	}
	if table.R() != prev.Model.R() {
		return nil, fmt.Errorf("core: table has %d attributes, model has %d",
			table.R(), prev.Model.R())
	}
	if table.Total() == 0 {
		return nil, fmt.Errorf("core: empty contingency table after delta")
	}
	opts, err := opts.withDefaults(table)
	if err != nil {
		return nil, err
	}
	// The warm refit and the incremental scan keep the converged blocks
	// nothing moved; a fallback rediscovery runs with opts as given, so
	// it is the same scratch run DiscoverCounts would make.
	inc := opts
	inc.Solve.Incremental = true

	net, err := aggregateDeltas(deltas, contingency.CardsOf(table))
	if err != nil {
		return nil, err
	}
	if len(net) == 0 {
		// Every cell's net delta is zero: no marginal moved, the previous
		// model still answers every query bit-identically.
		return &UpdateOutcome{Result: prev}, nil
	}
	moved := newMovedIndex(net)

	model := prev.Model.Clone()
	out := &UpdateOutcome{Refit: true}

	// Retarget moved constraints; a previously-implied zero gaining support
	// is a structural change the incremental path cannot absorb.
	for _, c := range model.Constraints() {
		if !moved.moved(c.Family) {
			continue
		}
		n, err := table.MarginalCount(c.Family, c.Values)
		if err != nil {
			return nil, err
		}
		if c.Target == 0 {
			if n > 0 {
				return rediscover(table, opts)
			}
			continue
		}
		target := float64(n) / float64(table.Total())
		if target == c.Target {
			continue
		}
		if err := model.SetTarget(c.Family, c.Values, target); err != nil {
			return nil, err
		}
		out.Retargeted++
	}

	// Warm refit from the previous coefficient vector: the factored solver
	// re-solves only blocks whose families were retargeted.
	rep, err := model.Fit(inc.Solve)
	if err != nil || !rep.Converged {
		return rediscover(table, opts)
	}
	out.FitSweeps = rep.Sweeps
	out.BlocksFit = rep.BlocksFit
	out.BlocksSkipped = rep.BlocksSkipped

	// Re-scan for newly significant cells, restricted to families whose
	// marginals moved (the only families whose tests can change outcome by
	// counts; N-driven shifts move every family anyway).
	tester, err := mml.NewTester(table, opts.MML)
	if err != nil {
		return nil, err
	}
	accepted := make(map[contingency.VarSet][]acceptedCell)
	var kept []contingency.VarSet
	for _, c := range model.Constraints() {
		if c.Order() < 2 || c.Target == 0 {
			continue
		}
		if err := tester.MarkSignificant(c.Family, c.Values); err != nil {
			return nil, err
		}
		n, err := table.MarginalCount(c.Family, c.Values)
		if err != nil {
			return nil, err
		}
		accepted[c.Family] = append(accepted[c.Family], acceptedCell{values: c.Values, count: n})
		kept = append(kept, c.Family)
	}
	var adj [][]bool
	res := &Result{
		Model:        model,
		Findings:     append([]Finding(nil), prev.Findings...),
		TotalSamples: table.Total(),
		Screen:       prev.Screen,
	}
	if opts.ScreenPairs {
		var rep *ScreenReport
		adj, rep, err = buildScreen(table, opts.ScreenAlpha)
		if err != nil {
			return nil, err
		}
		if opts.ScreenCI {
			if err := applyCIScreen(table, adj, opts.ScreenCIAlpha, rep); err != nil {
				return nil, err
			}
		}
		res.Screen = rep
	}
	r := table.R()
	tester.RestrictFamilies(func(order int) []contingency.VarSet {
		var base []contingency.VarSet
		if adj != nil {
			base = screenedFamilies(r, order, adj, kept)
		} else {
			base = contingency.Combinations(r, order)
		}
		out := base[:0:0]
		for _, vs := range base {
			if moved.moved(vs) || hasFamily(kept, vs) {
				out = append(out, vs)
			}
		}
		return out
	})

	st := &scanState{
		table:    table,
		model:    model,
		tester:   tester,
		opts:     inc,
		res:      res,
		accepted: accepted,
		step:     len(prev.Findings),
	}
	if err := st.run(); err != nil {
		// The incremental scan can fail to refit when the warm coefficients
		// sit badly for a new constraint; scratch discovery is the safe
		// fallback, exactly as for non-convergence above.
		return rediscover(table, opts)
	}
	out.Added = len(res.Findings) - len(prev.Findings)
	out.Result = res
	return out, nil
}

// rediscover is the structural-change fallback: a full scratch run over the
// updated table.
func rediscover(table contingency.Counts, opts Options) (*UpdateOutcome, error) {
	res, err := DiscoverCounts(table, opts)
	if err != nil {
		return nil, err
	}
	return &UpdateOutcome{Result: res, Rediscovered: true, Refit: true}, nil
}

// netCell is one aggregated cell delta.
type netCell struct {
	cell  []int
	delta int64
}

// aggregateDeltas validates coordinates and folds duplicate cells, dropping
// cells whose deltas cancel.
func aggregateDeltas(deltas []contingency.CellDelta, cards []int) ([]netCell, error) {
	type slot struct{ idx int }
	seen := make(map[string]slot, len(deltas))
	var out []netCell
	var key []byte
	for i, d := range deltas {
		if len(d.Cell) != len(cards) {
			return nil, fmt.Errorf("core: delta %d has %d coordinates, want %d",
				i, len(d.Cell), len(cards))
		}
		for p, v := range d.Cell {
			if v < 0 || v >= cards[p] {
				return nil, fmt.Errorf("core: delta %d coordinate %d out of range [0,%d)",
					i, v, cards[p])
			}
		}
		key = appendCellKey(key[:0], d.Cell)
		if s, ok := seen[string(key)]; ok {
			out[s.idx].delta += d.Delta
			continue
		}
		seen[string(key)] = slot{idx: len(out)}
		out = append(out, netCell{cell: append([]int(nil), d.Cell...), delta: d.Delta})
	}
	nz := out[:0]
	for _, nc := range out {
		if nc.delta != 0 {
			nz = append(nz, nc)
		}
	}
	return nz, nil
}

// movedIndex answers "did this family's marginal move under the delta?"
// by projecting the aggregated cell deltas onto the family, memoized per
// family. A family moves iff some projected cell's net delta is nonzero.
// When every net delta has one sign — every observe batch, which only adds
// rows — no projected cell can cancel, so every family moves and no
// projection is built.
type movedIndex struct {
	net     []netCell
	oneSign bool
	memo    map[contingency.VarSet]bool
}

// newMovedIndex indexes a non-empty set of nonzero net cell deltas.
func newMovedIndex(net []netCell) *movedIndex {
	pos, neg := false, false
	for _, nc := range net {
		pos = pos || nc.delta > 0
		neg = neg || nc.delta < 0
	}
	return &movedIndex{net: net, oneSign: !(pos && neg), memo: make(map[contingency.VarSet]bool)}
}

func (mi *movedIndex) moved(vs contingency.VarSet) bool {
	if mi.oneSign {
		return true
	}
	if m, ok := mi.memo[vs]; ok {
		return m
	}
	members := vs.Members()
	sums := make(map[string]int64, len(mi.net))
	var key []byte
	for _, nc := range mi.net {
		key = key[:0]
		for _, p := range members {
			key = appendValueKey(key, nc.cell[p])
		}
		sums[string(key)] += nc.delta
	}
	m := false
	for _, s := range sums {
		if s != 0 {
			m = true
			break
		}
	}
	mi.memo[vs] = m
	return m
}

// appendValueKey appends one cell coordinate to a map key, full width:
// attribute cardinalities are bounded only by the counts backend (a single
// sparse-table attribute may hold up to 2^64 values), so truncating the
// encoding would alias distinct cells.
func appendValueKey(key []byte, v int) []byte {
	u := uint64(v)
	return append(key,
		byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

// appendCellKey encodes a full cell as a map key.
func appendCellKey(key []byte, cell []int) []byte {
	for _, v := range cell {
		key = appendValueKey(key, v)
	}
	return key
}

// hasFamily reports membership of vs in the kept-constraint family list.
func hasFamily(fams []contingency.VarSet, vs contingency.VarSet) bool {
	for _, f := range fams {
		if f == vs {
			return true
		}
	}
	return false
}
