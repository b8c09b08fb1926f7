package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"pka"
	"pka/internal/assoc"
	"pka/internal/contingency"
	"pka/internal/core"
	"pka/internal/kb"
	"pka/internal/maxent"
	"pka/internal/mml"
)

// layerMetrics lists every per-layer metric with its unit. A traced run
// emits all of them; a layer a workload does not exercise reads 0. Names
// are <module>.<quantity>; metrics marked "probe" in README.md re-run one
// layer's public function on the workload's data, because the stage is
// reachable only inside core.DiscoverCounts.
var layerMetrics = []struct{ name, unit string }{
	{"dataset.tabulate_s", "s"},
	{"contingency.occupied_cells", "count"},
	{"contingency.projections_cached", "count"},
	{"contingency.projection_evictions", "count"},
	{"contingency.observe_batch_ms", "ms"},
	{"assoc.pairwise_s", "s"},
	{"assoc.flatten_s", "s"},
	{"assoc.pairs_tested", "count"},
	{"assoc.pairs_kept", "count"},
	{"assoc.ci_triples_tested", "count"},
	{"assoc.ci_edges_dropped", "count"},
	{"mml.scan_order2_s", "s"},
	{"mml.candidates_order2", "count"},
	{"mml.candidates_order3", "count"},
	{"mml.scan_passes", "count"},
	{"maxent.fit_final_s", "s"},
	{"maxent.compile_s", "s"},
	{"maxent.fit_sweeps", "count"},
	{"maxent.constraints", "count"},
	{"maxent.blocks", "count"},
	{"sumprod.cells", "count"},
	{"sumprod.marginal_us", "us"},
	{"core.discover_s", "s"},
	{"core.constraints_accepted", "count"},
	{"core.implied_zeros", "count"},
	{"core.update_p50_ms", "ms"},
	{"core.update_p90_ms", "ms"},
	{"core.retargeted", "count"},
	{"core.new_constraints", "count"},
	{"core.rediscovered", "count"},
	{"core.update_sweeps", "count"},
	{"query.answer_p50_us", "us"},
	{"query.answer_p99_us", "us"},
	{"query.encode_p50_us", "us"},
	{"memo.wire_hit_ratio", "ratio"},
	{"memo.flat_wire_hit_ratio", "ratio"},
	{"memo.engine_hit_ratio", "ratio"},
	{"memo.wire_evictions", "count"},
	{"memo.wire_bytes", "bytes"},
	{"server.handle_p50_us", "us"},
	{"server.handle_nocache_p50_us", "us"},
	{"server.self_us", "us"},
	{"http.overhead_us", "us"},
	{"snapshot.load_ms", "ms"},
	{"kb.save_s", "s"},
	{"par.cpu_ratio", "ratio"},
	{"loadgen.sent", "count"},
	{"loadgen.failed", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.max_rate_qps", "1/s"},
	{"loadgen.read_p50_ms", "ms"},
	{"loadgen.read_p99_ms", "ms"},
	{"loadgen.flat_read_p50_ms", "ms"},
	{"loadgen.flat_read_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.root_coverage", "ratio"},
}

// startTrace zeroes every per-layer metric and opens the root span of the
// traced in-process repetition.
func (r *runner) startTrace() int {
	for _, m := range layerMetrics {
		r.res.layer(m.name, 0, m.unit)
	}
	r.tr = newTracer()
	return r.tr.begin("workload."+r.res.Workload, 0, 0)
}

// overhead records how much slower the traced in-process repetition ran
// than the untraced one.
func (r *runner) overhead(untraced, traced time.Duration) {
	pct := 100 * (traced.Seconds() - untraced.Seconds()) / untraced.Seconds()
	r.res.layer("trace.overhead_pct", pct, "%")
	r.logf("tracing overhead: untraced %.3f s, traced %.3f s (%+.2f%%)", untraced.Seconds(), traced.Seconds(), pct)
}

// countScaleTol is core's default solver tolerance at sample size n.
func countScaleTol(n int64) float64 { return max(0.01/float64(n), 1e-9) }

// tabulateCSV reads a CSV the way `pka discover` does: infer the schema,
// then stream the rows into a sparse table (-sparse) or read the records
// and tabulate them densely.
func tabulateCSV(path string, sparse bool) (*pka.Schema, contingency.Counts, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	schema, err := pka.InferSchema(f, 64)
	f.Close()
	if err != nil {
		return nil, nil, err
	}
	f, err = os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	if sparse {
		t, err := pka.TabulateCSVSparse(f, schema)
		return schema, t, err
	}
	data, err := pka.ReadCSV(f, schema)
	if err != nil {
		return nil, nil, err
	}
	t, err := data.Tabulate()
	return schema, t, err
}

// acquired is the library-level repetition of one `pka discover` run.
type acquired struct {
	schema *pka.Schema
	table  contingency.Counts
	res    *core.Result
	kbJSON []byte
}

// acquireLib repeats `pka discover` through the library calls the command
// makes, each in its own span under parent.
func acquireLib(tr *tracer, parent int, a acquisition) (*acquired, error) {
	out := &acquired{}
	var kbase *kb.KnowledgeBase
	steps := []struct {
		name string
		fn   func() error
	}{
		{"dataset.tabulate", func() (err error) {
			out.schema, out.table, err = tabulateCSV(a.csv, a.sparse)
			return err
		}},
		{"core.discover", func() (err error) {
			out.res, err = core.DiscoverCounts(out.table, a.opts)
			return err
		}},
		{"kb.new", func() (err error) {
			kbase, err = kb.New(out.schema, out.res.Model)
			return err
		}},
		{"core.gof", func() error {
			_, err := core.GoodnessOfFit(out.table, out.res.Model)
			return err
		}},
		{"kb.save", func() error {
			var buf bytes.Buffer
			err := kbase.Save(&buf)
			out.kbJSON = buf.Bytes()
			return err
		}},
	}
	for _, s := range steps {
		if _, err := tr.span(s.name, parent, s.fn); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return out, nil
}

// traceAcquire repeats the acquisition in-process, untraced and then
// traced, followed by the layer probes.
func (r *runner) traceAcquire(a acquisition, cliKB []byte) error {
	// The first pass warms the process (heap growth, code paths) and is
	// not timed; the second is the untraced reference.
	var untraced time.Duration
	for i := 0; i < 2; i++ {
		start := time.Now()
		if _, err := acquireLib(nil, 0, a); err != nil {
			return err
		}
		untraced = time.Since(start)
	}

	root := r.startTrace()
	start := time.Now()
	got, err := acquireLib(r.tr, root, a)
	if err != nil {
		return err
	}
	traced := time.Since(start)
	r.overhead(untraced, traced)
	r.res.check("kb_matches_library", bytes.Equal(got.kbJSON, cliKB),
		"in-process library run wrote %d KB bytes, pka discover %d", len(got.kbJSON), len(cliKB))

	r.spanLayers()
	r.tableLayers(got.table)
	r.resultLayers(got.res, a.opts.MaxConstraints)
	var families []contingency.VarSet
	if a.opts.ScreenPairs {
		if families, err = r.probeScreen(root, got.table, a.opts.ScreenCI); err != nil {
			return err
		}
	}
	if err := r.probeScan(root, got.table, families); err != nil {
		return err
	}
	if err := r.probeModel(root, got.res.Model, countScaleTol(got.table.Total())); err != nil {
		return err
	}
	r.tr.end(root)
	return nil
}

// spanLayers copies the durations of the single-shot spans recorded so far
// into their per-layer metrics.
func (r *runner) spanLayers() {
	for _, s := range r.tr.spans {
		d := (s.End - s.Start).Seconds()
		switch s.Name {
		case "dataset.tabulate":
			r.res.layer("dataset.tabulate_s", d, "s")
		case "core.discover":
			r.res.layer("core.discover_s", d, "s")
		case "kb.save":
			r.res.layer("kb.save_s", d, "s")
		}
	}
}

// tableLayers records the counts backend's occupancy and projection cache.
func (r *runner) tableLayers(t contingency.Counts) {
	switch tt := t.(type) {
	case *contingency.Sparse:
		r.res.layer("contingency.occupied_cells", float64(tt.Occupied()), "count")
		r.res.layer("contingency.projections_cached", float64(tt.CachedProjections()), "count")
		r.res.layer("contingency.projection_evictions", float64(tt.ProjectionCacheEvictions()), "count")
	case *contingency.Table:
		occupied := 0
		for _, c := range tt.Counts() {
			if c != 0 {
				occupied++
			}
		}
		r.res.layer("contingency.occupied_cells", float64(occupied), "count")
	}
}

// resultLayers records the exact counts a discovery result carries.
func (r *runner) resultLayers(res *core.Result, maxConstraints int) {
	if s := res.Screen; s != nil {
		r.res.layer("assoc.pairs_tested", float64(s.PairsTotal), "count")
		r.res.layer("assoc.pairs_kept", float64(s.PairsKept), "count")
		r.res.layer("assoc.ci_triples_tested", float64(s.CITriplesTested), "count")
		r.res.layer("assoc.ci_edges_dropped", float64(s.CIEdgesDropped), "count")
	}
	passes := 0
	for _, lv := range res.Levels {
		switch lv.Order {
		case 2:
			r.res.layer("mml.candidates_order2", float64(lv.Candidates), "count")
		case 3:
			r.res.layer("mml.candidates_order3", float64(lv.Candidates), "count")
		}
		// Every pass accepts one cell except the last, which finds none —
		// unless the constraint cap ended the level on an acceptance.
		passes += lv.Accepted + 1
	}
	if maxConstraints > 0 && len(res.Findings) >= maxConstraints {
		passes--
	}
	r.res.layer("mml.scan_passes", float64(passes), "count")
	zeros, sweeps := 0, 0
	for _, f := range res.Findings {
		zeros += len(f.ImpliedZeros)
		sweeps += f.FitSweeps
	}
	r.res.layer("core.constraints_accepted", float64(len(res.Findings)), "count")
	r.res.layer("core.implied_zeros", float64(zeros), "count")
	r.res.layer("maxent.fit_sweeps", float64(sweeps), "count")
	r.res.layer("maxent.constraints", float64(res.Model.NumConstraints()), "count")
}

// probeScreen re-runs the association screen's stages (probe): the
// pairwise survey and, with the CI screen, the flattening of the occupied
// cells. It returns the families that pass the pairwise screen.
func (r *runner) probeScreen(parent int, t contingency.Counts, ci bool) ([]contingency.VarSet, error) {
	sp, ok := t.(*contingency.Sparse)
	if !ok {
		return nil, errors.New("screen probe needs the sparse backend")
	}
	var pairs []assoc.PairStats
	d, err := r.tr.span("assoc.pairwise", parent, func() (err error) {
		pairs, err = assoc.PairwiseSparseWorkers(sp, 0)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.res.layer("assoc.pairwise_s", d.Seconds(), "s")
	if ci {
		d, err := r.tr.span("assoc.flatten", parent, func() error {
			_, err := assoc.Flatten(t)
			return err
		})
		if err != nil {
			return nil, err
		}
		r.res.layer("assoc.flatten_s", d.Seconds(), "s")
	}
	alpha := 0.05 / float64(len(pairs))
	var families []contingency.VarSet
	for _, p := range pairs {
		if p.PValue <= alpha {
			families = append(families, contingency.NewVarSet(p.I, p.J))
		}
	}
	return families, nil
}

// probeScan times the first order-2 significance pass against the fitted
// first-order model (probe); families restricts it to the screened pairs.
func (r *runner) probeScan(parent int, t contingency.Counts, families []contingency.VarSet) error {
	var m *maxent.Model
	var tester *mml.Tester
	if _, err := r.tr.span("probe.setup", parent, func() (err error) {
		if m, err = maxent.NewModel(t.Names(), contingency.CardsOf(t)); err != nil {
			return err
		}
		if err := m.AddFirstOrderConstraints(t); err != nil {
			return err
		}
		if _, err := m.Fit(maxent.SolveOptions{Tol: countScaleTol(t.Total())}); err != nil {
			return err
		}
		tester, err = mml.NewTester(t, mml.DefaultConfig())
		return err
	}); err != nil {
		return err
	}
	if families != nil {
		tester.RestrictFamilies(func(order int) []contingency.VarSet {
			if order == 2 {
				return families
			}
			return nil
		})
	}
	d, err := r.tr.span("mml.scan_order2", parent, func() error {
		_, err := tester.ScanOrderParallel(2, m, 0)
		return err
	})
	if err != nil {
		return err
	}
	r.res.layer("mml.scan_order2_s", d.Seconds(), "s")
	return nil
}

// probeModel re-runs the fitting and elimination layers on a final model
// (probes): a cold fit of its constraint set, a compile of its
// coefficients, and a marginal of every order-2 family it constrains.
func (r *runner) probeModel(parent int, m *maxent.Model, tol float64) error {
	// Compile returns the snapshot a fit cached. Moving one target on a
	// clone drops that snapshot without touching a coefficient, so the
	// timed Compile below rebuilds the engine of the same coefficients.
	var cold, clone *maxent.Model
	if _, err := r.tr.span("probe.setup", parent, func() (err error) {
		if cold, err = maxent.NewModel(m.Names(), m.Cards()); err != nil {
			return err
		}
		for _, c := range m.Constraints() {
			if err := cold.AddConstraint(c); err != nil {
				return err
			}
		}
		clone = m.Clone()
		c0 := m.Constraints()[0]
		return clone.SetTarget(c0.Family, c0.Values, math.Nextafter(c0.Target, 1))
	}); err != nil {
		return err
	}
	d, err := r.tr.span("maxent.fit_final", parent, func() error {
		rep, err := cold.Fit(maxent.SolveOptions{Tol: tol})
		if err == nil && !rep.Converged {
			err = fmt.Errorf("cold fit did not converge (residual %g)", rep.Residual)
		}
		return err
	})
	if err != nil {
		return err
	}
	r.res.layer("maxent.fit_final_s", d.Seconds(), "s")

	var comp *maxent.Compiled
	d, err = r.tr.span("maxent.compile", parent, func() (err error) {
		comp, err = clone.Compile()
		return err
	})
	if err != nil {
		return err
	}
	r.res.layer("maxent.compile_s", d.Seconds(), "s")
	blocks, cells := 1, m.NumCells()
	if comp.Factored() {
		blocks, cells = comp.NumBlocks(), 0
		for i := 0; i < comp.NumBlocks(); i++ {
			n := 1
			for _, v := range comp.BlockVars(i) {
				n *= m.Cards()[v]
			}
			cells += n
		}
	}
	r.res.layer("maxent.blocks", float64(blocks), "count")
	r.res.layer("sumprod.cells", float64(cells), "count")

	seen := map[contingency.VarSet]bool{}
	var families []contingency.VarSet
	for _, c := range m.Constraints() {
		if c.Order() == 2 && !seen[c.Family] {
			seen[c.Family] = true
			families = append(families, c.Family)
		}
	}
	if len(families) == 0 {
		return nil
	}
	d, err = r.tr.span("sumprod.marginal", parent, func() error {
		for _, f := range families {
			if _, err := comp.Marginal(f); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.res.layer("sumprod.marginal_us", us(d)/float64(len(families)), "us")
	return nil
}
