package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"pka"
	"pka/internal/contingency"
	"pka/internal/core"
	"pka/internal/mml"
	"pka/internal/synth"
)

// acquisition describes one `pka discover` workload: its CLI flags and the
// same configuration as library options, for the in-process repetition.
type acquisition struct {
	csv      string
	flags    []string
	sparse   bool
	opts     core.Options
	holdout  *pka.Dataset
	planted  []contingency.VarSet
	exact    bool // every order >= 2 constraint must sit on a planted family
	complete bool // every planted family must carry a constraint
}

// acquireWide: 260 binary attributes in 130 planted pairs, 1,200 rows, the
// screened sparse path under a 32-constraint cap. The pair screen (33,670
// pairs) and the CI screen over multi-word keys do most of the work.
func (r *runner) acquireWide() error {
	gen, err := synth.WidePairs(r.sz.widePairs, 3)
	if err != nil {
		return err
	}
	train, err := gen.SampleDataset(r.rng(streamTrain), r.sz.wideRows)
	if err != nil {
		return err
	}
	holdout, err := gen.SampleDataset(heldOutRNG(), r.sz.holdoutRows)
	if err != nil {
		return err
	}
	a := acquisition{
		csv:    r.path("wide.csv"),
		flags:  []string{"-sparse", "-screen", "-screen-ci", "-max-order", "2", "-max-constraints", "32"},
		sparse: true,
		opts: core.Options{
			MaxOrder: 2, MML: mml.DefaultConfig(), MaxConstraints: 32,
			ScreenPairs: true, ScreenCI: true,
		},
		holdout: holdout,
		planted: gen.Planted(),
		exact:   true,
	}
	if err := writeCSV(a.csv, train); err != nil {
		return err
	}
	return r.acquire(a)
}

// acquireDense: the paper's own procedure — dense discovery up to order 3
// over 13 attributes (12,288 joint cells) and 50,000 rows, no screen. MML
// scans, dense refits and sum-product elimination dominate.
func (r *runner) acquireDense() error {
	gen, err := synth.Survey(r.sz.denseFactors, 2.5)
	if err != nil {
		return err
	}
	train, err := gen.SampleDataset(r.rng(streamTrain), r.sz.denseRows)
	if err != nil {
		return err
	}
	holdout, err := gen.SampleDataset(heldOutRNG(), r.sz.holdoutRows)
	if err != nil {
		return err
	}
	a := acquisition{
		csv:      r.path("dense.csv"),
		flags:    []string{"-max-order", "3"},
		opts:     core.Options{MaxOrder: 3, MML: mml.DefaultConfig()},
		holdout:  holdout,
		planted:  gen.Planted(),
		exact:    true,
		complete: true,
	}
	if err := writeCSV(a.csv, train); err != nil {
		return err
	}
	return r.acquire(a)
}

// acquire runs one warm-up discover, times set-up as cold starts of
// `pka serve` on the knowledge base it produced, then repeats discover
// for the measured window, one process at a time.
func (r *runner) acquire(a acquisition) error {
	kbPath := r.path("kb.json")
	args := append([]string{"discover", "-in", a.csv, "-out", kbPath}, a.flags...)
	if _, err := r.runPka(args...); err != nil {
		return err
	}
	r.res.ops(1, 0)
	want, err := os.ReadFile(kbPath)
	if err != nil {
		return err
	}
	qm, err := pka.LoadAny(bytes.NewReader(want))
	if err != nil {
		return fmt.Errorf("loading the discovered knowledge base: %w", err)
	}
	s, err := r.setup(r.sz.coldStarts, firstQuery(qm.Schema()), "-kb", kbPath)
	if err != nil {
		return err
	}
	if err := s.stop(); err != nil {
		return err
	}

	var walls, cpus, rss, ratios []float64
	identical := 0
	start := time.Now()
	for len(walls) < r.sz.minRuns || time.Since(start).Seconds()+median(walls)/1e3 <= r.cfg.seconds {
		st, err := r.runPka(args...)
		r.res.ops(1, 0)
		if err != nil {
			r.res.ops(0, 1)
			return err
		}
		walls = append(walls, ms(st.wall))
		cpus = append(cpus, ms(st.cpu))
		rss = append(rss, float64(st.maxRSSKB)/1024)
		ratios = append(ratios, float64(st.cpu)/float64(st.wall))
		got, err := os.ReadFile(kbPath)
		if err != nil {
			return err
		}
		if bytes.Equal(got, want) {
			identical++
		}
	}
	r.logf("%d timed discover runs", len(walls))
	r.res.e2e("op_p50_ms", sampleMetric(walls, 0.5, "ms"))
	r.res.e2e("op_p90_ms", sampleMetric(walls, 0.9, "ms"))
	r.res.e2e("cpu_ms_per_op", sampleMetric(cpus, 0.5, "ms"))
	r.res.e2e("peak_rss_mb", sampleMetric(rss, 0.5, "MB"))
	r.res.check("kb_identical", identical == len(walls), "%d of %d timed runs wrote the warm-up's %d KB bytes", identical, len(walls), len(want))

	holdout, err := tabulateIn(qm.Schema(), a.holdout, a.sparse)
	if err != nil {
		return err
	}
	loss, err := qm.LogLoss(holdout)
	if err != nil {
		return err
	}
	r.recordHoldout(loss, a.holdout.Len(), "library LogLoss")
	r.checkPlanted(qm, a)

	if !r.traced() {
		return nil
	}
	if err := r.traceAcquire(a, want); err != nil {
		return err
	}
	r.res.layer("par.cpu_ratio", median(ratios), "ratio")
	return nil
}

// checkPlanted compares the accepted order >= 2 constraint families with
// the ground truth's planted couplings.
func (r *runner) checkPlanted(qm *pka.QueryModel, a acquisition) {
	planted := map[contingency.VarSet]bool{}
	for _, p := range a.planted {
		planted[p] = true
	}
	found := map[contingency.VarSet]bool{}
	spurious := 0
	for _, c := range qm.KnowledgeBase().Model().Constraints() {
		if c.Order() < 2 {
			continue
		}
		if !found[c.Family] && !planted[c.Family] {
			spurious++
		}
		found[c.Family] = true
	}
	recovered := 0
	for _, p := range a.planted {
		if found[p] {
			recovered++
		}
	}
	ok := (!a.exact || spurious == 0) && (!a.complete || recovered == len(a.planted)) && len(found) > 0
	r.res.check("planted_structure", ok, "%d constrained families: %d planted of %d, %d spurious", len(found), recovered, len(a.planted), spurious)
}

// firstQuery is the query every cold start ends with: the conditional of
// the second attribute's first value given the first attribute's first.
func firstQuery(s *pka.Schema) []byte {
	a, b := s.Attr(0), s.Attr(1)
	return mustJSON(pka.Query{
		Kind:   pka.QueryConditional,
		Target: []pka.Assignment{{Attr: b.Name, Value: b.Values[0]}},
		Given:  []pka.Assignment{{Attr: a.Name, Value: a.Values[0]}},
	})
}
