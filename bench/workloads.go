package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"pka"
	"pka/internal/dataset"
	"pka/internal/stats"
)

// latencyLimitMs is the p99 query latency a serving ladder step must meet.
const latencyLimitMs = 5

// workload is one set of inputs the benchmark runs. Each run function does
// the untraced process-level measurement and, with -trace 1, the traced
// in-process repetition.
type workload struct {
	name string
	run  func(*runner) error
}

var workloads = []workload{
	{"acquire_wide", (*runner).acquireWide},
	{"acquire_dense", (*runner).acquireDense},
	{"serve_dense_zipf", (*runner).serveDenseZipf},
	{"ingest_wide80", (*runner).ingestWide80},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sizes fixes every input size and phase shape; -quick shrinks them.
type sizes struct {
	widePairs, wideRows     int // acquire_wide: synth.WidePairs(widePairs, 3)
	denseFactors, denseRows int // acquire_dense and serve: synth.Survey(denseFactors, 2.5)
	holdoutRows             int
	coldStarts              int // set-up repetitions per run of a -kb server
	ingestColdStarts        int // set-up repetitions per run of the ingest server, which discovers at start-up
	minRuns                 int // fewest timed discover runs
	poolSize, batchPool     int // distinct single queries and batch bodies
	closedRequests          int // requests drawn for the closed loop, sent in order and then again from the start
	ladder                  []float64
	nominal                 float64
	bankPairs, bankRows     int // ingest: synth.WidePairs(bankPairs, 3)
	batches, batchRows      int
	hotPool                 int
	readRate                float64 // ingest query rate
	traceRequests           int     // requests replayed in-process by the traced serve run
	probes                  int     // cache-on versus cache-off probe queries
	digestProbes            int     // answers hashed after the last observe batch
}

func sizesFor(quick bool) sizes {
	if quick {
		return sizes{
			widePairs: 20, wideRows: 1200,
			denseFactors: 12, denseRows: 3000,
			holdoutRows: 500,
			coldStarts:  3, ingestColdStarts: 2, minRuns: 2,
			poolSize: 5000, batchPool: 100, closedRequests: 20000,
			ladder: []float64{250, 500, 750, 1000}, nominal: 500,
			bankPairs: 20, bankRows: 2000,
			batches: 12, batchRows: 50,
			hotPool: 50, readRate: 200,
			traceRequests: 2000, probes: 64, digestProbes: 16,
		}
	}
	return sizes{
		widePairs: 130, wideRows: 1200,
		denseFactors: 12, denseRows: 50000,
		holdoutRows: 4000,
		coldStarts:  31, ingestColdStarts: 11, minRuns: 3,
		poolSize: 100000, batchPool: 1000, closedRequests: 1 << 18,
		ladder: []float64{1000, 2000, 3000, 4000}, nominal: 2000,
		bankPairs: 40, bankRows: 8000,
		batches: 100, batchRows: 50,
		hotPool: 200, readRate: 1000,
		traceRequests: 20000, probes: 256, digestProbes: 64,
	}
}

// runner carries one workload run.
type runner struct {
	cfg  config
	sz   sizes
	pka  string    // the built pka binary
	work string    // scratch directory for this run's inputs and outputs
	log  io.Writer // progress and the human-readable report
	res  *result
	tr   *tracer // non-nil only in the traced in-process repetition
}

func (r *runner) traced() bool { return r.cfg.trace == 1 }

// Input streams: each input draws from its own seeded generator, so adding
// draws to one never shifts another.
const (
	streamTrain int64 = iota + 1
	streamHoldout
	streamPool
	streamSchedule
	streamBatches
	streamProbes
	streamClosed
)

func (r *runner) rng(stream int64) *stats.RNG { return stats.NewRNG(r.cfg.seed*1_000_003 + stream) }

// heldOutRNG draws the held-out rows. Unlike every other input they are the
// same for every seed, a fixed test set: holdout_nats then moves only with
// what the KB learned from its seeded training rows, and not with the luck
// of the held-out draw, which moved it by 0.8% between seeds on
// acquire_dense.
func heldOutRNG() *stats.RNG { return stats.NewRNG(streamHoldout) }

// recordHoldout reports holdout_nats, the KB's mean log-loss per held-out
// row.
func (r *runner) recordHoldout(loss float64, rows int, source string) {
	r.res.e2e("holdout_nats", metric{Value: loss, Unit: "nats"})
	r.res.check("holdout_finite", !math.IsInf(loss, 0) && !math.IsNaN(loss) && loss > 0, "%s: %.6f nats/row over %d held-out rows", source, loss, rows)
}

func (r *runner) rand(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(r.cfg.seed*1_000_003 + stream))
}

func (r *runner) path(name string) string { return filepath.Join(r.work, name) }

// window returns the given share of the measured window.
func (r *runner) window(share float64) time.Duration {
	return time.Duration(share * r.cfg.seconds * float64(time.Second))
}

func (r *runner) logf(format string, args ...any) { fmt.Fprintf(r.log, "  "+format+"\n", args...) }

// writeCSV writes a generated dataset as the program's CSV input.
func writeCSV(path string, d *dataset.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runWorkload runs one workload in a fresh scratch directory.
func runWorkload(cfg config, pkaBin, name string, log io.Writer) (*result, error) {
	w, _ := workloadByName(name)
	sz := sizesFor(cfg.quick)
	if err := os.MkdirAll(cfg.buildDir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.buildDir, "work-"+name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	r := &runner{
		cfg: cfg, sz: sz, pka: pkaBin, work: work, log: log,
		res: &result{
			Workload: name,
			Env:      newEnvironment(cfg, sz),
			EndToEnd: map[string]metric{},
			PerLayer: map[string]metric{},
		},
	}
	fmt.Fprintf(log, "== %s: seed %d, %g s measured, trace %d\n", name, cfg.seed, cfg.seconds, cfg.trace)
	if err := w.run(r); err != nil {
		return nil, err
	}
	if r.traced() {
		if err := r.finishTrace(); err != nil {
			return nil, err
		}
	}
	r.res.Correct = len(r.res.Checks) > 0
	for _, c := range r.res.Checks {
		r.res.Correct = r.res.Correct && c.OK
	}
	report(log, r.res)
	return r.res, nil
}

// tabulateIn counts generated rows in a model's schema. Rows travel by
// value label: a schema inferred from CSV lists each attribute's values in
// sorted order, not in the generator's order.
func tabulateIn(s *pka.Schema, d *pka.Dataset, sparse bool) (pka.Counts, error) {
	out := pka.NewDataset(s)
	for i := 0; i < d.Len(); i++ {
		if err := out.AppendLabeled(d.Labels(i)); err != nil {
			return nil, err
		}
	}
	if sparse {
		return out.TabulateSparse()
	}
	return out.Tabulate()
}

// toRecords encodes rows of value labels as value indices of the schema.
func toRecords(s *pka.Schema, rows [][]string) ([]pka.Record, error) {
	out := make([]pka.Record, len(rows))
	for i, row := range rows {
		rec := make(pka.Record, len(row))
		for j, label := range row {
			if rec[j] = s.Attr(j).ValueIndex(label); rec[j] < 0 {
				return nil, fmt.Errorf("attribute %q has no value %q", s.Attr(j).Name, label)
			}
		}
		out[i] = rec
	}
	return out, nil
}
