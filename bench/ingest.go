package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"pka"
	"pka/internal/contingency"
	"pka/internal/synth"
)

// ingestInputs are the generated inputs of ingest_wide80.
type ingestInputs struct {
	csv     string
	schema  *pka.Schema
	batches [][][]string // observe batches of value labels
	probes  [][]byte     // query bodies answered after the last batch
	holdout *pka.Dataset
}

// ingestWide80 serves an 80-attribute bank (40 planted pairs, so cell keys
// take 2 words) with streaming ingest on. One connection posts observe
// batches on a fixed cadence, each waiting for its reply; the other sends
// open-loop queries from a small hot pool. Every batch bumps the model
// version and so invalidates the serving cache: a change that helps
// serve_dense_zipf but slows the write path shows here.
func (r *runner) ingestWide80() error {
	gen, err := synth.WidePairs(r.sz.bankPairs, 3)
	if err != nil {
		return err
	}
	bank, err := gen.SampleDataset(r.rng(streamTrain), r.sz.bankRows)
	if err != nil {
		return err
	}
	extra, err := gen.SampleDataset(r.rng(streamBatches), r.sz.batches*r.sz.batchRows)
	if err != nil {
		return err
	}
	holdout, err := gen.SampleDataset(heldOutRNG(), r.sz.holdoutRows)
	if err != nil {
		return err
	}
	in := ingestInputs{csv: r.path("bank.csv"), schema: gen.Schema(), holdout: holdout}
	if err := writeCSV(in.csv, bank); err != nil {
		return err
	}
	bodies := make([][]byte, r.sz.batches)
	for b := range bodies {
		rows := make([][]string, r.sz.batchRows)
		for i := range rows {
			rows[i] = extra.Labels(b*r.sz.batchRows + i)
		}
		in.batches = append(in.batches, rows)
		bodies[b] = mustJSON(struct {
			Rows [][]string `json:"rows"`
		}{rows})
	}
	_, hot, err := queryPool(r.rand(streamPool), in.schema, r.sz.hotPool)
	if err != nil {
		return err
	}
	in.probes = hot[:r.sz.digestProbes]
	reads := make([]request, len(hot))
	for i, b := range hot {
		reads[i] = request{path: "/v1/query", body: b, key: -1}
	}
	window := r.window(1)
	srng := r.rand(streamSchedule)
	sched := poissonSchedule(srng, r.sz.readRate, window, func() *request { return &reads[srng.Intn(len(reads))] })

	s, err := r.setup(r.sz.ingestColdStarts, firstQuery(in.schema), "-data", in.csv, "-sparse", "-screen", "-max-order", "2")
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			s.kill()
		}
	}()
	ctl := &http.Client{Timeout: 10 * time.Second}
	before, err := fetchStats(ctl, s.base)
	if err != nil {
		return err
	}
	cpu0, err := s.cpu()
	if err != nil {
		return err
	}
	phase := time.Now()
	var lr *loadResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		lr = openLoop([]*http.Client{newClient()}, s.base, sched)
	}()
	obsLat, badReports, obsFailed := r.observe(s, bodies, window/time.Duration(len(bodies)))
	wg.Wait()
	elapsed := time.Since(phase)
	cpu1, err := s.cpu()
	if err != nil {
		return err
	}
	after, err := fetchStats(ctl, s.base)
	if err != nil {
		return err
	}
	r.res.ops(len(bodies)+lr.sent, obsFailed+lr.failed)
	r.res.e2e("op_p50_ms", sampleMetric(obsLat, 0.5, "ms"))
	r.res.e2e("op_p90_ms", sampleMetric(obsLat, 0.9, "ms"))
	r.res.e2e("cpu_ms_per_op", metric{Value: ms(cpu1-cpu0) / float64(len(bodies)), Unit: "ms"})
	r.res.check("observe_reports", badReports == 0, "%d of %d observe replies carried the expected version and sample total", len(bodies)-badReports, len(bodies))
	read := stepOf("reads", r.sz.readRate, lr)
	read.ServerCPUMs = ms(cpu1 - cpu0)
	read.countCache(before, after)
	r.res.Steps = []step{read}

	r.res.Digest, err = digest(in.probes, func(b []byte) ([]byte, int, error) { return post(ctl, s.base+"/v1/query", b) })
	if err != nil {
		return err
	}
	r.res.ops(len(in.probes), 0)
	if err := r.servedHoldout(s, holdout, nil, true); err != nil {
		return err
	}
	rss, err := s.peakRSSKB()
	if err != nil {
		return err
	}
	r.res.e2e("peak_rss_mb", metric{Value: float64(rss) / 1024, Unit: "MB"})
	stopped = true
	if err := s.stop(); err != nil {
		return err
	}

	if !r.traced() {
		return nil
	}
	if err := r.traceIngest(in); err != nil {
		return err
	}
	r.res.layer("par.cpu_ratio", float64(cpu1-cpu0)/float64(elapsed), "ratio")
	r.res.layer("memo.wire_hit_ratio", read.wireHitRatio(), "ratio")
	r.res.layer("memo.engine_hit_ratio", ratio(float64(read.EngineHits), float64(read.EngineHits+read.EngineMisses)), "ratio")
	r.res.layer("memo.wire_evictions", float64(read.WireEvictions), "count")
	r.res.layer("memo.wire_bytes", float64(read.WireBytes), "bytes")
	r.res.layer("loadgen.read_p50_ms", read.P50Ms, "ms")
	r.res.layer("loadgen.read_p99_ms", read.P99Ms, "ms")
	r.res.layer("loadgen.late_p99_ms", read.LateP99Ms, "ms")
	r.loadgenTotals()
	return nil
}

// observe posts the batches in order from one connection: each waits for
// its reply, and the next leaves one cadence after the previous one left
// (at once, if the reply took longer). It returns the latencies in ms, the
// replies whose version or sample total was off, and the failed posts.
func (r *runner) observe(s *server, bodies [][]byte, cadence time.Duration) ([]float64, int, int) {
	c := &http.Client{Timeout: 30 * time.Second}
	var lat []float64
	bad, failed := 0, 0
	next := time.Now()
	for i, body := range bodies {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		start := time.Now()
		next = start.Add(cadence)
		out, status, err := post(c, s.base+"/v1/observe", body)
		d := time.Since(start)
		lat = append(lat, ms(d))
		if err != nil || status != http.StatusOK || d > requestTimeout {
			failed++
			bad++
			continue
		}
		var rep pka.UpdateReport
		wantTotal := int64(r.sz.bankRows + (i+1)*r.sz.batchRows)
		if json.Unmarshal(out, &rep) != nil || rep.Version != int64(i+1) || rep.TotalSamples != wantTotal {
			bad++
		}
	}
	return lat, bad, failed
}

// digest hashes the answers to the probe queries.
func digest(probes [][]byte, answer func(body []byte) ([]byte, int, error)) (string, error) {
	h := sha256.New()
	for _, p := range probes {
		out, status, err := answer(p)
		if err != nil || status != http.StatusOK {
			return "", fmt.Errorf("digest probe: status %d, %v: %s", status, err, out)
		}
		h.Write(out)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// ingested is the library-level repetition of the ingest workload.
type ingested struct {
	model     *pka.Model
	table     *contingency.Sparse
	findings  []pka.Finding
	screen    *pka.ScreenReport
	updateLat []float64
	reports   []pka.UpdateReport
}

// ingestLib repeats what the ingest server does: tabulate and discover the
// bank as `pka serve -data -sparse -screen -max-order 2` does at start-up,
// then fold in every observe batch with Model.Update.
func ingestLib(tr *tracer, parent int, in ingestInputs) (*ingested, error) {
	out := &ingested{}
	var schema *pka.Schema
	if _, err := tr.span("dataset.tabulate", parent, func() error {
		s, t, err := tabulateCSV(in.csv, true)
		if err == nil {
			schema, out.table = s, t.(*contingency.Sparse)
		}
		return err
	}); err != nil {
		return nil, err
	}
	if _, err := tr.span("core.discover", parent, func() (err error) {
		out.model, err = pka.DiscoverSparse(out.table, schema, pka.Options{MaxOrder: 2, ScreenPairs: true})
		return err
	}); err != nil {
		return nil, err
	}
	out.findings, out.screen = out.model.Findings(), out.model.Screen()
	pass := tr.begin("replay.updates", parent, 0)
	for i, labels := range in.batches {
		rows, err := toRecords(out.model.Schema(), labels)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		id := tr.begin("core.update", pass, i+1)
		rep, err := out.model.Update(rows)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("update %d: %w", i, err)
		}
		out.updateLat = append(out.updateLat, ms(time.Since(start)))
		out.reports = append(out.reports, rep)
	}
	tr.end(pass)
	return out, nil
}

// traceIngest repeats the ingest workload in-process, untraced and then
// traced, checks the library's final answers against the served digest,
// and runs the layer probes.
func (r *runner) traceIngest(in ingestInputs) error {
	start := time.Now()
	if _, err := ingestLib(nil, 0, in); err != nil {
		return err
	}
	untraced := time.Since(start)

	servedLoss := r.res.EndToEnd["holdout_nats"].Value
	root := r.startTrace()
	start = time.Now()
	got, err := ingestLib(r.tr, root, in)
	if err != nil {
		return err
	}
	r.overhead(untraced, time.Since(start))
	if _, err := r.tr.span("replay.digest", root, func() error {
		h := pka.NewServerWithOptions(got.model, pka.ServerOptions{})
		lib, err := digest(in.probes, func(b []byte) ([]byte, int, error) {
			out, code := handle(h, "/v1/query", b)
			return out, code, nil
		})
		r.res.check("digest_matches_library", err == nil && lib == r.res.Digest, "served %.16s…, library %.16s…", r.res.Digest, lib)
		return err
	}); err != nil {
		return err
	}
	if err := r.checkHoldoutRef(servedLoss, in.holdout, got.model, true); err != nil {
		return err
	}

	r.spanLayers()
	r.tableLayers(got.table)
	r.res.layer("core.update_p50_ms", median(got.updateLat), "ms")
	r.res.layer("core.update_p90_ms", sampleMetric(got.updateLat, 0.9, "ms").Value, "ms")
	var retargeted, added, rediscovered, sweeps int
	for _, rep := range got.reports {
		retargeted += rep.Retargeted
		added += rep.NewConstraints
		sweeps += rep.Sweeps
		if rep.Rediscovered {
			rediscovered++
		}
	}
	r.res.layer("core.retargeted", float64(retargeted), "count")
	r.res.layer("core.new_constraints", float64(added), "count")
	r.res.layer("core.rediscovered", float64(rediscovered), "count")
	r.res.layer("core.update_sweeps", float64(sweeps), "count")
	if s := got.screen; s != nil {
		r.res.layer("assoc.pairs_tested", float64(s.PairsTotal), "count")
		r.res.layer("assoc.pairs_kept", float64(s.PairsKept), "count")
	}
	zeros, fitSweeps := 0, 0
	for _, f := range got.findings {
		zeros += len(f.ImpliedZeros)
		fitSweeps += f.FitSweeps
	}
	r.res.layer("core.constraints_accepted", float64(len(got.findings)), "count")
	r.res.layer("core.implied_zeros", float64(zeros), "count")
	r.res.layer("maxent.fit_sweeps", float64(fitSweeps), "count")
	final := got.model.KnowledgeBase().Model()
	r.res.layer("maxent.constraints", float64(final.NumConstraints()), "count")

	// Probes run on a fresh tabulation of the bank: the screen and the
	// first scan as discovery saw them, then every observe batch applied to
	// the table alone.
	var fresh contingency.Counts
	var freshSchema *pka.Schema
	if _, err := r.tr.span("probe.setup", root, func() (err error) {
		freshSchema, fresh, err = tabulateCSV(in.csv, true)
		return err
	}); err != nil {
		return err
	}
	families, err := r.probeScreen(root, fresh, false)
	if err != nil {
		return err
	}
	if err := r.probeScan(root, fresh, families); err != nil {
		return err
	}
	var obsLat []float64
	for i, labels := range in.batches {
		rows, err := toRecords(freshSchema, labels)
		if err != nil {
			return err
		}
		cells := make([][]int, len(rows))
		for j, rec := range rows {
			cells[j] = rec
		}
		d, err := r.tr.span("contingency.observe_batch", root, func() error {
			return fresh.(*contingency.Sparse).ObserveBatch(cells)
		})
		if err != nil {
			return fmt.Errorf("observe batch %d: %w", i, err)
		}
		obsLat = append(obsLat, ms(d))
	}
	r.res.layer("contingency.observe_batch_ms", median(obsLat), "ms")
	if err := r.probeModel(root, final, countScaleTol(got.table.Total())); err != nil {
		return err
	}
	r.tr.end(root)
	return nil
}
