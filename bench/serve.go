package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"time"

	"pka"
	"pka/internal/synth"
)

// step is one load phase: open loop at a fixed arrival rate, or closed
// loop, whose rate is the one it achieved.
type step struct {
	Name    string  `json:"name"`
	Closed  bool    `json:"closed,omitempty"`
	Rate    float64 `json:"rate_qps"`
	Skew    float64 `json:"zipf_s,omitempty"` // popularity skew of the single queries
	Seconds float64 `json:"seconds"`
	Sent    int     `json:"sent"`
	Failed  int     `json:"failed"`
	// Latency of single queries, timed from their due time.
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
	// Latency of batch requests, timed from their due time.
	BatchP50Ms float64 `json:"batch_p50_ms,omitempty"`
	BatchP99Ms float64 `json:"batch_p99_ms,omitempty"`
	LateP99Ms  float64 `json:"late_p99_ms"`
	// ServerCPUMs is the server's CPU time during the step.
	ServerCPUMs float64 `json:"server_cpu_ms"`
	// Cache counters moved during the step, from GET /v1/stats.
	WireHits      int64 `json:"wire_hits"`
	WireMisses    int64 `json:"wire_misses"`
	WireEvictions int64 `json:"wire_evictions"`
	WireBytes     int64 `json:"wire_bytes"`
	EngineHits    int64 `json:"engine_hits"`
	EngineMisses  int64 `json:"engine_misses"`
	// Pass (open loop only): single-query p99 within the latency limit, at
	// most 0.1% of requests failed, and the generator's lateness p99 within
	// 50 ms (no growing backlog).
	Pass bool `json:"pass"`
}

// wireHitRatio is the step's wire-cache hits per wire-cache lookup.
func (s step) wireHitRatio() float64 {
	return ratio(float64(s.WireHits), float64(s.WireHits+s.WireMisses))
}

// tierStats is one cache tier of GET /v1/stats.
type tierStats struct {
	Tier      string `json:"tier"`
	Hits      int64  `json:"hits"`
	Misses    int64  `json:"misses"`
	Evictions int64  `json:"evictions"`
	Bytes     int64  `json:"bytes"`
}

func fetchStats(c *http.Client, base string) (map[string]tierStats, error) {
	body, status, err := get(c, base+"/v1/stats")
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/stats: status %d, %v", status, err)
	}
	var resp struct {
		Tiers []tierStats `json:"tiers"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	out := map[string]tierStats{}
	for _, t := range resp.Tiers {
		out[t.Tier] = t
	}
	return out, nil
}

// measureStep runs one load phase against the server and records it. rate
// is the open loop's arrival rate, or 0 for a closed loop.
func (r *runner) measureStep(s *server, name string, rate, skew float64, load func() *loadResult, seen map[int]uint64) (step, *loadResult, error) {
	ctl := &http.Client{Timeout: 10 * time.Second}
	before, err := fetchStats(ctl, s.base)
	if err != nil {
		return step{}, nil, err
	}
	cpu0, err := s.cpu()
	if err != nil {
		return step{}, nil, err
	}
	lr := load()
	cpu1, err := s.cpu()
	if err != nil {
		return step{}, nil, err
	}
	after, err := fetchStats(ctl, s.base)
	if err != nil {
		return step{}, nil, err
	}
	r.res.ops(lr.sent, lr.failed)
	for k, h := range lr.first {
		if prev, ok := seen[k]; ok && prev != h {
			lr.mismatched++
		}
		seen[k] = h
	}
	st := stepOf(name, rate, lr)
	st.Skew = skew
	st.ServerCPUMs = ms(cpu1 - cpu0)
	st.countCache(before, after)
	return st, lr, nil
}

// countCache records how the cache counters of GET /v1/stats moved over
// the step.
func (st *step) countCache(before, after map[string]tierStats) {
	w, e := after["wire"], after["engine"]
	st.WireHits, st.WireMisses = w.Hits-before["wire"].Hits, w.Misses-before["wire"].Misses
	st.WireEvictions, st.WireBytes = w.Evictions-before["wire"].Evictions, w.Bytes
	st.EngineHits, st.EngineMisses = e.Hits-before["engine"].Hits, e.Misses-before["engine"].Misses
}

// stepOf summarizes one load phase; rate 0 marks a closed loop.
func stepOf(name string, rate float64, lr *loadResult) step {
	q := func(v []float64, p float64) float64 {
		if len(v) == 0 {
			return 0
		}
		return sampleMetric(v, p, "ms").Value
	}
	st := step{
		Name: name, Closed: rate == 0, Rate: rate, Seconds: lr.elapsed.Seconds(),
		Sent: lr.sent, Failed: lr.failed,
		P50Ms: q(lr.latMs, 0.5), P90Ms: q(lr.latMs, 0.9), P99Ms: q(lr.latMs, 0.99),
		BatchP50Ms: q(lr.batchLatMs, 0.5), BatchP99Ms: q(lr.batchLatMs, 0.99),
		LateP99Ms: q(lr.lateMs, 0.99),
	}
	if st.Closed {
		st.Rate = float64(lr.sent) / lr.elapsed.Seconds()
		return st
	}
	st.Pass = st.Sent > 0 && st.P99Ms <= latencyLimitMs && float64(st.Failed) <= 0.001*float64(st.Sent) && st.LateP99Ms <= 50
	return st
}

// The serving traffic's shape. No query log of a served maximum-entropy
// knowledge base has been published, so these are assumptions, not
// measurements. Request-stream studies find Zipf-like popularity: Breslau
// et al. (INFOCOM 1999) report exponents of about 0.64 to 0.83 for web
// proxies. The closed loop and the ladder run at a steeper 1.1, where the
// wire cache does the most; the flat step repeats the nominal rate at 0.8,
// inside the published range, so a gain that rests on the cache shows how
// much of it survives flatter traffic. The six single-query kinds are
// drawn in equal shares with 1 to 3 evidence attributes, and batchShare of
// the requests are 16-query batches; neither has a published source either.
const (
	zipfSkew     = 1.1
	flatZipfSkew = 0.8
	batchShare   = 0.05
)

// zipfRanks draws ranks 0..n-1 with probability proportional to
// (rank+1)^-s. Unlike rand.Zipf it accepts s <= 1.
type zipfRanks struct {
	rng *rand.Rand
	cdf []float64
}

func newZipfRanks(rng *rand.Rand, s float64, n int) *zipfRanks {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipfRanks{rng: rng, cdf: cdf}
}

func (z *zipfRanks) next() int {
	return min(sort.SearchFloat64s(z.cdf, z.rng.Float64()), len(z.cdf)-1)
}

// serveDenseZipf serves the acquire_dense knowledge base from a PKAS
// snapshot and offers it Zipf-popular queries. The end-to-end latencies come
// from one caller in a closed loop, after a warm-up that fills the caches:
// on a shared 2-CPU host, open-loop latencies of a few hundred microseconds
// follow the host's wake-ups more than the program (README.md). The traced
// run adds the open-loop ladder of fixed rates. The wire cache serves the
// popular head and the dense engine the long tail.
func (r *runner) serveDenseZipf() error {
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
	csv, kbJSON, kbSnap := r.path("dense.csv"), r.path("kb.json"), r.path("kb.pkas")
	if err := writeCSV(csv, train); err != nil {
		return err
	}
	if _, err := r.runPka("discover", "-in", csv, "-out", kbJSON, "-max-order", "3"); err != nil {
		return err
	}
	if _, err := r.runPka("snapshot", "-in", kbJSON, "-out", kbSnap); err != nil {
		return err
	}
	r.res.ops(2, 0)
	snap, err := os.ReadFile(kbSnap)
	if err != nil {
		return err
	}
	qm, err := pka.LoadSnapshot(bytes.NewReader(snap))
	if err != nil {
		return err
	}
	schema := qm.Schema()

	poolRng := r.rand(streamPool)
	_, bodies, err := queryPool(poolRng, schema, r.sz.poolSize)
	if err != nil {
		return err
	}
	singles := make([]request, len(bodies))
	for i, b := range bodies {
		singles[i] = request{path: "/v1/query", body: b, key: i}
	}
	var batches []request
	for _, b := range batchBodies(poolRng, schema, r.sz.batchPool) {
		batches = append(batches, request{path: "/v1/query/batch", body: b, key: -1, batch: true})
	}
	// picker draws one request: a batch with probability batchShare, else
	// a single query of Zipf-distributed popularity.
	picker := func(rng *rand.Rand, skew float64) func() *request {
		z := newZipfRanks(rng, skew, len(singles))
		return func() *request {
			if rng.Float64() < batchShare {
				return &batches[rng.Intn(len(batches))]
			}
			return &singles[z.next()]
		}
	}
	// The closed loop's requests are drawn up front, so that a seed sends
	// the same requests in the same order however fast the host runs.
	pick := picker(r.rand(streamClosed), zipfSkew)
	stream := make([]*request, r.sz.closedRequests)
	for i := range stream {
		stream[i] = pick()
	}

	s, err := r.setup(r.sz.coldStarts, firstQuery(schema), "-kb", kbSnap)
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			s.kill()
		}
	}()
	// The measured window: a closed-loop warm-up that fills the caches,
	// then the closed-loop phase the end-to-end metrics come from.
	client := newClient()
	seen := map[int]uint64{}
	mismatched, next := 0, 0
	closed := func(share float64) func() *loadResult {
		return func() *loadResult {
			lr, n := closedLoop(client, s.base, stream, next, r.window(share))
			next = n
			return lr
		}
	}
	warm, lr, err := r.measureStep(s, "warmup", 0, zipfSkew, closed(0.2), seen)
	if err != nil {
		return err
	}
	mismatched += lr.mismatched
	measured, lr, err := r.measureStep(s, "closed", 0, zipfSkew, closed(0.8), seen)
	if err != nil {
		return err
	}
	mismatched += lr.mismatched
	r.res.Steps = []step{warm, measured}
	r.res.e2e("op_p50_ms", sampleMetric(lr.latMs, 0.5, "ms"))
	r.res.e2e("op_p90_ms", sampleMetric(lr.latMs, 0.9, "ms"))
	r.res.e2e("cpu_ms_per_op", metric{Value: measured.ServerCPUMs / float64(measured.Sent), Unit: "ms"})

	if err := r.checkCacheProbes(s, qm, singles); err != nil {
		return err
	}
	if err := r.servedHoldout(s, holdout, qm, false); err != nil {
		return err
	}
	rss, err := s.peakRSSKB()
	if err != nil {
		return err
	}
	r.res.e2e("peak_rss_mb", metric{Value: float64(rss) / 1024, Unit: "MB"})
	if r.traced() {
		n, err := r.openLoopLadder(s, picker, seen)
		if err != nil {
			return err
		}
		mismatched += n
	}
	r.res.check("load_answers_stable", mismatched == 0, "%d distinct pool queries answered, %d answers differed from the first", len(seen), mismatched)
	stopped = true
	if err := s.stop(); err != nil {
		return err
	}

	if !r.traced() {
		return nil
	}
	handleP50, err := r.traceServe(snap, firstQuery(schema), stream[:min(r.sz.traceRequests, len(stream))], countScaleTol(int64(r.sz.denseRows)))
	if err != nil {
		return err
	}
	r.res.layer("http.overhead_us", 1e3*measured.P50Ms-handleP50, "us")
	r.res.layer("par.cpu_ratio", measured.ServerCPUMs/(1e3*measured.Seconds), "ratio")
	r.res.layer("memo.wire_hit_ratio", measured.wireHitRatio(), "ratio")
	r.res.layer("memo.engine_hit_ratio", ratio(float64(measured.EngineHits), float64(measured.EngineHits+measured.EngineMisses)), "ratio")
	r.res.layer("memo.wire_evictions", float64(measured.WireEvictions), "count")
	r.res.layer("memo.wire_bytes", float64(measured.WireBytes), "bytes")
	r.ladderLayers()
	r.loadgenTotals()
	return nil
}

// openLoopLadder offers the server Zipf-popular requests on a seeded
// Poisson schedule over two connections: a step at each rate of the ladder,
// then the flat step at the nominal rate with flatter popularity. It
// appends the steps to the result and returns the answers that differed
// from an earlier answer to the same query.
func (r *runner) openLoopLadder(s *server, picker func(*rand.Rand, float64) func() *request, seen map[int]uint64) (int, error) {
	srng := r.rand(streamSchedule)
	pick := picker(srng, zipfSkew)
	clients := []*http.Client{newClient(), newClient()}
	mismatched := 0
	measure := func(name string, rate, skew float64, sched []arrival) error {
		st, lr, err := r.measureStep(s, name, rate, skew, func() *loadResult { return openLoop(clients, s.base, sched) }, seen)
		if err != nil {
			return err
		}
		mismatched += lr.mismatched
		r.res.Steps = append(r.res.Steps, st)
		return nil
	}
	for _, rate := range r.sz.ladder {
		if err := measure(fmt.Sprintf("%.0f", rate), rate, zipfSkew, poissonSchedule(srng, rate, r.window(0.15), pick)); err != nil {
			return 0, err
		}
	}
	flat := poissonSchedule(srng, r.sz.nominal, r.window(0.2), picker(srng, flatZipfSkew))
	if err := measure("flat", r.sz.nominal, flatZipfSkew, flat); err != nil {
		return 0, err
	}
	return mismatched, nil
}

// ladderLayers records the load generator's layer metrics from the
// open-loop steps.
func (r *runner) ladderLayers() {
	maxRate := 0.0
	for _, st := range r.res.Steps {
		switch {
		case st.Closed:
			continue
		case st.Name == "flat":
			r.res.layer("memo.flat_wire_hit_ratio", st.wireHitRatio(), "ratio")
			r.res.layer("loadgen.flat_read_p50_ms", st.P50Ms, "ms")
			r.res.layer("loadgen.flat_read_p99_ms", st.P99Ms, "ms")
			continue
		case st.Rate == r.sz.nominal:
			r.res.layer("loadgen.read_p50_ms", st.P50Ms, "ms")
			r.res.layer("loadgen.read_p99_ms", st.P99Ms, "ms")
			r.res.layer("loadgen.late_p99_ms", st.LateP99Ms, "ms")
		}
		if st.Pass {
			maxRate = st.Rate
		}
	}
	r.res.layer("loadgen.max_rate_qps", maxRate, "1/s")
}

// loadgenTotals records the requests sent and failed over every step.
func (r *runner) loadgenTotals() {
	sent, failed := 0, 0
	for _, s := range r.res.Steps {
		sent += s.Sent
		failed += s.Failed
	}
	r.res.layer("loadgen.sent", float64(sent), "count")
	r.res.layer("loadgen.failed", float64(failed), "count")
}

// checkCacheProbes sends a probe set to the cache-on server — half the
// Zipf head, so mostly wire-cache hits, half drawn from the whole pool —
// and compares every body with a cache-off handler over the same snapshot
// in this process.
func (r *runner) checkCacheProbes(s *server, qm *pka.QueryModel, singles []request) error {
	off := pka.NewServerWithOptions(qm, pka.ServerOptions{})
	rng := r.rand(streamProbes)
	c := &http.Client{Timeout: 10 * time.Second}
	equal := 0
	for i := 0; i < r.sz.probes; i++ {
		k := i
		if i >= r.sz.probes/2 {
			k = rng.Intn(len(singles))
		}
		served, status, err := post(c, s.base+"/v1/query", singles[k].body)
		r.res.ops(1, 0)
		if err != nil || status != http.StatusOK {
			r.res.ops(0, 1)
			continue
		}
		if want, code := handle(off, "/v1/query", singles[k].body); code == http.StatusOK && bytes.Equal(served, want) {
			equal++
		}
	}
	r.res.check("cache_on_equals_off", equal == r.sz.probes, "%d of %d probe answers byte-equal to the cache-off handler", equal, r.sz.probes)
	return nil
}

// servedHoldout asks the server for the probability of every held-out row
// and reports holdout_nats from the mean negative log. ref, when non-nil,
// is an in-process model whose log-loss on the same rows must agree.
func (r *runner) servedHoldout(s *server, holdout *pka.Dataset, ref pka.Querier, sparse bool) error {
	rows := make([][]string, holdout.Len())
	for i := range rows {
		rows[i] = holdout.Labels(i)
	}
	queries := jointQueries(holdout.Schema(), rows)
	c := &http.Client{Timeout: 30 * time.Second}
	const chunk = 100
	loss := 0.0
	for i := 0; i < len(queries); i += chunk {
		body := mustJSON(struct {
			Queries []pka.Query `json:"queries"`
		}{queries[i:min(i+chunk, len(queries))]})
		out, status, err := post(c, s.base+"/v1/query/batch", body)
		r.res.ops(1, 0)
		if err != nil || status != http.StatusOK {
			r.res.ops(0, 1)
			return fmt.Errorf("held-out batch: status %d, %v", status, err)
		}
		var resp struct {
			Results []pka.QueryResult `json:"results"`
		}
		if err := json.Unmarshal(out, &resp); err != nil {
			return fmt.Errorf("decoding held-out batch: %w", err)
		}
		for _, res := range resp.Results {
			if res.Error != "" {
				return fmt.Errorf("held-out query: %s", res.Error)
			}
			loss -= math.Log(res.Probability)
		}
	}
	loss /= float64(len(rows))
	r.recordHoldout(loss, len(rows), "served")
	if ref == nil {
		return nil
	}
	return r.checkHoldoutRef(loss, holdout, ref, sparse)
}

// checkHoldoutRef compares the served held-out loss with the library's
// LogLoss over the same rows.
func (r *runner) checkHoldoutRef(served float64, holdout *pka.Dataset, ref pka.Querier, sparse bool) error {
	counts, err := tabulateIn(ref.Schema(), holdout, sparse)
	if err != nil {
		return err
	}
	want, err := ref.LogLoss(counts)
	if err != nil {
		return err
	}
	rel := math.Abs(served-want) / want
	r.res.check("holdout_matches_library", rel <= 1e-9, "served %.12f, library %.12f nats/row", served, want)
	return nil
}
