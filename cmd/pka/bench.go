package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"pka"
	"pka/internal/contingency"
	"pka/internal/maxent"
	"pka/internal/stats"
	"pka/internal/synth"
)

// cmdBench runs a fixed performance suite over synthetic deterministic
// workloads — dense discovery, wide sparse discovery with screening,
// 520-attribute multi-word discovery with the conditional-independence
// screen,
// incremental refit, the factored block solver, batched query answering,
// the HTTP batch endpoint, and cold-start (load-to-first-query) for both
// persistence formats — and writes a machine-readable snapshot:
//
//	pka bench [-out BENCH_7.json] [-iters N] [-workers W]
//
// The snapshot (host info plus ns/op, allocs/op, and bytes/op per suite
// item) seeds the repo's performance trajectory: each perf-focused PR
// records its BENCH_<pr>.json so regressions are diffable instead of
// anecdotal. -iters 1 is the CI smoke configuration; the committed
// snapshots use the default iteration count.
//
// -workers-sweep re-measures the worker-sensitive items at each listed
// worker count, recording name@wN entries, so one snapshot captures the
// parallel scaling curve (meaningful on multi-core hosts; the host record
// flags single-core runs).
//
// With -serve the command is an HTTP load generator instead: it reads the
// target's schema, builds a rotating query workload, and fires it over
// -conns connections for -duration, reporting throughput and latency
// percentiles — the fleet-measurement harness for replicated deployments.
func cmdBench(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	out := fs.String("out", "BENCH_9.json", "snapshot output path (empty = stdout only); ignored with -serve")
	iters := fs.Int("iters", 5, "iterations per suite item (1 = CI smoke)")
	workers := fs.Int("workers", 0, "worker goroutines for the parallel suite items (0 = all cores, 1 = serial)")
	sweep := fs.String("workers-sweep", "", "comma-separated worker counts: re-measure the parallel suite items at each, as name@wN entries")
	serveURL := fs.String("serve", "", "loadgen mode: fire the query workload at this running pka server instead of the local suite")
	conns := fs.Int("conns", 4, "with -serve: concurrent connections")
	duration := fs.Duration("duration", 10*time.Second, "with -serve: measurement window")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *iters < 1 {
		return fmt.Errorf("bench: -iters must be >= 1, got %d", *iters)
	}
	if *serveURL != "" {
		return runLoadgen(w, *serveURL, *conns, *duration)
	}
	var sweepCounts []int
	if *sweep != "" {
		for _, s := range strings.Split(*sweep, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 1 {
				return fmt.Errorf("bench: bad -workers-sweep entry %q", s)
			}
			sweepCounts = append(sweepCounts, n)
		}
	}
	snap := benchSnapshot{
		Version: 9,
		Host: benchHost{
			Go:         runtime.Version(),
			OS:         runtime.GOOS,
			Arch:       runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			MultiCore:  runtime.NumCPU() > 1,
		},
		Workers: *workers,
	}
	suite, err := buildBenchSuite(*workers)
	if err != nil {
		return err
	}
	defer suite.close()
	for _, item := range suite.items {
		entry, err := measureBench(item, *iters)
		if err != nil {
			return fmt.Errorf("bench: %s: %w", item.name, err)
		}
		snap.Benchmarks = append(snap.Benchmarks, entry)
		fmt.Fprintf(w, "%-28s %12.0f ns/op %10d allocs/op %12d B/op\n",
			entry.Name, entry.NsPerOp, entry.AllocsPerOp, entry.BytesPerOp)
	}
	// The sweep rebuilds the suite per worker count (workloads are seeded,
	// so the measured operations are identical) and re-measures only the
	// items whose execution actually spreads across workers.
	for _, wc := range sweepCounts {
		sub, err := buildBenchSuite(wc)
		if err != nil {
			return err
		}
		for _, item := range sub.items {
			if !item.parallel {
				continue
			}
			entry, err := measureBench(item, *iters)
			if err != nil {
				sub.close()
				return fmt.Errorf("bench: %s @w%d: %w", item.name, wc, err)
			}
			entry.Name = fmt.Sprintf("%s@w%d", item.name, wc)
			snap.Benchmarks = append(snap.Benchmarks, entry)
			fmt.Fprintf(w, "%-28s %12.0f ns/op %10d allocs/op %12d B/op\n",
				entry.Name, entry.NsPerOp, entry.AllocsPerOp, entry.BytesPerOp)
		}
		sub.close()
	}
	snap.WorkersSweep = sweepCounts
	if *out != "" {
		data, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return fmt.Errorf("bench: %w", err)
		}
		fmt.Fprintf(w, "\nsnapshot written to %s\n", *out)
	}
	return nil
}

// benchSnapshot is the machine-readable perf record.
type benchSnapshot struct {
	Version int       `json:"version"`
	Host    benchHost `json:"host"`
	Workers int       `json:"workers"`
	// WorkersSweep lists the worker counts the name@wN entries were
	// re-measured at, empty when no sweep ran.
	WorkersSweep []int        `json:"workers_sweep,omitempty"`
	Benchmarks   []benchEntry `json:"benchmarks"`
}

// benchHost records where the numbers were taken. MultiCore flags whether
// the parallel suite items (worker-pool discovery, block solves, batch
// serving) could actually spread across cores on this host — single-core
// snapshots are not comparable on those items.
type benchHost struct {
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	MultiCore  bool   `json:"multi_core"`
}

type benchEntry struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp uint64  `json:"allocs_per_op"`
	BytesPerOp  uint64  `json:"bytes_per_op"`
}

// measureBench times iters runs of the item and reads allocation deltas
// from the runtime — coarser than testing.B's auto-scaling but
// dependency-free, covers allocations on worker goroutines, and is exactly
// reproducible given the suite's fixed seeds. Items with a prepare hook
// get it run untimed before every iteration, so operations that consume
// their input (the incremental refit folding a batch into a model) measure
// the same state every iteration instead of drifting with -iters.
func measureBench(item benchItem, iters int) (benchEntry, error) {
	var elapsed time.Duration
	var mallocs, bytes uint64
	var before, after runtime.MemStats
	for i := 0; i < iters; i++ {
		op := item.fn
		if item.prepare != nil {
			var err error
			if op, err = item.prepare(); err != nil {
				return benchEntry{}, err
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		if err := op(); err != nil {
			return benchEntry{}, err
		}
		elapsed += time.Since(start)
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
	}
	n := uint64(iters)
	return benchEntry{
		Name:        item.name,
		Iters:       iters,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		AllocsPerOp: mallocs / n,
		BytesPerOp:  bytes / n,
	}, nil
}

// benchSuite carries the prepared workloads plus any servers to tear down.
type benchSuite struct {
	items []benchItem
	srvs  []*http.Server
}

// benchItem is one suite entry: fn is the measured operation; prepare, if
// set, builds a fresh operation per iteration (untimed setup) instead.
// parallel marks items whose execution spreads across the -workers pool —
// the set -workers-sweep re-measures.
type benchItem struct {
	name     string
	fn       func() error
	prepare  func() (func() error, error)
	parallel bool
}

func (s *benchSuite) close() {
	for _, srv := range s.srvs {
		_ = srv.Close()
	}
}

// benchLabels is the shared ternary value set of the synthetic schemas.
var benchLabels = []string{"a", "b", "c"}

// benchDenseTable builds the dense-discovery workload: 6 ternary
// attributes, 4000 seeded rows with two planted couplings.
func benchDenseTable() (*pka.Table, *pka.Schema, error) {
	attrs := make([]pka.Attribute, 6)
	for i := range attrs {
		attrs[i] = pka.Attribute{Name: fmt.Sprintf("A%d", i), Values: benchLabels}
	}
	schema, err := pka.NewSchema(attrs)
	if err != nil {
		return nil, nil, err
	}
	tab, err := contingency.New(schema.Names(), schema.Cards())
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(101))
	cell := make([]int, 6)
	for n := 0; n < 4000; n++ {
		for i := range cell {
			cell[i] = rng.Intn(3)
		}
		if rng.Float64() < 0.6 {
			cell[1] = cell[0]
		}
		if rng.Float64() < 0.5 {
			cell[4] = cell[3]
		}
		if err := tab.Observe(cell...); err != nil {
			return nil, nil, err
		}
	}
	return tab, schema, nil
}

// benchSparseTable builds the wide-schema workload: 24 binary attributes,
// 8000 seeded rows, two planted couplings.
func benchSparseTable() (*pka.SparseTable, *pka.Schema, error) {
	attrs := make([]pka.Attribute, 24)
	for i := range attrs {
		attrs[i] = pka.Attribute{Name: fmt.Sprintf("W%d", i), Values: []string{"0", "1"}}
	}
	schema, err := pka.NewSchema(attrs)
	if err != nil {
		return nil, nil, err
	}
	s, err := pka.NewSparseTable(schema)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(202))
	cell := make([]int, 24)
	for n := 0; n < 8000; n++ {
		for i := range cell {
			cell[i] = rng.Intn(2)
		}
		if rng.Float64() < 0.8 {
			cell[23] = cell[0]
		}
		if rng.Float64() < 0.6 {
			cell[12] = cell[1]
		}
		if err := s.Observe(cell...); err != nil {
			return nil, nil, err
		}
	}
	return s, schema, nil
}

// benchFactoredModel builds the block-solver workload: 6 independent
// blocks of 5 ternary attributes with empirical first-order and order-2
// constraints — the same shape BenchmarkFitFactoredParallel measures.
func benchFactoredModel() (*maxent.Model, error) {
	const nBlocks, blockAttrs = 6, 5
	r := nBlocks * blockAttrs
	cards := make([]int, r)
	for i := range cards {
		cards[i] = 3
	}
	tab, err := contingency.NewSparse(nil, cards)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(303))
	cell := make([]int, r)
	for n := 0; n < 4000; n++ {
		for b := 0; b < nBlocks; b++ {
			base := b * blockAttrs
			cell[base] = rng.Intn(3)
			for j := 1; j < blockAttrs; j++ {
				if rng.Float64() < 0.7 {
					cell[base+j] = cell[base]
				} else {
					cell[base+j] = rng.Intn(3)
				}
			}
		}
		if err := tab.Observe(cell...); err != nil {
			return nil, err
		}
	}
	m, err := maxent.NewModel(nil, cards)
	if err != nil {
		return nil, err
	}
	if err := m.AddFirstOrderConstraints(tab); err != nil {
		return nil, err
	}
	total := float64(tab.Total())
	for b := 0; b < nBlocks; b++ {
		base := b * blockAttrs
		for j := 1; j < blockAttrs; j++ {
			fam := contingency.NewVarSet(base, base+j)
			n, err := tab.MarginalCount(fam, []int{1, 1})
			if err != nil {
				return nil, err
			}
			if err := m.AddConstraint(maxent.Constraint{
				Family: fam, Values: []int{1, 1}, Target: float64(n) / total,
			}); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// benchQueryWorkload builds 128 queries over 16 distinct evidence groups
// (base-3 digits of g over three evidence attributes: 27 possible combos,
// g = 0..15 all distinct) against the dense-discovery schema.
func benchQueryWorkload() []pka.Query {
	var queries []pka.Query
	for g := 0; g < 16; g++ {
		given := []pka.Assignment{
			{Attr: "A0", Value: benchLabels[g%3]},
			{Attr: "A3", Value: benchLabels[(g/3)%3]},
			{Attr: "A5", Value: benchLabels[(g/9)%3]},
		}
		for v := 0; v < 3; v++ {
			queries = append(queries,
				pka.Query{Kind: pka.QueryConditional, Target: []pka.Assignment{{Attr: "A1", Value: benchLabels[v]}}, Given: given},
				pka.Query{Kind: pka.QueryConditional, Target: []pka.Assignment{{Attr: "A4", Value: benchLabels[v]}}, Given: given},
			)
		}
		queries = append(queries,
			pka.Query{Kind: pka.QueryDistribution, Attr: "A2", Given: given},
			pka.Query{Kind: pka.QueryMPE, Given: given},
		)
	}
	return queries
}

// buildBenchSuite prepares every workload up front so the measured
// functions run nothing but the operation under test (plus the documented
// per-iteration clone where the operation consumes its input).
func buildBenchSuite(workers int) (*benchSuite, error) {
	suite := &benchSuite{}

	denseTab, denseSchema, err := benchDenseTable()
	if err != nil {
		return nil, err
	}
	discoverOpts := pka.Options{MaxOrder: 2, Workers: workers}
	suite.items = append(suite.items, benchItem{name: "discover_dense", fn: func() error {
		_, err := pka.DiscoverTable(denseTab.Clone(), denseSchema, discoverOpts)
		return err
	}})

	sparseMaster, sparseSchema, err := benchSparseTable()
	if err != nil {
		return nil, err
	}
	sparseOpts := pka.Options{MaxOrder: 2, ScreenPairs: true, Workers: workers}
	suite.items = append(suite.items, benchItem{name: "discover_sparse_screen", fn: func() error {
		// DiscoverSparse takes ownership of its table: each iteration
		// clones the master (O(occupied), cold projection cache).
		_, err := pka.DiscoverSparse(sparseMaster.Clone(), sparseSchema, sparseOpts)
		return err
	}})

	// The mammoth-schema workload: 520 binary attributes (8 key words) with
	// 260 planted pair couplings, discovered through the flattened bulk
	// pairwise screen, the conditional-independence refinement, and the
	// factored fit under a constraint cap. This is the representative
	// measurement of the multi-word representation: no single-word schema
	// can express it.
	wideTruth, err := synth.WidePairs(260, 3)
	if err != nil {
		return nil, err
	}
	wideMaster, err := wideTruth.SampleSparse(stats.NewRNG(707), 1200)
	if err != nil {
		return nil, err
	}
	wideOpts := pka.Options{
		MaxOrder:       2,
		ScreenPairs:    true,
		ScreenCI:       true,
		MaxConstraints: 32,
		Workers:        workers,
	}
	suite.items = append(suite.items, benchItem{name: "wide_discover", parallel: true, fn: func() error {
		_, err := pka.DiscoverSparse(wideMaster.Clone(), wideTruth.Schema(), wideOpts)
		return err
	}})

	// One fixed delta batch (1% of the 8000-row bank), applied to a fresh
	// model per iteration: every iteration measures the same refit against
	// the same state, so snapshots taken at different -iters stay
	// comparable. Model construction happens in the untimed prepare hook.
	refitRng := rand.New(rand.NewSource(404))
	delta := make([]pka.Record, 80)
	for i := range delta {
		row := make([]int, 24)
		for j := range row {
			row[j] = refitRng.Intn(2)
		}
		if refitRng.Float64() < 0.8 {
			row[23] = row[0]
		}
		delta[i] = row
	}
	suite.items = append(suite.items, benchItem{name: "incremental_refit", prepare: func() (func() error, error) {
		refitModel, err := pka.DiscoverSparse(sparseMaster.Clone(), sparseSchema, sparseOpts)
		if err != nil {
			return nil, err
		}
		return func() error {
			_, err := refitModel.Update(delta)
			return err
		}, nil
	}})

	// Cold start: the wide sparse discovery output persisted once in each
	// format, then timed from bytes to a served first answer. The snapshot
	// bytes come from the JSON-loaded QueryModel so both items restore the
	// identical schema+model payload (no discovery counts in either file) —
	// the delta is purely parse + engine reconstruction, with the solve
	// skipped on the binary path.
	coldModel, err := pka.DiscoverSparse(sparseMaster.Clone(), sparseSchema, sparseOpts)
	if err != nil {
		return nil, err
	}
	var jsonBuf bytes.Buffer
	if err := coldModel.Save(&jsonBuf); err != nil {
		return nil, err
	}
	coldQuery, err := pka.Load(bytes.NewReader(jsonBuf.Bytes()))
	if err != nil {
		return nil, err
	}
	var snapBuf bytes.Buffer
	if err := coldQuery.SaveSnapshot(&snapBuf); err != nil {
		return nil, err
	}
	jsonBytes, snapBytes := jsonBuf.Bytes(), snapBuf.Bytes()
	coldFirstQuery := func(m *pka.QueryModel) error {
		p, err := m.Conditional(
			[]pka.Assignment{{Attr: "W1", Value: "1"}},
			[]pka.Assignment{{Attr: "W0", Value: "1"}},
		)
		if err != nil {
			return err
		}
		if p <= 0 || p >= 1 {
			return fmt.Errorf("cold-start query answered %g", p)
		}
		return nil
	}
	suite.items = append(suite.items, benchItem{name: "cold_start_json", fn: func() error {
		m, err := pka.Load(bytes.NewReader(jsonBytes))
		if err != nil {
			return err
		}
		return coldFirstQuery(m)
	}})
	suite.items = append(suite.items, benchItem{name: "cold_start_snapshot", fn: func() error {
		m, err := pka.LoadSnapshot(bytes.NewReader(snapBytes))
		if err != nil {
			return err
		}
		return coldFirstQuery(m)
	}})

	factoredMaster, err := benchFactoredModel()
	if err != nil {
		return nil, err
	}
	suite.items = append(suite.items, benchItem{name: "fit_factored", parallel: true, fn: func() error {
		m := factoredMaster.Clone()
		rep, err := m.Fit(maxent.SolveOptions{Workers: workers})
		if err != nil {
			return err
		}
		if !rep.Converged {
			return fmt.Errorf("factored fit did not converge (residual %g)", rep.Residual)
		}
		return nil
	}})

	queryModel, err := pka.DiscoverTable(denseTab.Clone(), denseSchema, discoverOpts)
	if err != nil {
		return nil, err
	}
	queries := benchQueryWorkload()
	suite.items = append(suite.items, benchItem{name: "answer_batch", parallel: true, fn: func() error {
		results, err := pka.AnswerBatchWorkers(queryModel, queries, workers)
		if err != nil {
			return err
		}
		for i, r := range results {
			if r.Error != "" {
				return fmt.Errorf("query %d: %s", i, r.Error)
			}
		}
		return nil
	}})

	// A real loopback listener (not httptest, which panics on failure and
	// belongs to test binaries): bind errors surface as clean bench errors.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("binding loopback listener: %w", err)
	}
	srv := &http.Server{Handler: pka.NewServerWithOptions(queryModel, pka.ServerOptions{Workers: workers})}
	suite.srvs = append(suite.srvs, srv)
	go func() { _ = srv.Serve(l) }()
	baseURL := "http://" + l.Addr().String()
	body, err := json.Marshal(struct {
		Queries []pka.Query `json:"queries"`
	}{queries})
	if err != nil {
		return nil, err
	}
	client := &http.Client{}
	httpBatch := func(url string) func() error {
		return func() error {
			resp, err := client.Post(url+"/v1/query/batch", "application/json", bytes.NewReader(body))
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("http batch status %d", resp.StatusCode)
			}
			return nil
		}
	}
	suite.items = append(suite.items, benchItem{name: "http_batch", parallel: true, fn: httpBatch(baseURL)})

	// The serving-cache measurement pair: the identical single query driven
	// straight through the HTTP handler (no TCP stack — both sides of the
	// ratio shed the same socket overhead, so the numbers isolate the
	// serving path itself). The model is the 24-attribute wide factored
	// snapshot — the shape caching exists for. The miss side evaluates and
	// re-encodes every request against a cache-off handler; the hit side
	// hits a fully warmed wire tier. Each measured op is a fixed burst so
	// the per-request cost stands clear of the measurement floor.
	missModel, err := pka.LoadSnapshot(bytes.NewReader(snapBytes))
	if err != nil {
		return nil, err
	}
	hitModel, err := pka.LoadSnapshot(bytes.NewReader(snapBytes))
	if err != nil {
		return nil, err
	}
	hitModel.EnableCache(32 << 20)
	missHandler := pka.NewServerWithOptions(missModel, pka.ServerOptions{Workers: workers})
	hitHandler := pka.NewServerWithOptions(hitModel, pka.ServerOptions{Workers: workers, CacheBytes: 32 << 20})
	singleBody := []byte(`{"kind":"mpe","given":[{"attr":"W0","value":"1"}]}`)
	// One request object per handler, its body rewound between calls: the
	// burst measures the handler, not request construction.
	const queryBurst = 512
	burst := func(h http.Handler) (func() error, error) {
		rd := bytes.NewReader(singleBody)
		req, err := http.NewRequest(http.MethodPost, "/v1/query", nil)
		if err != nil {
			return nil, err
		}
		req.Body = rewindCloser{rd}
		req.ContentLength = int64(len(singleBody))
		rec := &benchResponseWriter{header: make(http.Header)}
		return func() error {
			for i := 0; i < queryBurst; i++ {
				if _, err := rd.Seek(0, io.SeekStart); err != nil {
					return err
				}
				// Re-arm the body every call: decodeBody wraps r.Body in a
				// MaxBytesReader, so leaving it would stack one wrapper per
				// iteration on the shared request.
				req.Body = rewindCloser{rd}
				rec.status = 0
				h.ServeHTTP(rec, req)
				if rec.status != 0 && rec.status != http.StatusOK {
					return fmt.Errorf("http query status %d", rec.status)
				}
			}
			return nil
		}, nil
	}
	missBurst, err := burst(missHandler)
	if err != nil {
		return nil, err
	}
	hitBurst, err := burst(hitHandler)
	if err != nil {
		return nil, err
	}
	if err := hitBurst(); err != nil {
		return nil, fmt.Errorf("warming the cached handler: %w", err)
	}
	suite.items = append(suite.items, benchItem{name: "http_query_miss", fn: missBurst})
	suite.items = append(suite.items, benchItem{name: "http_query_hit", fn: hitBurst})

	// The cache-on side of the batch sweep: same workload, same real
	// loopback server shape as http_batch, but with the engine tier warm —
	// cross-request reuse of denominators and marginals that http_batch can
	// only exploit within one request.
	cachedBatchModel, err := pka.DiscoverTable(denseTab.Clone(), denseSchema, discoverOpts)
	if err != nil {
		return nil, err
	}
	cachedBatchModel.EnableCache(32 << 20)
	lc, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("binding loopback listener: %w", err)
	}
	cachedSrv := &http.Server{Handler: pka.NewServerWithOptions(cachedBatchModel, pka.ServerOptions{Workers: workers, CacheBytes: 32 << 20})}
	suite.srvs = append(suite.srvs, cachedSrv)
	go func() { _ = cachedSrv.Serve(lc) }()
	suite.items = append(suite.items, benchItem{name: "http_batch_cached", parallel: true, fn: httpBatch("http://" + lc.Addr().String())})

	return suite, nil
}

// benchResponseWriter is the minimal ResponseWriter the handler-direct
// bench items write into: headers kept, body discarded, status recorded.
type benchResponseWriter struct {
	header http.Header
	status int
}

func (w *benchResponseWriter) Header() http.Header         { return w.header }
func (w *benchResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *benchResponseWriter) WriteHeader(status int)      { w.status = status }

// rewindCloser lets one request body serve every burst iteration.
type rewindCloser struct{ *bytes.Reader }

func (rewindCloser) Close() error { return nil }
