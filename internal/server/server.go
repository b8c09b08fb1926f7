// Package server is the network layer over the unified query API: an
// http.Handler exposing one compiled knowledge base as JSON endpoints, plus
// graceful-serve helpers for the CLI. The handler holds a single Querier —
// the compiled inference engine is built once at model load and reused for
// every request, so serving adds no per-request compilation or locking; the
// engine itself is safe for any number of concurrent requests.
//
// Endpoints:
//
//	GET  /healthz         liveness probe
//	GET  /readyz          readiness: model loaded and (replicas) caught up
//	GET  /v1/schema       the attribute layout queries are expressed against
//	POST /v1/query        one Query value -> one Result
//	POST /v1/query/batch  {"queries": [...]} -> {"results": [...]}
//	POST /v1/observe      {"rows": [["label", ...], ...]} -> ingest report
//	GET  /v1/rules        extracted IF-THEN rules (min_prob, min_support, min_lift, top)
//	GET  /v1/explain      the stored probability formula, as text
//
// /v1/observe is the streaming-ingest path: when the served model also
// implements query.Ingestor (a discovered model that kept its counts), the
// batch is folded in by an incremental refit and the compiled engine is
// swapped atomically — concurrent queries never block on ingest and always
// see a consistent snapshot. Read-only models (loaded from a saved file)
// answer it with 501.
//
// The request and response bodies use the same encoding as `pka query
// -json` (see internal/query): one wire format across CLI and network.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"pka/internal/kb"
	"pka/internal/memo"
	"pka/internal/query"
	"pka/internal/rules"
)

// Options tunes the handler.
type Options struct {
	// MaxBatch caps the number of queries accepted per batch request
	// (0 = DefaultMaxBatch).
	MaxBatch int
	// MaxBodyBytes caps request body size (0 = DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// MaxObserveRows caps the rows accepted per observe request
	// (0 = DefaultMaxObserveRows).
	MaxObserveRows int
	// CacheBytes sizes the wire-tier response cache: exact encoded 200
	// bodies of /v1/query, /v1/rules, and /v1/explain, keyed by canonical
	// request + model version so every observe batch invalidates
	// implicitly. 0 (the default) disables; negative means unbounded. An
	// updatable model that exposes no version surface cannot carry the
	// tier (nothing to invalidate on) and serves uncached regardless.
	CacheBytes int64
}

// DefaultMaxBatch bounds batch requests when Options.MaxBatch is 0.
const DefaultMaxBatch = 1024

// DefaultMaxBodyBytes bounds request bodies when Options.MaxBodyBytes is 0.
const DefaultMaxBodyBytes = 1 << 20

// DefaultMaxObserveRows bounds observe requests when Options.MaxObserveRows
// is 0.
const DefaultMaxObserveRows = 10000

// New returns the JSON query handler over the model with default options.
func New(q query.Querier) http.Handler { return NewWithOptions(q, Options{}) }

// NewWithOptions returns the JSON query handler over the model.
func NewWithOptions(q query.Querier, opts Options) http.Handler {
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = DefaultMaxBatch
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if opts.MaxObserveRows <= 0 {
		opts.MaxObserveRows = DefaultMaxObserveRows
	}
	h := &handler{q: q, opts: opts}
	h.ingest, _ = q.(query.Ingestor)
	h.versioned, _ = q.(query.Versioned)
	h.ready, _ = q.(query.ReadyReporter)
	h.cacheStats, _ = q.(query.CacheStatsReporter)
	h.wire = newWireCache(opts, h.ingest, h.versioned)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", h.healthz)
	mux.HandleFunc("GET /readyz", h.readyz)
	mux.HandleFunc("GET /v1/schema", h.schema)
	mux.HandleFunc("GET /v1/stats", h.stats)
	mux.HandleFunc("POST /v1/query", h.query)
	mux.HandleFunc("POST /v1/query/batch", h.queryBatch)
	mux.HandleFunc("POST /v1/observe", h.observe)
	mux.HandleFunc("GET /v1/rules", h.rules)
	mux.HandleFunc("GET /v1/explain", h.explain)
	return mux
}

type handler struct {
	q query.Querier
	// ingest is the model's streaming-ingest surface; nil when the served
	// model is read-only (loaded from a file, counts not retained).
	ingest query.Ingestor
	// versioned exposes the monotonic model version when the Querier
	// carries one; nil otherwise.
	versioned query.Versioned
	// ready is the Querier's readiness surface (replicas report catch-up
	// lag through it); nil means ready-once-constructed.
	ready query.ReadyReporter
	// cacheStats is the Querier's cache-observability surface (the engine
	// tier for /v1/stats); nil when it carries none.
	cacheStats query.CacheStatsReporter
	// wire is the L1 response-byte cache (see cache.go); nil when off.
	wire *memo.Cache
	opts Options
}

// bufPool recycles response-encoding buffers across requests: every
// response body is rendered into a pooled buffer and written in one call,
// so the serving hot path allocates no fresh encoder scratch per request
// and small responses avoid chunked encoding (one write = Content-Length
// set by net/http).
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBuf bounds the capacity returned to the pool, so one huge batch
// response does not pin its buffer forever.
const maxPooledBuf = 1 << 20

// writeBody JSON-encodes v into a pooled buffer and writes it with the
// given status. Encoding errors surface before any byte or header reaches
// the client, so a failed encode still gets a clean 500.
func writeBody(w http.ResponseWriter, status int, v any) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooledBuf {
			bufPool.Put(buf)
		}
	}()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// writeError emits the shared error body — the same shape a failed batch
// slot has: {"kind": ..., "error": "..."}; kind is empty (and omitted)
// when the request failed before its kind was known.
func writeError(w http.ResponseWriter, status int, kind query.Kind, err error) {
	writeBody(w, status, query.Result{Kind: kind, Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, v any) {
	writeBody(w, http.StatusOK, v)
}

func (h *handler) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]string{"status": "ok"})
}

// readyz is the routing probe, distinct from healthz's liveness: healthz
// says the process is up, readyz says it should receive traffic. A
// standalone model is ready the moment it serves (the model loaded before
// the listener bound); replication roles report through query.ReadyReporter —
// a replica mid-catch-up or a broken primary answers 503 with its lag or
// fault, so load balancers drain it without killing the process.
func (h *handler) readyz(w http.ResponseWriter, r *http.Request) {
	rd := query.Readiness{Ready: true, Role: "standalone"}
	if h.versioned != nil {
		rd.Version = h.versioned.Version()
	}
	if h.ready != nil {
		rd = h.ready.Readiness()
	}
	status := http.StatusOK
	if !rd.Ready {
		status = http.StatusServiceUnavailable
	}
	writeBody(w, status, rd)
}

// attrJSON mirrors the knowledge-base file's attribute encoding.
type attrJSON struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

func (h *handler) schema(w http.ResponseWriter, r *http.Request) {
	s := h.q.Schema()
	attrs := make([]attrJSON, s.R())
	for i := 0; i < s.R(); i++ {
		a := s.Attr(i)
		attrs[i] = attrJSON{Name: a.Name, Values: append([]string(nil), a.Values...)}
	}
	body := map[string]any{"attributes": attrs}
	if h.versioned != nil {
		// The monotonic model version rides along so clients can gate
		// read-your-writes: poll a replica's schema (or readyz) until its
		// version reaches the one /v1/observe returned.
		body["version"] = h.versioned.Version()
	}
	writeJSON(w, body)
}

// decodeBody decodes one JSON value, rejecting trailing garbage: only
// whitespace may follow it, so a second concatenated value is an error
// rather than silently dropped.
func (h *handler) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, h.opts.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("server: decoding request: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("a second value")
		}
		return fmt.Errorf("server: decoding request: trailing data after the JSON value: %w", err)
	}
	return nil
}

// decodeStatus distinguishes "shrink your request" (413, body over the
// MaxBodyBytes cap) from "your JSON is malformed" (400).
func decodeStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// queryPool recycles the single-query request scratch: the decoded Query
// and its assignment slices. A returned Query is deep-cleared first —
// stale elements in the reused arrays must never leak into a later
// request that omits a field JSON-side.
var queryPool = sync.Pool{New: func() any { return new(query.Query) }}

// clearAssignments zeroes the slice through its full capacity and returns
// it empty, keeping the backing array for the next decode.
func clearAssignments(s []kb.Assignment) []kb.Assignment {
	s = s[:cap(s)]
	clear(s)
	return s[:0]
}

func (h *handler) query(w http.ResponseWriter, r *http.Request) {
	qu := queryPool.Get().(*query.Query)
	defer func() {
		*qu = query.Query{
			Target: clearAssignments(qu.Target),
			Given:  clearAssignments(qu.Given),
		}
		queryPool.Put(qu)
	}()
	if err := h.decodeBody(w, r, qu); err != nil {
		writeError(w, decodeStatus(err), "", err)
		return
	}
	if h.wire != nil {
		// The version is read BEFORE answering: the engine swap publishes
		// before the version bump, so the bytes computed below come from an
		// engine at least this fresh — safe to file under this version.
		version := h.version()
		ks := wireKeyPool.Get().(*wireKeyBuf)
		key := appendQueryKey(ks.buf[:0], qu)
		ks.buf = key
		if v, ok := h.wire.Get(key, version); ok {
			wireKeyPool.Put(ks)
			writeCachedJSON(w, v.([]byte))
			return
		}
		res, err := query.Answer(h.q, *qu)
		if err != nil {
			wireKeyPool.Put(ks)
			writeError(w, http.StatusBadRequest, qu.Kind, err)
			return
		}
		h.writeJSONCaching(w, key, version, res)
		wireKeyPool.Put(ks)
		return
	}
	// Answer copies nothing out of the query: every Result field comes from
	// the model, so the scratch can be pooled as soon as we return.
	res, err := query.Answer(h.q, *qu)
	if err != nil {
		writeError(w, http.StatusBadRequest, qu.Kind, err)
		return
	}
	// writeJSON produces query.EncodeResult's exact wire bytes (one JSON
	// object, trailing newline) from the pooled buffer.
	writeJSON(w, res)
}

// batchRequest and batchResponse frame the batch endpoint.
type batchRequest struct {
	Queries []query.Query `json:"queries"`
}

type batchResponse struct {
	Results []query.Result `json:"results"`
}

func (h *handler) queryBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := h.decodeBody(w, r, &req); err != nil {
		writeError(w, decodeStatus(err), "", err)
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, "", fmt.Errorf("server: empty batch"))
		return
	}
	if len(req.Queries) > h.opts.MaxBatch {
		writeError(w, http.StatusBadRequest, "",
			fmt.Errorf("server: batch of %d exceeds limit %d", len(req.Queries), h.opts.MaxBatch))
		return
	}
	results, err := query.AnswerBatch(h.q, req.Queries)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "", err)
		return
	}
	writeJSON(w, batchResponse{Results: results})
}

// observeRequest frames the streaming-ingest endpoint: one value label per
// schema attribute per row, in schema order.
type observeRequest struct {
	Rows [][]string `json:"rows"`
}

func (h *handler) observe(w http.ResponseWriter, r *http.Request) {
	if h.ingest == nil {
		writeError(w, http.StatusNotImplemented, "",
			fmt.Errorf("server: this model is read-only (loaded from a saved file); serve a discovered model with its data to enable ingest"))
		return
	}
	var req observeRequest
	if err := h.decodeBody(w, r, &req); err != nil {
		writeError(w, decodeStatus(err), "", err)
		return
	}
	if len(req.Rows) == 0 {
		writeError(w, http.StatusBadRequest, "", fmt.Errorf("server: empty observe batch"))
		return
	}
	if len(req.Rows) > h.opts.MaxObserveRows {
		writeError(w, http.StatusBadRequest, "",
			fmt.Errorf("server: observe batch of %d exceeds limit %d", len(req.Rows), h.opts.MaxObserveRows))
		return
	}
	rep, err := h.ingest.ObserveLabeled(req.Rows)
	if err != nil {
		// Bad rows are the client's fault; anything else (a refit or
		// rediscovery failing on valid input) is server state.
		status := http.StatusInternalServerError
		if errors.Is(err, query.ErrRejectedRows) {
			status = http.StatusBadRequest
		}
		writeError(w, status, "", err)
		return
	}
	writeJSON(w, rep)
}

// ruleJSON is one extracted rule on the wire.
type ruleJSON struct {
	If          []kb.Assignment `json:"if"`
	Then        kb.Assignment   `json:"then"`
	Probability float64         `json:"probability"`
	Support     float64         `json:"support"`
	Lift        float64         `json:"lift"`
	Text        string          `json:"text"`
}

// floatParam parses an optional float query parameter. ParseFloat happily
// accepts "NaN" and "Inf", which would turn every downstream threshold
// comparison into silent nonsense (NaN compares false with everything), so
// non-finite values are rejected here with the same 400 a parse failure
// gets.
func floatParam(r *http.Request, name string) (float64, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("server: bad %s %q", name, s)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("server: %s must be finite, got %q", name, s)
	}
	return v, nil
}

func (h *handler) rules(w http.ResponseWriter, r *http.Request) {
	var opts rules.Options
	var err error
	if opts.MinProbability, err = floatParam(r, "min_prob"); err != nil {
		writeError(w, http.StatusBadRequest, "", err)
		return
	}
	if opts.MinSupport, err = floatParam(r, "min_support"); err != nil {
		writeError(w, http.StatusBadRequest, "", err)
		return
	}
	if opts.MinLiftDistance, err = floatParam(r, "min_lift"); err != nil {
		writeError(w, http.StatusBadRequest, "", err)
		return
	}
	if s := r.URL.Query().Get("top"); s != "" {
		if opts.MaxRules, err = strconv.Atoi(s); err != nil {
			writeError(w, http.StatusBadRequest, "", fmt.Errorf("server: bad top %q", s))
			return
		}
	}
	if h.wire != nil {
		version := h.version()
		ks := wireKeyPool.Get().(*wireKeyBuf)
		key := appendRulesKey(ks.buf[:0], opts)
		ks.buf = key
		if v, ok := h.wire.Get(key, version); ok {
			wireKeyPool.Put(ks)
			writeCachedJSON(w, v.([]byte))
			return
		}
		h.rulesUncached(w, opts, key, version)
		wireKeyPool.Put(ks)
		return
	}
	h.rulesUncached(w, opts, nil, 0)
}

// rulesUncached extracts, encodes, and (when key is non-nil) caches the
// rules response — the shared tail of the hit-missed and cache-off paths.
func (h *handler) rulesUncached(w http.ResponseWriter, opts rules.Options, key []byte, version int64) {
	rs, err := h.q.Rules(opts)
	if err != nil {
		writeError(w, http.StatusBadRequest, "", err)
		return
	}
	sp := ruleScratch.Get().(*[]ruleJSON)
	out := (*sp)[:0]
	for _, rule := range rs {
		out = append(out, ruleJSON{
			If:          rule.If,
			Then:        rule.Then,
			Probability: rule.Probability,
			Support:     rule.Support,
			Lift:        rule.Lift,
			Text:        rule.String(),
		})
	}
	if key != nil {
		h.writeJSONCaching(w, key, version, rulesResponse{Rules: out})
	} else {
		writeJSON(w, rulesResponse{Rules: out})
	}
	// Drop the rule references before pooling so the scratch does not pin
	// the extracted rules (and their assignment slices) across requests.
	clear(out)
	if cap(out) <= maxPooledRules {
		*sp = out[:0]
		ruleScratch.Put(sp)
	}
}

// rulesResponse frames /v1/rules with a concrete type: encoding it skips
// the per-request map and interface boxing of the previous wire shape
// while emitting the same JSON.
type rulesResponse struct {
	Rules []ruleJSON `json:"rules"`
}

// ruleScratch recycles the rules handler's wire-struct slice; capacities
// over maxPooledRules entries are dropped instead of pinned.
var ruleScratch = sync.Pool{New: func() any { return new([]ruleJSON) }}

const maxPooledRules = 4096

func (h *handler) explain(w http.ResponseWriter, r *http.Request) {
	// One counted write: the client gets Content-Length instead of chunked
	// encoding, and WriteString skips fmt's []byte conversion copy.
	var s string
	if h.wire != nil {
		// Explain re-renders the whole constraint list per call; the wire
		// tier keeps the rendered text until the next version bump.
		version := h.version()
		if v, ok := h.wire.Get(explainKey, version); ok {
			s = v.(string)
		} else {
			s = h.q.Explain()
			h.wire.Put(explainKey, version, s, int64(len(s)))
		}
	} else {
		s = h.q.Explain()
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(s)))
	_, _ = io.WriteString(w, s)
}

// shutdownGrace bounds how long Serve waits for in-flight requests after
// its context is canceled.
const shutdownGrace = 5 * time.Second

// Serve runs the handler on the listener until ctx is canceled, then
// shuts down gracefully: the listener closes immediately, in-flight
// requests get shutdownGrace to finish. A clean shutdown returns nil.
func Serve(ctx context.Context, l net.Listener, h http.Handler) error {
	// Full read/write/idle timeouts: queries answer in microseconds, so a
	// connection holding a goroutine for longer than this is a slow or
	// stalled client, not work.
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}

// ListenAndServe binds addr and calls Serve. ready, if non-nil, receives
// the bound address once listening — for callers that bind port 0.
func ListenAndServe(ctx context.Context, addr string, h http.Handler, ready func(net.Addr)) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready(l.Addr())
	}
	return Serve(ctx, l, h)
}
