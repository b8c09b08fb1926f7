package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"

	"pka/internal/kb"
	"pka/internal/memo"
	"pka/internal/query"
	"pka/internal/rules"
)

// The wire-tier (L1) cache: exact encoded response bytes, keyed by a
// canonical rendering of the request plus the model version read BEFORE
// the answer was computed. A hot hit is one map lookup and one counted
// Write — zero evaluation, zero re-encode.
//
// Correctness rests on two facts. First, answers are insensitive to
// assignment order (resolution canonicalizes to sorted positions), so the
// key sorts target and evidence parts, and any ordering of one question
// hits one entry. Second, the model stores a swapped engine before bumping
// its version (see queryCore), so bytes cached under a pre-read version v
// always come from an engine at least as fresh as v: a client that
// observed version v probes at >= v and can never surface v-1 bytes.
// Only 200 responses are cached; errors re-render their messages.

// wireKeyPool recycles the key-rendering scratch of the wire tier.
var wireKeyPool = sync.Pool{New: func() any { return new(wireKeyBuf) }}

type wireKeyBuf struct{ buf []byte }

// explainKey is the wire key of GET /v1/explain (no parameters).
var explainKey = []byte("e")

// version reads the served model's version, the wire tier's cache key
// epoch; models without a version surface are immutable (version 0).
func (h *handler) version() int64 {
	if h.versioned != nil {
		return h.versioned.Version()
	}
	return 0
}

// appendSortedAssigns renders assignments in (Attr, Value) order without
// mutating the slice: an insertion-sorted index array on the stack keeps
// the render allocation-free for realistic arities. Quoting keeps
// adjacent parts from colliding.
func appendSortedAssigns(dst []byte, as []kb.Assignment) []byte {
	var stack [16]int
	idx := stack[:0]
	if len(as) > len(stack) {
		idx = make([]int, 0, len(as))
	}
	for i := range as {
		idx = append(idx, i)
		for j := len(idx) - 1; j > 0; j-- {
			a, b := as[idx[j]], as[idx[j-1]]
			if a.Attr > b.Attr || (a.Attr == b.Attr && a.Value >= b.Value) {
				break
			}
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	for _, i := range idx {
		dst = strconv.AppendQuote(dst, as[i].Attr)
		dst = append(dst, '=')
		dst = strconv.AppendQuote(dst, as[i].Value)
		dst = append(dst, ',')
	}
	return dst
}

// appendQueryKey renders one single-query request canonically:
// kind | attr | sorted target | sorted given.
func appendQueryKey(dst []byte, qu *query.Query) []byte {
	dst = append(dst, qu.Kind...)
	dst = append(dst, '|')
	dst = strconv.AppendQuote(dst, qu.Attr)
	dst = append(dst, '|')
	dst = appendSortedAssigns(dst, qu.Target)
	dst = append(dst, '|')
	dst = appendSortedAssigns(dst, qu.Given)
	return dst
}

// appendRulesKey renders /v1/rules parameters: float thresholds travel as
// IEEE-754 bits so distinct values never collide through formatting.
func appendRulesKey(dst []byte, opts rules.Options) []byte {
	dst = append(dst, 'r', '|')
	dst = strconv.AppendUint(dst, math.Float64bits(opts.MinProbability), 16)
	dst = append(dst, '|')
	dst = strconv.AppendUint(dst, math.Float64bits(opts.MinSupport), 16)
	dst = append(dst, '|')
	dst = strconv.AppendUint(dst, math.Float64bits(opts.MinLiftDistance), 16)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(opts.MaxRules), 10)
	return dst
}

// writeCachedJSON serves a wire-cache hit: the stored bytes, one counted
// write. The cached slice is published and never mutated.
func writeCachedJSON(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}

// writeJSONCaching encodes v, stores a private copy of the bytes in the
// wire cache under (key, version), and writes the response — the miss
// path of a cacheable 200.
func (h *handler) writeJSONCaching(w http.ResponseWriter, key []byte, version int64, v any) {
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
	body := buf.Bytes()
	stored := make([]byte, len(body))
	copy(stored, body)
	h.wire.Put(key, version, stored, int64(len(stored)))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// statsResponse frames GET /v1/stats: the model version plus one counter
// block per active cache tier.
type statsResponse struct {
	Version int64                  `json:"version"`
	Tiers   []query.CacheTierStats `json:"tiers"`
}

// stats serves the cache-observability counters of every tier this
// process carries: the handler's own wire tier, then whatever the served
// model reports (the engine memo). With caching off the tier list is
// empty — the endpoint always answers.
func (h *handler) stats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{Version: h.version(), Tiers: []query.CacheTierStats{}}
	if h.wire != nil {
		resp.Tiers = append(resp.Tiers, query.CacheTierStats{Tier: "wire", Stats: h.wire.Stats()})
	}
	if h.cacheStats != nil {
		resp.Tiers = append(resp.Tiers, h.cacheStats.CacheStats()...)
	}
	writeJSON(w, resp)
}

// newWireCache decides the handler's L1 configuration. The wire tier
// needs a version epoch to invalidate on: an updatable model without a
// version surface cannot carry one (stale bytes would serve forever), so
// it stays off there. Read-only models are immutable — version 0 is
// always valid.
func newWireCache(opts Options, ingest query.Ingestor, versioned query.Versioned) *memo.Cache {
	if opts.CacheBytes == 0 {
		return nil
	}
	if ingest != nil && versioned == nil {
		return nil
	}
	return memo.New(opts.CacheBytes)
}
