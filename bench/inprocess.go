package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"pka"
)

// cacheBytes is pka serve's default serving-cache capacity, used by the
// in-process handler that stands in for the served process.
const cacheBytes = 32 << 20

// handle drives one POST through a handler in this process.
func handle(h http.Handler, path string, body []byte) ([]byte, int) {
	req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return nil, 0
	}
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Body.Bytes(), rec.Code
}

// discardWriter is the response writer of the timed handler passes: it
// keeps the status and drops the body, so the pass times the handler.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// replayHandler drives the request stream through the handler, each
// request in its own span under parent, and returns per-request latencies
// in microseconds.
func replayHandler(tr *tracer, parent int, name string, h http.Handler, stream []*request) ([]float64, error) {
	w := &discardWriter{header: http.Header{}}
	lat := make([]float64, 0, len(stream))
	for i, q := range stream {
		req, err := http.NewRequest(http.MethodPost, q.path, bytes.NewReader(q.body))
		if err != nil {
			return nil, err
		}
		w.status = http.StatusOK
		start := time.Now()
		id := tr.begin(name, parent, i+1)
		h.ServeHTTP(w, req)
		tr.end(id)
		lat = append(lat, us(time.Since(start)))
		if w.status != http.StatusOK {
			return nil, fmt.Errorf("%s: request %d answered %d", name, i, w.status)
		}
	}
	return lat, nil
}

// cachedHandler loads the snapshot into a fresh model served the way
// `pka serve` serves it: engine and wire caches at the default capacity.
func cachedHandler(snap []byte) (http.Handler, error) {
	qm, err := pka.LoadSnapshot(bytes.NewReader(snap))
	if err != nil {
		return nil, err
	}
	qm.EnableCache(cacheBytes)
	return pka.NewServerWithOptions(qm, pka.ServerOptions{CacheBytes: cacheBytes}), nil
}

// traceServe repeats the serving path in-process over the first requests
// of the load schedule: a handler pass with the caches as served (untraced,
// then traced), a cache-off handler pass, and the query layer alone —
// answer and encode on pre-decoded queries — followed by the model probes.
// tol is the solver tolerance discovery used. It returns the cached
// handler's median latency in microseconds.
func (r *runner) traceServe(snap, first []byte, stream []*request, tol float64) (float64, error) {
	// The first pass warms the process (heap growth, code paths) and is
	// not timed; the second is the untraced reference.
	var untraced time.Duration
	for i := 0; i < 2; i++ {
		h, err := cachedHandler(snap)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if _, err := replayHandler(nil, 0, "server.handle", h, stream); err != nil {
			return 0, err
		}
		untraced = time.Since(start)
	}

	root := r.startTrace()
	var firstQ pka.Query
	if err := json.Unmarshal(first, &firstQ); err != nil {
		return 0, err
	}
	d, err := r.tr.span("snapshot.load", root, func() error {
		qm, err := pka.LoadSnapshot(bytes.NewReader(snap))
		if err != nil {
			return err
		}
		_, err = pka.Answer(qm, firstQ)
		return err
	})
	if err != nil {
		return 0, err
	}
	r.res.layer("snapshot.load_ms", ms(d), "ms")

	pass := r.tr.begin("replay.cached", root, 0)
	h, err := cachedHandler(snap)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	handleLat, err := replayHandler(r.tr, pass, "server.handle", h, stream)
	if err != nil {
		return 0, err
	}
	traced := time.Since(start)
	r.tr.end(pass)
	r.overhead(untraced, traced)

	pass = r.tr.begin("replay.nocache", root, 0)
	qm, err := pka.LoadSnapshot(bytes.NewReader(snap))
	if err != nil {
		return 0, err
	}
	nocacheLat, err := replayHandler(r.tr, pass, "server.handle_nocache", pka.NewServerWithOptions(qm, pka.ServerOptions{}), stream)
	if err != nil {
		return 0, err
	}
	r.tr.end(pass)

	pass = r.tr.begin("replay.query", root, 0)
	var queries []pka.Query
	for _, q := range stream {
		if q.key < 0 {
			continue
		}
		var qu pka.Query
		if err := json.Unmarshal(q.body, &qu); err != nil {
			return 0, err
		}
		queries = append(queries, qu)
	}
	var answerLat, encodeLat []float64
	var buf bytes.Buffer
	for i, qu := range queries {
		start := time.Now()
		id := r.tr.begin("query.answer", pass, i+1)
		res, err := pka.Answer(qm, qu)
		r.tr.end(id)
		answerLat = append(answerLat, us(time.Since(start)))
		if err != nil {
			return 0, err
		}
		buf.Reset()
		start = time.Now()
		id = r.tr.begin("query.encode", pass, i+1)
		err = pka.EncodeQueryResult(&buf, res)
		r.tr.end(id)
		encodeLat = append(encodeLat, us(time.Since(start)))
		if err != nil {
			return 0, err
		}
	}
	r.tr.end(pass)
	model := qm.KnowledgeBase().Model()
	r.res.layer("maxent.constraints", float64(model.NumConstraints()), "count")
	if err := r.probeModel(root, model, tol); err != nil {
		return 0, err
	}
	r.tr.end(root)

	handleP50 := median(handleLat)
	answer := sampleMetric(answerLat, 0.5, "us")
	encode := median(encodeLat)
	r.res.layer("server.handle_p50_us", handleP50, "us")
	r.res.layer("server.handle_nocache_p50_us", median(nocacheLat), "us")
	r.res.layer("query.answer_p50_us", answer.Value, "us")
	r.res.layer("query.answer_p99_us", sampleMetric(answerLat, 0.99, "us").Value, "us")
	r.res.layer("query.encode_p50_us", encode, "us")
	r.res.layer("server.self_us", median(nocacheLat)-answer.Value-encode, "us")
	return handleP50, nil
}
