package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pka/internal/contingency"
	"pka/internal/dataset"
	"pka/internal/kb"
	"pka/internal/query"
	"pka/internal/rules"
)

// stubQuerier serves canned answers so handler behaviour is tested in
// isolation from any model; end-to-end serving over a real discovered
// model is covered by cmd/pka's serve test.
type stubQuerier struct{}

func (stubQuerier) Schema() *dataset.Schema {
	return dataset.MustSchema([]dataset.Attribute{
		{Name: "CANCER", Values: []string{"Yes", "No"}},
		{Name: "SMOKING", Values: []string{"Smoker", "Non smoker"}},
	})
}

func (stubQuerier) Probability(assigns ...kb.Assignment) (float64, error) { return 0.25, nil }

func (stubQuerier) Conditional(target, given []kb.Assignment) (float64, error) {
	if len(target) > 0 && target[0].Value == "boom" {
		return 0, fmt.Errorf("kb: no such value")
	}
	return 0.5, nil
}

func (stubQuerier) Distribution(attr string, given ...kb.Assignment) (map[string]float64, error) {
	return map[string]float64{"Yes": 0.2, "No": 0.8}, nil
}

func (stubQuerier) MostLikely(attr string, given ...kb.Assignment) (string, float64, error) {
	return "No", 0.8, nil
}

func (stubQuerier) Lift(target kb.Assignment, given ...kb.Assignment) (float64, error) {
	return 1.5, nil
}

func (stubQuerier) MostProbableExplanation(given ...kb.Assignment) (kb.Explanation, error) {
	return kb.Explanation{
		Assignments: []kb.Assignment{{Attr: "CANCER", Value: "No"}, {Attr: "SMOKING", Value: "Non smoker"}},
		Probability: 0.4,
	}, nil
}

func (stubQuerier) Rules(opts rules.Options) ([]rules.Rule, error) {
	if opts.MinProbability > 0.9 {
		return nil, nil
	}
	return []rules.Rule{{
		If:          []kb.Assignment{{Attr: "SMOKING", Value: "Smoker"}},
		Then:        kb.Assignment{Attr: "CANCER", Value: "Yes"},
		Probability: 0.24, Support: 0.09, Lift: 1.9,
	}}, nil
}

func (stubQuerier) Explain() string { return "p(cell) = a0 · Π a_constraint\n" }

func (stubQuerier) LogLoss(counts contingency.Counts) (float64, error) { return 1.23, nil }

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewWithOptions(stubQuerier{}, Options{MaxBatch: 4}))
	t.Cleanup(srv.Close)
	return srv
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := fmt.Fprint(&sb, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, sb.String()
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, readAll(t, resp)
}

func TestHealthz(t *testing.T) {
	srv := testServer(t)
	status, body := get(t, srv.URL+"/healthz")
	if status != http.StatusOK || !strings.Contains(body, `"ok"`) {
		t.Errorf("healthz = %d %q", status, body)
	}
}

func TestSchemaEndpoint(t *testing.T) {
	srv := testServer(t)
	status, body := get(t, srv.URL+"/v1/schema")
	if status != http.StatusOK {
		t.Fatalf("schema = %d %q", status, body)
	}
	var doc struct {
		Attributes []struct {
			Name   string   `json:"name"`
			Values []string `json:"values"`
		} `json:"attributes"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Attributes) != 2 || doc.Attributes[0].Name != "CANCER" || len(doc.Attributes[0].Values) != 2 {
		t.Errorf("schema body = %q", body)
	}
}

func TestQueryEndpoint(t *testing.T) {
	srv := testServer(t)
	status, body := post(t, srv.URL+"/v1/query",
		`{"kind":"conditional","target":[{"attr":"CANCER","value":"Yes"}],"given":[{"attr":"SMOKING","value":"Smoker"}]}`)
	if status != http.StatusOK {
		t.Fatalf("query = %d %q", status, body)
	}
	var res query.Result
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if res.Kind != query.KindConditional || res.Probability != 0.5 || res.Error != "" {
		t.Errorf("result = %+v", res)
	}

	for name, req := range map[string]string{
		"malformed":      `{"kind":`,
		"unknown field":  `{"kind":"mpe","bogus":1}`,
		"invalid kind":   `{"kind":"bogus"}`,
		"model rejects":  `{"kind":"conditional","target":[{"attr":"CANCER","value":"boom"}]}`,
		"missing target": `{"kind":"probability"}`,
	} {
		status, body := post(t, srv.URL+"/v1/query", req)
		if status != http.StatusBadRequest || !strings.Contains(body, `"error"`) {
			t.Errorf("%s: = %d %q, want 400 with error body", name, status, body)
		}
	}

	if resp, err := http.Get(srv.URL + "/v1/query"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/query = %d, want 405", resp.StatusCode)
	}
}

func TestQueryBatchEndpoint(t *testing.T) {
	srv := testServer(t)
	status, body := post(t, srv.URL+"/v1/query/batch",
		`{"queries":[
			{"kind":"probability","target":[{"attr":"CANCER","value":"Yes"}]},
			{"kind":"conditional","target":[{"attr":"CANCER","value":"boom"}]},
			{"kind":"mpe"}
		]}`)
	if status != http.StatusOK {
		t.Fatalf("batch = %d %q", status, body)
	}
	var res batchResponse
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 3 {
		t.Fatalf("batch results = %+v", res)
	}
	if res.Results[0].Probability != 0.25 || res.Results[0].Error != "" {
		t.Errorf("result 0 = %+v", res.Results[0])
	}
	if res.Results[1].Error == "" {
		t.Errorf("failing query did not surface per-slot: %+v", res.Results[1])
	}
	if res.Results[2].Probability != 0.4 || len(res.Results[2].Assignments) != 2 {
		t.Errorf("result 2 = %+v", res.Results[2])
	}

	if status, _ := post(t, srv.URL+"/v1/query/batch", `{"queries":[]}`); status != http.StatusBadRequest {
		t.Errorf("empty batch = %d, want 400", status)
	}
	over := `{"queries":[` + strings.Repeat(`{"kind":"mpe"},`, 4) + `{"kind":"mpe"}]}`
	if status, body := post(t, srv.URL+"/v1/query/batch", over); status != http.StatusBadRequest ||
		!strings.Contains(body, "exceeds limit") {
		t.Errorf("over-limit batch = %d %q, want 400", status, body)
	}
}

// TestBodyTooLarge: a body over the byte cap is 413, distinguishable from
// malformed JSON's 400.
func TestBodyTooLarge(t *testing.T) {
	srv := httptest.NewServer(NewWithOptions(stubQuerier{}, Options{MaxBodyBytes: 64}))
	defer srv.Close()
	body := `{"kind":"mpe","given":[` + strings.Repeat(`{"attr":"SMOKING","value":"Smoker"},`, 10) + `]}`
	if status, resp := post(t, srv.URL+"/v1/query", body); status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body = %d %q, want 413", status, resp)
	}
}

func TestRulesEndpoint(t *testing.T) {
	srv := testServer(t)
	status, body := get(t, srv.URL+"/v1/rules?min_lift=0.5&top=3")
	if status != http.StatusOK {
		t.Fatalf("rules = %d %q", status, body)
	}
	var doc struct {
		Rules []ruleJSON `json:"rules"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Rules) != 1 || doc.Rules[0].Then.Attr != "CANCER" || !strings.Contains(doc.Rules[0].Text, "IF ") {
		t.Errorf("rules body = %q", body)
	}
	if status, _ := get(t, srv.URL+"/v1/rules?min_prob=0.95"); status != http.StatusOK {
		t.Errorf("empty rules = %d, want 200", status)
	}
	if status, _ := get(t, srv.URL+"/v1/rules?min_prob=nope"); status != http.StatusBadRequest {
		t.Errorf("bad param = %d, want 400", status)
	}
}

func TestExplainEndpoint(t *testing.T) {
	srv := testServer(t)
	status, body := get(t, srv.URL+"/v1/explain")
	if status != http.StatusOK || !strings.Contains(body, "a0") {
		t.Errorf("explain = %d %q", status, body)
	}
}

// TestServeGracefulShutdown: Serve answers until its context is canceled,
// then returns nil after draining.
func TestServeGracefulShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var addr net.Addr
	ready := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- ListenAndServe(ctx, "127.0.0.1:0", New(stubQuerier{}), func(a net.Addr) {
			addr = a
			close(ready)
		})
	}()
	select {
	case <-ready:
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	}
	resp, err := http.Get("http://" + addr.String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// stubIngestor is stubQuerier plus a streaming-ingest surface that records
// what it was fed.
type stubIngestor struct {
	stubQuerier
	rows [][]string
	err  error
}

func (s *stubIngestor) ObserveLabeled(rows [][]string) (query.IngestReport, error) {
	if s.err != nil {
		return query.IngestReport{}, s.err
	}
	s.rows = append(s.rows, rows...)
	return query.IngestReport{
		Rows: len(rows), Retargeted: 2, Refit: true, Sweeps: 3, TotalSamples: 100,
	}, nil
}

func TestObserveEndpoint(t *testing.T) {
	ing := &stubIngestor{}
	srv := httptest.NewServer(New(ing))
	defer srv.Close()
	status, body := post(t, srv.URL+"/v1/observe",
		`{"rows":[["Yes","Smoker"],["No","Non smoker"]]}`)
	if status != http.StatusOK {
		t.Fatalf("observe = %d %q", status, body)
	}
	var rep query.IngestReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Rows != 2 || !rep.Refit || rep.TotalSamples != 100 {
		t.Errorf("observe report = %+v", rep)
	}
	if len(ing.rows) != 2 || ing.rows[0][0] != "Yes" {
		t.Errorf("ingestor got rows %v", ing.rows)
	}
}

// TestObserveReadOnlyModel: a Querier without the ingest surface answers
// the streaming endpoint with 501, not a panic and not a silent drop.
func TestObserveReadOnlyModel(t *testing.T) {
	srv := testServer(t)
	status, body := post(t, srv.URL+"/v1/observe", `{"rows":[["Yes","Smoker"]]}`)
	if status != http.StatusNotImplemented {
		t.Errorf("observe on read-only model = %d %q, want 501", status, body)
	}
	if !strings.Contains(body, "read-only") {
		t.Errorf("501 body should say why: %q", body)
	}
}

func TestObserveBadRequests(t *testing.T) {
	ing := &stubIngestor{}
	srv := httptest.NewServer(NewWithOptions(ing, Options{MaxObserveRows: 2}))
	defer srv.Close()
	if status, _ := post(t, srv.URL+"/v1/observe", `{"rows":[]}`); status != http.StatusBadRequest {
		t.Errorf("empty batch = %d, want 400", status)
	}
	if status, _ := post(t, srv.URL+"/v1/observe", `{"rows":[["a"],["b"],["c"]]}`); status != http.StatusBadRequest {
		t.Errorf("oversized batch = %d, want 400", status)
	}
	if status, _ := post(t, srv.URL+"/v1/observe", `{"rows":`); status != http.StatusBadRequest {
		t.Errorf("malformed body = %d, want 400", status)
	}
	ing.err = fmt.Errorf("%w: pka: attribute \"CANCER\" has no value \"Maybe\"", query.ErrRejectedRows)
	if status, body := post(t, srv.URL+"/v1/observe", `{"rows":[["Maybe","Smoker"]]}`); status != http.StatusBadRequest || !strings.Contains(body, "Maybe") {
		t.Errorf("ingest error = %d %q, want 400 with message", status, body)
	}
	// A server-side failure on valid rows is a 500, not the client's fault.
	ing.err = fmt.Errorf("core: initial fit did not converge")
	if status, _ := post(t, srv.URL+"/v1/observe", `{"rows":[["Yes","Smoker"]]}`); status != http.StatusInternalServerError {
		t.Errorf("internal ingest failure = %d, want 500", status)
	}
}

// TestBodyTrailingData: every JSON body endpoint takes exactly one value.
// Trailing whitespace is fine; anything else after the value — garbage, a
// second concatenated request, a stray closer — is a 400, and an observe
// body so rejected is never applied.
func TestBodyTrailingData(t *testing.T) {
	ing := &stubIngestor{}
	srv := httptest.NewServer(NewWithOptions(ing, Options{MaxBatch: 4}))
	defer srv.Close()
	bodies := map[string]string{
		"/v1/query":       `{"kind":"probability","target":[{"attr":"CANCER","value":"Yes"}]}`,
		"/v1/query/batch": `{"queries":[{"kind":"mpe"}]}`,
		"/v1/observe":     `{"rows":[["Yes","Smoker"]]}`,
	}
	cases := []struct {
		name, suffix string
		want         int
	}{
		{"bare", "", http.StatusOK},
		{"trailing newline", "\n", http.StatusOK},
		{"trailing whitespace", " \t\r\n ", http.StatusOK},
		{"trailing garbage", " trailing-garbage", http.StatusBadRequest},
		{"trailing number", " 5", http.StatusBadRequest},
		{"trailing closer", "}", http.StatusBadRequest},
		{"trailing array closer", "]", http.StatusBadRequest},
		{"second value", "\n{}", http.StatusBadRequest},
	}
	for path, body := range bodies {
		for _, tc := range cases {
			ing.rows = nil
			status, resp := post(t, srv.URL+path, body+tc.suffix)
			if status != tc.want {
				t.Errorf("%s %s: = %d %q, want %d", path, tc.name, status, resp, tc.want)
			}
			if status != http.StatusOK && !strings.Contains(resp, `"error"`) {
				t.Errorf("%s %s: rejection has no error body: %q", path, tc.name, resp)
			}
			if path == "/v1/observe" && status != http.StatusOK && len(ing.rows) != 0 {
				t.Errorf("%s %s: rejected body was applied: %v", path, tc.name, ing.rows)
			}
		}
		// Two whole requests back to back answer neither.
		if status, resp := post(t, srv.URL+path, body+body); status != http.StatusBadRequest {
			t.Errorf("%s concatenated requests: = %d %q, want 400", path, status, resp)
		}
	}
	// Trailing bytes past the body cap are still a 413, not a 400.
	small := httptest.NewServer(NewWithOptions(stubQuerier{}, Options{MaxBodyBytes: 128}))
	defer small.Close()
	q := bodies["/v1/query"]
	if status, resp := post(t, small.URL+"/v1/query", q+strings.Repeat(" ", 256)); status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized trailing whitespace = %d %q, want 413", status, resp)
	}
}

// TestRulesRejectsNonFiniteParams is the NaN/Inf regression: ParseFloat
// accepts "NaN" and "Inf", and a NaN threshold filters with always-false
// comparisons instead of erroring — the server must 400 them.
func TestRulesRejectsNonFiniteParams(t *testing.T) {
	srv := testServer(t)
	for _, q := range []string{
		"min_prob=NaN", "min_prob=Inf", "min_prob=-Inf",
		"min_support=nan", "min_lift=+Inf",
	} {
		if status, body := get(t, srv.URL+"/v1/rules?"+q); status != http.StatusBadRequest {
			t.Errorf("rules?%s = %d %q, want 400", q, status, body)
		}
	}
}

// BenchmarkHandlerQuery measures the handler's per-request overhead —
// decode, answer, pooled-buffer encode — over the stub model, so the
// serving-layer allocations show up undiluted by engine work.
func BenchmarkHandlerQuery(b *testing.B) {
	h := New(stubQuerier{})
	body := []byte(`{"kind":"conditional","target":[{"attr":"CANCER","value":"Yes"}],"given":[{"attr":"SMOKING","value":"Smoker"}]}`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}
