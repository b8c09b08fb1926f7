package pka_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"pka"
)

// serverBodyPaths are the endpoints that decode an untrusted JSON body.
var serverBodyPaths = []string{"/v1/query", "/v1/query/batch", "/v1/observe"}

// FuzzServerBodies drives every JSON-body endpoint with arbitrary bytes,
// against a read-only dense model (loaded from the golden7 KB) and an
// ingest model over the same schema. Whatever arrives, the handler must
// not panic and must answer JSON; a body that is not exactly one JSON
// value gets 400 or 413; query and batch never answer 5xx; and observe on
// the read-only model is always 501.
//
// Every input gets a fresh ingest model restored from one snapshot, so an
// accepted observe cannot carry over into the next input and each crasher
// replays alone from testdata/fuzz.
func FuzzServerBodies(f *testing.F) {
	kbJSON, err := os.ReadFile(filepath.Join(golden7Dir, "dense_kb.json"))
	if err != nil {
		f.Fatal(err)
	}
	readOnly, err := pka.Load(bytes.NewReader(kbJSON))
	if err != nil {
		f.Fatal(err)
	}
	readOnly.EnableCache(1 << 20)
	var snap bytes.Buffer
	if err := golden7DenseModel(f).SaveSnapshot(&snap); err != nil {
		f.Fatal(err)
	}
	opts := pka.ServerOptions{MaxBatch: 16, MaxBodyBytes: 4 << 10, MaxObserveRows: 16, CacheBytes: 1 << 20}
	roSrv := pka.NewServerWithOptions(readOnly, opts)

	queries := golden7DenseQueries()
	for _, q := range queries {
		body, err := json.Marshal(q)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(0), body)
		f.Add(uint8(0), append(append([]byte(nil), body...), '\n'))
		f.Add(uint8(0), append(append([]byte(nil), body...), " trailing-garbage"...))
		f.Add(uint8(0), append(append([]byte(nil), body...), body...))
	}
	batch, err := json.Marshal(map[string]any{"queries": queries})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(1), batch)
	f.Add(uint8(1), append(append([]byte(nil), batch...), "}"...))
	f.Add(uint8(1), []byte(`{"queries":[]}`))
	observe := []byte(`{"rows":[["a","a","b","c","c","a"],["b","b","a","a","a","c"]]}`)
	f.Add(uint8(2), observe)
	f.Add(uint8(2), append(append([]byte(nil), observe...), " 5"...))
	f.Add(uint8(2), []byte(`{"rows":[["a","a","b"]]}`))
	f.Add(uint8(2), []byte(`{"rows":[["z","a","b","c","c","a"]]}`))
	f.Add(uint8(2), []byte(`{"rows":`))

	f.Fuzz(func(t *testing.T, pathIdx uint8, body []byte) {
		path := serverBodyPaths[int(pathIdx)%len(serverBodyPaths)]
		malformed := !json.Valid(body)
		ingest, err := pka.LoadModelSnapshot(bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		ingest.EnableCache(1 << 20)
		ingestSrv := pka.NewServerWithOptions(ingest, opts)
		for _, tc := range []struct {
			name     string
			h        http.Handler
			readOnly bool
		}{{"read-only", roSrv, true}, {"ingest", ingestSrv, false}} {
			rec := httptest.NewRecorder()
			tc.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			status, resp := rec.Code, rec.Body.Bytes()
			if !json.Valid(resp) {
				t.Fatalf("%s %s: %d answered non-JSON %q", tc.name, path, status, resp)
			}
			switch {
			case path == "/v1/observe" && tc.readOnly:
				if status != http.StatusNotImplemented {
					t.Fatalf("%s %s: = %d %s, want 501", tc.name, path, status, resp)
				}
			case malformed && status != http.StatusBadRequest && status != http.StatusRequestEntityTooLarge:
				t.Fatalf("%s %s: malformed body %q = %d %s, want 400 or 413", tc.name, path, body, status, resp)
			case path != "/v1/observe" && status >= 500:
				t.Fatalf("%s %s: body %q = %d %s, want no 5xx", tc.name, path, body, status, resp)
			}
		}
	})
}
