package pka

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// pka_cache_test.go — the serving-cache correctness battery: with caching
// on, every wire response must be byte-identical to the cache-off server,
// for every query kind, on dense and factored engines, before and after
// streaming updates, with batches fanned out or not; and the whole stack must stay
// clean under -race while observes and queries interleave.

// cacheTestModel discovers a fresh model over the deterministic stream
// corpus: factored (sparse tabulation, multi-block engine) or dense.
func cacheTestModel(t testing.TB, factored bool) *Model {
	t.Helper()
	rng := rand.New(rand.NewSource(61))
	schema := streamSchema(t)
	rows := streamRows(rng, 3000)
	opts := Options{MaxOrder: 2}
	if factored {
		m, err := DiscoverSparse(sparseOf(t, schema, rows), schema, opts)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	d := NewDataset(schema)
	for _, r := range rows {
		if err := d.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	m, err := Discover(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// cacheRequest is one wire request of the equality sweep.
type cacheRequest struct {
	name, method, path, body string
}

// cacheSweepRequests covers every query kind — the six /v1/query kinds,
// rules, and explain — plus the batch endpoint and two error shapes
// (errors are never cached, but their bytes must not change either).
var cacheSweepRequests = []cacheRequest{
	{"probability", "POST", "/v1/query", `{"kind":"probability","target":[{"attr":"A","value":"a1"},{"attr":"B","value":"b1"}]}`},
	{"conditional", "POST", "/v1/query", `{"kind":"conditional","target":[{"attr":"B","value":"b1"}],"given":[{"attr":"A","value":"a1"}]}`},
	{"distribution", "POST", "/v1/query", `{"kind":"distribution","attr":"D","given":[{"attr":"C","value":"c0"}]}`},
	{"most_likely", "POST", "/v1/query", `{"kind":"most_likely","attr":"B","given":[{"attr":"A","value":"a0"}]}`},
	{"lift", "POST", "/v1/query", `{"kind":"lift","target":[{"attr":"B","value":"b0"}],"given":[{"attr":"A","value":"a0"}]}`},
	{"mpe", "POST", "/v1/query", `{"kind":"mpe","given":[{"attr":"A","value":"a2"}]}`},
	{"rules", "GET", "/v1/rules?min_lift=0.05&top=10", ""},
	{"explain", "GET", "/v1/explain", ""},
	{"batch", "POST", "/v1/query/batch", `{"queries":[` +
		`{"kind":"probability","target":[{"attr":"C","value":"c1"}]},` +
		`{"kind":"conditional","target":[{"attr":"D","value":"d1"}],"given":[{"attr":"C","value":"c1"}]},` +
		`{"kind":"mpe","given":[{"attr":"B","value":"b0"}]}]}`},
	{"contradiction", "POST", "/v1/query", `{"kind":"probability","target":[{"attr":"A","value":"a0"},{"attr":"A","value":"a1"}]}`},
	{"unknown_attr", "POST", "/v1/query", `{"kind":"probability","target":[{"attr":"Z","value":"z0"}]}`},
}

// doCacheRequest issues one sweep request and returns status plus body.
func doCacheRequest(t testing.TB, base string, req cacheRequest) (int, []byte) {
	t.Helper()
	var resp *http.Response
	var err error
	if req.method == "GET" {
		resp, err = http.Get(base + req.path)
	} else {
		resp, err = http.Post(base+req.path, "application/json", strings.NewReader(req.body))
	}
	if err != nil {
		t.Fatalf("%s: %v", req.name, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s: reading body: %v", req.name, err)
	}
	return resp.StatusCode, body
}

// TestCacheWireByteIdentity: two identical models, one served with every
// cache tier armed and one with caching off, answer each sweep request
// with byte-identical responses — on the miss, on the hit, and again after
// both fold in the same observe batch.
func TestCacheWireByteIdentity(t *testing.T) {
	for _, eng := range []struct {
		name     string
		factored bool
	}{{"dense", false}, {"factored", true}} {
		// workers bounds the batch fan-out through GOMAXPROCS: 1 answers
		// each batch on its request goroutine, 0 leaves the machine's count.
		for _, workers := range []int{1, 0} {
			t.Run(fmt.Sprintf("%s/workers=%d", eng.name, workers), func(t *testing.T) {
				if workers > 0 {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
				}
				mOn := cacheTestModel(t, eng.factored)
				mOff := cacheTestModel(t, eng.factored)
				mOn.EnableCache(1 << 20)
				srvOn := httptest.NewServer(NewServerWithOptions(mOn,
					ServerOptions{CacheBytes: 1 << 20}))
				defer srvOn.Close()
				srvOff := httptest.NewServer(NewServerWithOptions(mOff, ServerOptions{}))
				defer srvOff.Close()

				sweep := func(stage string) {
					for _, req := range cacheSweepRequests {
						offStatus, offBody := doCacheRequest(t, srvOff.URL, req)
						for pass, label := range []string{"miss", "hit"} {
							onStatus, onBody := doCacheRequest(t, srvOn.URL, req)
							if onStatus != offStatus {
								t.Fatalf("%s %s (%s): cached server answered %d, uncached %d",
									stage, req.name, label, onStatus, offStatus)
							}
							if !bytes.Equal(onBody, offBody) {
								t.Fatalf("%s %s (pass %d, %s): cached bytes diverge\n  on: %s\n off: %s",
									stage, req.name, pass, label, onBody, offBody)
							}
						}
					}
				}

				sweep("cold")
				delta := streamRows(rand.New(rand.NewSource(83)), 40)
				if _, err := mOn.Update(delta); err != nil {
					t.Fatal(err)
				}
				if _, err := mOff.Update(delta); err != nil {
					t.Fatal(err)
				}
				// The very next request after the update must already serve
				// post-update bytes: read-your-writes with no settling time.
				sweep("post-observe")
			})
		}
	}
}

// statsTiers decodes GET /v1/stats into tier-name -> counters.
func statsTiers(t testing.TB, base string) (int64, map[string]map[string]int64) {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var parsed struct {
		Version int64 `json:"version"`
		Tiers   []struct {
			Tier      string `json:"tier"`
			Hits      int64  `json:"hits"`
			Misses    int64  `json:"misses"`
			Evictions int64  `json:"evictions"`
			Entries   int64  `json:"entries"`
			Bytes     int64  `json:"bytes"`
		} `json:"tiers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&parsed); err != nil {
		t.Fatal(err)
	}
	tiers := make(map[string]map[string]int64, len(parsed.Tiers))
	for _, tr := range parsed.Tiers {
		tiers[tr.Tier] = map[string]int64{
			"hits": tr.Hits, "misses": tr.Misses,
			"evictions": tr.Evictions, "entries": tr.Entries, "bytes": tr.Bytes,
		}
	}
	return parsed.Version, tiers
}

// TestCacheStatsAndInvalidation drives the observable cache lifecycle
// through /v1/stats: a repeated query advances the wire tier's hit
// counter, an observe batch advances the version, and the first
// post-observe answer reflects the new model (served fresh, not from the
// stale entry, which version mismatch retires).
func TestCacheStatsAndInvalidation(t *testing.T) {
	m := cacheTestModel(t, true)
	m.EnableCache(1 << 20)
	srv := httptest.NewServer(NewServerWithOptions(m, ServerOptions{CacheBytes: 1 << 20}))
	defer srv.Close()

	query := cacheSweepRequests[1] // conditional
	v0, tiers := statsTiers(t, srv.URL)
	if _, ok := tiers["wire"]; !ok {
		t.Fatalf("wire tier missing from stats: %v", tiers)
	}
	if _, ok := tiers["engine"]; !ok {
		t.Fatalf("engine tier missing from stats: %v", tiers)
	}

	_, first := doCacheRequest(t, srv.URL, query)
	_, second := doCacheRequest(t, srv.URL, query)
	if !bytes.Equal(first, second) {
		t.Fatalf("repeated query changed bytes: %s vs %s", first, second)
	}
	_, tiers = statsTiers(t, srv.URL)
	if hits := tiers["wire"]["hits"]; hits < 1 {
		t.Errorf("wire hits = %d after a repeated query, want >= 1", hits)
	}

	if _, err := m.Update(streamRows(rand.New(rand.NewSource(17)), 60)); err != nil {
		t.Fatal(err)
	}
	v1, _ := statsTiers(t, srv.URL)
	if v1 <= v0 {
		t.Fatalf("version did not advance across observe: %d -> %d", v0, v1)
	}
	_, after := doCacheRequest(t, srv.URL, query)
	var res QueryResult
	if err := json.Unmarshal(after, &res); err != nil || res.Error != "" {
		t.Fatalf("post-observe answer: %v %s", err, after)
	}
	if bytes.Equal(after, first) {
		t.Error("post-observe answer still serves pre-observe bytes")
	}
	// The fresh answer must itself be cache-consistent: ask again.
	_, again := doCacheRequest(t, srv.URL, query)
	if !bytes.Equal(after, again) {
		t.Fatalf("post-observe answer unstable: %s vs %s", after, again)
	}
}

// TestCacheObserveQueryRaceHammer is the cached twin of the server race
// hammer: observes stream in while HTTP single queries, HTTP batches, and
// direct in-process queries hammer the same model with every cache tier
// armed. Run under -race; correctness here is "no race, no error, sane
// probabilities" — byte identity is the equality test's job.
func TestCacheObserveQueryRaceHammer(t *testing.T) {
	m := cacheTestModel(t, true)
	m.EnableCache(1 << 18) // small enough that eviction pressure is real
	srv := httptest.NewServer(NewServerWithOptions(m, ServerOptions{CacheBytes: 1 << 18}))
	defer srv.Close()

	batchBody := cacheSweepRequests[8].body
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			req := cacheSweepRequests[g%6]
			for {
				select {
				case <-stop:
					return
				default:
				}
				status, body := doCacheRequest(t, srv.URL, req)
				if status != http.StatusOK {
					t.Errorf("%s: status %d: %s", req.name, status, body)
					return
				}
				if status, body = doCacheRequest(t, srv.URL,
					cacheRequest{"batch", "POST", "/v1/query/batch", batchBody}); status != http.StatusOK {
					t.Errorf("batch: status %d: %s", status, body)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			p, err := m.Conditional(
				[]Assignment{{Attr: "B", Value: "b1"}},
				[]Assignment{{Attr: "A", Value: "a1"}})
			if err != nil || p <= 0 || p > 1 {
				t.Errorf("direct conditional: %v p=%g", err, p)
				return
			}
		}
	}()

	obsRng := rand.New(rand.NewSource(29))
	for i := 0; i < 8; i++ {
		if _, err := m.Update(streamRows(obsRng, 15)); err != nil {
			t.Fatalf("observe %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}
