package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"pka"
	"pka/internal/cluster"
	"pka/internal/kb"
	"pka/internal/query"
	"pka/internal/replog"
	"pka/internal/server"
)

// newBank discovers a small dense model to act as the replicated data bank.
func newBank(t testing.TB) *pka.Model {
	t.Helper()
	schema, err := pka.NewSchema([]pka.Attribute{
		{Name: "A", Values: []string{"a0", "a1", "a2"}},
		{Name: "B", Values: []string{"b0", "b1"}},
		{Name: "C", Values: []string{"c0", "c1"}},
		{Name: "D", Values: []string{"d0", "d1", "d2"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := pka.NewSparseTable(schema)
	if err != nil {
		t.Fatal(err)
	}
	cells := make([][]int, 300)
	for i := range cells {
		a := i % 3
		c := (i / 3) % 2
		cells[i] = []int{a, a % 2, c, c}
	}
	if err := tab.ObserveBatch(cells); err != nil {
		t.Fatal(err)
	}
	model, err := pka.DiscoverSparse(tab, schema, pka.Options{MaxOrder: 2})
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// batch returns the k-th deterministic labeled observe batch.
func batch(k int) [][]string {
	rows := make([][]string, 5)
	for i := range rows {
		a := (k + i) % 3
		c := (k + 2*i) % 2
		rows[i] = []string{
			fmt.Sprintf("a%d", a),
			fmt.Sprintf("b%d", (a+k)%2),
			fmt.Sprintf("c%d", c),
			fmt.Sprintf("d%d", (c+k+i)%3),
		}
	}
	return rows
}

// benchQueries is one of every query kind over the bank schema.
func benchQueries() []query.Query {
	return []query.Query{
		{Kind: query.KindProbability, Target: []kb.Assignment{{Attr: "A", Value: "a1"}}},
		{Kind: query.KindProbability, Target: []kb.Assignment{{Attr: "A", Value: "a0"}, {Attr: "D", Value: "d1"}}},
		{Kind: query.KindConditional, Target: []kb.Assignment{{Attr: "B", Value: "b1"}}, Given: []kb.Assignment{{Attr: "A", Value: "a0"}}},
		{Kind: query.KindDistribution, Attr: "D", Given: []kb.Assignment{{Attr: "C", Value: "c1"}}},
		{Kind: query.KindMostLikely, Attr: "B", Given: []kb.Assignment{{Attr: "A", Value: "a2"}}},
		{Kind: query.KindLift, Target: []kb.Assignment{{Attr: "D", Value: "d2"}}, Given: []kb.Assignment{{Attr: "C", Value: "c0"}}},
		{Kind: query.KindMPE, Given: []kb.Assignment{{Attr: "A", Value: "a1"}}},
	}
}

// answerSet runs the queries and returns the exact wire bytes of every
// result — the shortest-round-trip float rendering is injective on bit
// patterns, so equal bytes means bit-identical answers.
func answerSet(t testing.TB, q query.Querier, queries []query.Query) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, qu := range queries {
		res, err := query.Answer(q, qu)
		if err != nil {
			t.Fatalf("query %+v: %v", qu, err)
		}
		if err := query.EncodeResult(&buf, res); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func openLog(t testing.TB) *replog.Log {
	t.Helper()
	lg, err := replog.Open(t.TempDir() + "/observe.log")
	if err != nil {
		t.Fatal(err)
	}
	return lg
}

// TestPrimaryVersionLockstepAndReplay: the primary keeps model version and
// log offset in lockstep, and replaying its log over the seed snapshot
// rebuilds a bank with bit-identical answers — the replica convergence
// argument in one process.
func TestPrimaryVersionLockstepAndReplay(t *testing.T) {
	bank := newBank(t)
	var seed bytes.Buffer
	if err := bank.SaveSnapshot(&seed); err != nil {
		t.Fatal(err)
	}
	lg := openLog(t)
	defer lg.Close()
	p, err := cluster.NewPrimary(bank, lg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		rep, err := p.ObserveLabeled(batch(k))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Version != int64(k)+1 {
			t.Fatalf("batch %d: version %d, want %d", k, rep.Version, k+1)
		}
		if lg.Next() != uint64(k)+1 {
			t.Fatalf("batch %d: log next %d, want %d", k, lg.Next(), k+1)
		}
	}
	if rd := p.Readiness(); !rd.Ready || rd.Role != "primary" || rd.Version != 4 {
		t.Fatalf("primary readiness %+v", rd)
	}

	bank2, err := pka.LoadModelSnapshot(bytes.NewReader(seed.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	next, err := cluster.Replay(lg, bank2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if next != 4 || bank2.Version() != 4 {
		t.Fatalf("replay stopped at offset %d, bank version %d, want 4/4", next, bank2.Version())
	}
	if a, b := answerSet(t, bank, benchQueries()), answerSet(t, bank2, benchQueries()); !bytes.Equal(a, b) {
		t.Fatalf("replayed bank diverges from primary:\n%s\nvs\n%s", b, a)
	}
	// The replayed bank is in step with the log: it can take over as primary.
	if _, err := cluster.NewPrimary(bank2, lg); err != nil {
		t.Fatalf("replayed bank rejected as primary: %v", err)
	}
}

// TestNewPrimaryRejectsOutOfStepBank: a fresh bank (version 0) cannot front
// a log that already holds records — the caller must replay first.
func TestNewPrimaryRejectsOutOfStepBank(t *testing.T) {
	bank := newBank(t)
	lg := openLog(t)
	defer lg.Close()
	p, err := cluster.NewPrimary(bank, lg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ObserveLabeled(batch(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.NewPrimary(newBank(t), lg); err == nil || !strings.Contains(err.Error(), "out of step") {
		t.Fatalf("got %v, want out-of-step error", err)
	}
}

// TestPrimaryFailsClosedWhenLogBreaks: a batch that applies but cannot be
// logged would be invisible to every replica, so the primary must stop
// accepting writes (while reads keep draining) and report unready.
func TestPrimaryFailsClosedWhenLogBreaks(t *testing.T) {
	bank := newBank(t)
	lg := openLog(t)
	p, err := cluster.NewPrimary(bank, lg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ObserveLabeled(batch(0)); err != nil {
		t.Fatal(err)
	}
	lg.Close() // simulated log device failure
	if _, err := p.ObserveLabeled(batch(1)); err == nil {
		t.Fatal("observe succeeded with a dead log")
	}
	if p.Err() == nil {
		t.Fatal("primary not marked broken")
	}
	if rd := p.Readiness(); rd.Ready || rd.Error == "" {
		t.Fatalf("broken primary reports ready: %+v", rd)
	}
	if _, err := p.ObserveLabeled(batch(2)); err == nil || !strings.Contains(err.Error(), "rejecting writes") {
		t.Fatalf("got %v, want rejected write", err)
	}
	// Reads still serve the last consistent state.
	if _, err := p.Probability(kb.Assignment{Attr: "A", Value: "a0"}); err != nil {
		t.Fatalf("read on broken primary: %v", err)
	}
}

func loadBank(r io.Reader) (cluster.Bank, error) { return pka.LoadModelSnapshot(r) }

// startPrimary serves a fresh primary over HTTP, returning it and the
// test server.
func startPrimary(t testing.TB) (*cluster.Primary, *httptest.Server) {
	t.Helper()
	lg := openLog(t)
	t.Cleanup(func() { lg.Close() })
	p, err := cluster.NewPrimary(newBank(t), lg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(p.Handler(server.New(p)))
	t.Cleanup(srv.Close)
	return p, srv
}

func observeHTTP(t testing.TB, url string, rows [][]string) query.IngestReport {
	t.Helper()
	body, err := json.Marshal(map[string]any{"rows": rows})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/observe", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("observe returned %s: %s", resp.Status, msg)
	}
	var rep query.IngestReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

func waitVersion(t testing.TB, r *cluster.Replica, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for r.Version() < want {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at version %d, want %d", r.Version(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicaBootstrapFollowAndRestart is the replication path end to end
// in one process: bootstrap from the primary's snapshot, tail the log,
// serve bit-identical answers, survive a kill/restart without
// double-applying, and refuse writes.
func TestReplicaBootstrapFollowAndRestart(t *testing.T) {
	_, srv := startPrimary(t)

	// Two batches through the wire before any replica exists; the observe
	// response carries the new version (read-your-writes token).
	for k := 0; k < 2; k++ {
		if rep := observeHTTP(t, srv.URL, batch(k)); rep.Version != int64(k)+1 {
			t.Fatalf("observe %d: version %d, want %d", k, rep.Version, k+1)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rep, err := cluster.BootReplica(ctx, srv.URL, loadBank, 5*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version() != 2 {
		t.Fatalf("replica booted at version %d, want 2 (snapshot offset)", rep.Version())
	}

	followCtx, kill := context.WithCancel(ctx)
	followDone := make(chan error, 1)
	go func() { followDone <- rep.Follow(followCtx) }()

	for k := 2; k < 5; k++ {
		observeHTTP(t, srv.URL, batch(k))
	}
	waitVersion(t, rep, 5)

	// Bit-identical serving: compare against a bank rebuilt by replaying
	// the same batches locally.
	local := newBank(t)
	for k := 0; k < 5; k++ {
		if _, err := local.ObserveLabeled(batch(k)); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := answerSet(t, local, benchQueries()), answerSet(t, rep, benchQueries()); !bytes.Equal(a, b) {
		t.Fatalf("replica diverges from local replay:\n%s\nvs\n%s", b, a)
	}
	if rd := rep.Readiness(); !rd.Ready || rd.Role != "replica" || rd.Lag != 0 {
		t.Fatalf("caught-up replica readiness %+v", rd)
	}

	// Kill the follower, let the primary move on, restart: the replica
	// resumes from its applied offset — versions land exactly on the
	// primary's, and answers stay bit-identical (a double-apply would
	// shift counts and diverge).
	kill()
	if err := <-followDone; err != nil {
		t.Fatalf("killed follower returned %v, want nil", err)
	}
	for k := 5; k < 8; k++ {
		if _, err := local.ObserveLabeled(batch(k)); err != nil {
			t.Fatal(err)
		}
		observeHTTP(t, srv.URL, batch(k))
	}
	go func() { followDone <- rep.Follow(ctx) }()
	waitVersion(t, rep, 8)
	if rep.Version() != 8 {
		t.Fatalf("restarted replica at version %d, want exactly 8", rep.Version())
	}
	if a, b := answerSet(t, local, benchQueries()), answerSet(t, rep, benchQueries()); !bytes.Equal(a, b) {
		t.Fatalf("restarted replica diverges:\n%s\nvs\n%s", b, a)
	}

	// A second replica booting late converges to the same bytes.
	rep2, err := cluster.BootReplica(ctx, srv.URL, loadBank, 5*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Version() != 8 {
		t.Fatalf("late replica booted at version %d, want 8", rep2.Version())
	}
	if a, b := answerSet(t, rep, benchQueries()), answerSet(t, rep2, benchQueries()); !bytes.Equal(a, b) {
		t.Fatalf("replicas disagree:\n%s\nvs\n%s", b, a)
	}

	// Replicas refuse writes: the serving layer answers 501.
	rsrv := httptest.NewServer(server.New(rep))
	defer rsrv.Close()
	body, _ := json.Marshal(map[string]any{"rows": batch(0)})
	resp, err := http.Post(rsrv.URL+"/v1/observe", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("observe on replica returned %d, want 501", resp.StatusCode)
	}
	// And its readyz reports the replica role with its applied version.
	resp, err = http.Get(rsrv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rd query.Readiness
	if err := json.NewDecoder(resp.Body).Decode(&rd); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !rd.Ready || rd.Role != "replica" || rd.Version != 8 {
		t.Fatalf("replica readyz %d %+v", resp.StatusCode, rd)
	}
}

// TestReplicaPoisonedByBadRecord: a log record the bank refuses to apply
// forks the replica's state permanently — Follow must poison it, readiness
// must flip, and the fault must persist.
func TestReplicaPoisonedByBadRecord(t *testing.T) {
	// A fake primary serving an empty snapshot boot is complex; instead
	// drive catchUp against a handler returning a record with an unknown
	// label. Boot from a real primary first.
	_, srv := startPrimary(t)
	ctx := context.Background()
	rep, err := cluster.BootReplica(ctx, srv.URL, loadBank, 2*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Point the replica at an impostor primary whose log holds garbage.
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"from":0,"next":1,"end":1,"records":[{"rows":[["nope","b0","c0","d0"]]}]}`)
	}))
	defer bad.Close()
	rep2, err := cluster.BootReplica(ctx, srv.URL, loadBank, 2*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	cluster.RetargetForTest(rep2, bad.URL)
	if err := rep2.Follow(ctx); err == nil {
		t.Fatal("follow of a poisoned log returned nil")
	}
	if rep2.Err() == nil {
		t.Fatal("replica not poisoned")
	}
	if rd := rep2.Readiness(); rd.Ready || rd.Error == "" {
		t.Fatalf("poisoned replica reports ready: %+v", rd)
	}
	// The healthy replica is unaffected.
	if rd := rep.Readiness(); !rd.Ready {
		t.Fatalf("healthy replica unready: %+v", rd)
	}
}

// TestReplicaPoisonedByResetPrimary: a replica ahead of a primary whose log
// was reset gets a 4xx for its offset on every poll. That refusal is
// permanent — Follow must poison the replica and readyz must answer 503
// with the error — while a 5xx from a primary mid-restart stays a retry.
func TestReplicaPoisonedByResetPrimary(t *testing.T) {
	_, srv := startPrimary(t)
	for k := 0; k < 3; k++ {
		observeHTTP(t, srv.URL, batch(k))
	}
	ctx := context.Background()
	rep, err := cluster.BootReplica(ctx, srv.URL, loadBank, 2*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version() != 3 {
		t.Fatalf("replica booted at version %d, want 3", rep.Version())
	}

	// A 5xx is transient: Follow keeps polling until canceled, and the
	// replica stays healthy.
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "restarting", http.StatusServiceUnavailable)
	}))
	defer flaky.Close()
	cluster.RetargetForTest(rep, flaky.URL)
	flakyCtx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if err := rep.Follow(flakyCtx); err != nil {
		t.Fatalf("follow against a 503 primary returned %v, want nil on cancel", err)
	}
	if rd := rep.Readiness(); !rd.Ready || rd.Error != "" {
		t.Fatalf("replica poisoned by a transient 503: %+v", rd)
	}

	// A fresh primary's log ends at 0, so offset 3 is out of range. The
	// deadline only bounds a regression: a retrying Follow returns nil.
	_, fresh := startPrimary(t)
	cluster.RetargetForTest(rep, fresh.URL)
	resetCtx, cancelReset := context.WithTimeout(ctx, 10*time.Second)
	defer cancelReset()
	if err := rep.Follow(resetCtx); err == nil {
		t.Fatal("follow of a reset primary kept retrying")
	}
	if rep.Err() == nil {
		t.Fatal("replica not poisoned")
	}
	rsrv := httptest.NewServer(server.New(rep))
	defer rsrv.Close()
	resp, err := http.Get(rsrv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rd query.Readiness
	if err := json.NewDecoder(resp.Body).Decode(&rd); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || rd.Ready || rd.Error == "" {
		t.Fatalf("reset-primary replica readyz %d %+v", resp.StatusCode, rd)
	}
}

// TestPrimaryLogStatus: GET /v1/log answers 4xx only for what the caller
// got wrong — a malformed parameter or an offset outside the log — since
// replicas take a 4xx as permanent. A record that fails its checksum on
// the primary's disk answers 500, and a replica polling into it keeps
// retrying instead of being poisoned.
func TestPrimaryLogStatus(t *testing.T) {
	path := t.TempDir() + "/observe.log"
	lg, err := replog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lg.Close() })
	p, err := cluster.NewPrimary(newBank(t), lg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(p.Handler(server.New(p)))
	t.Cleanup(srv.Close)
	ctx := context.Background()
	rep, err := cluster.BootReplica(ctx, srv.URL, loadBank, 2*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	observeHTTP(t, srv.URL, batch(0))

	// Flip the last payload byte of the only record on disk.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, st.Size()-1); err != nil {
		t.Fatal(err)
	}
	last[0] ^= 0xff
	if _, err := f.WriteAt(last, st.Size()-1); err != nil {
		t.Fatal(err)
	}
	f.Close()

	for _, tc := range []struct {
		query string
		want  int
	}{
		{"from=abc", http.StatusBadRequest},
		{"from=0&max=0", http.StatusBadRequest},
		{"from=2", http.StatusBadRequest},
		{"from=1", http.StatusOK},
		{"from=0", http.StatusInternalServerError},
	} {
		resp, err := http.Get(srv.URL + "/v1/log?" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET /v1/log?%s = %d %s, want %d", tc.query, resp.StatusCode, body, tc.want)
		}
	}

	followCtx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if err := rep.Follow(followCtx); err != nil {
		t.Fatalf("follow into a corrupt primary record returned %v, want nil on cancel", err)
	}
	if rd := rep.Readiness(); rd.Error != "" || rep.Version() != 0 {
		t.Fatalf("replica poisoned by the primary's own read fault: %+v", rd)
	}
}

// TestClusterRolesReportEngineCacheTier: a primary and a replica forward
// their bank's engine cache tier to GET /v1/stats, as a standalone server
// does — neither embeds the concrete model, so the reporter is not
// promoted.
func TestClusterRolesReportEngineCacheTier(t *testing.T) {
	bank := newBank(t)
	bank.EnableCache(1 << 20)
	lg := openLog(t)
	t.Cleanup(func() { lg.Close() })
	p, err := cluster.NewPrimary(bank, lg)
	if err != nil {
		t.Fatal(err)
	}
	psrv := httptest.NewServer(p.Handler(server.New(p)))
	t.Cleanup(psrv.Close)

	load := func(r io.Reader) (cluster.Bank, error) {
		m, err := pka.LoadModelSnapshot(r)
		if err != nil {
			return nil, err
		}
		m.EnableCache(1 << 20)
		return m, nil
	}
	rep, err := cluster.BootReplica(context.Background(), psrv.URL, load, 2*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	rsrv := httptest.NewServer(server.New(rep))
	t.Cleanup(rsrv.Close)

	for role, url := range map[string]string{"primary": psrv.URL, "replica": rsrv.URL} {
		resp, err := http.Get(url + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var stats struct {
			Tiers []query.CacheTierStats `json:"tiers"`
		}
		err = json.NewDecoder(resp.Body).Decode(&stats)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, tr := range stats.Tiers {
			found = found || tr.Tier == "engine"
		}
		if !found {
			t.Errorf("%s /v1/stats has no engine tier: %+v", role, stats.Tiers)
		}
	}
}
