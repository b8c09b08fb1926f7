package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pka"
)

// pkaBinary builds the CLI once per test process — the replication integration
// tests exercise real OS processes, not in-process handlers.
var (
	binOnce sync.Once
	binPath string
	binErr  error
)

func pkaBinary(t *testing.T) string {
	t.Helper()
	binOnce.Do(func() {
		dir, err := os.MkdirTemp("", "pka-bin-")
		if err != nil {
			binErr = err
			return
		}
		binPath = filepath.Join(dir, "pka")
		out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput()
		if err != nil {
			binErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if binErr != nil {
		t.Fatal(binErr)
	}
	return binPath
}

// startServeProc launches `pka serve` as a separate process on an
// ephemeral port, waits for its announce line, and returns the base URL.
// The process is killed at test cleanup.
func startServeProc(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(pkaBinary(t), append([]string{"serve", "-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			// The announce line ends "... on 127.0.0.1:PORT".
			if i := strings.LastIndex(line, " on 127.0.0.1:"); strings.HasPrefix(line, "serving") && i >= 0 {
				addrCh <- line[i+len(" on "):]
				break
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return "http://" + addr
	case <-time.After(90 * time.Second):
		t.Fatalf("serve %v: no announce line within 90s", args)
		return ""
	}
}

// queryWire POSTs one query and returns the raw response bytes — the
// byte-for-byte payload bit-identity is asserted on.
func queryWire(t *testing.T, base string, q pka.Query) []byte {
	t.Helper()
	body, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query %s returned %s: %s", base, resp.Status, out)
	}
	return out
}

// schemaVersion reads the monotonic model version from /v1/schema.
func schemaVersion(t *testing.T, base string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/v1/schema")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Version int64 `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body.Version
}

func waitForVersion(t *testing.T, base string, want int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if v := schemaVersion(t, base); v >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s stuck below version %d", base, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// clusterCSV writes the deterministic replication seed dataset.
func clusterCSV(t *testing.T, dir string) string {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("A,B,C,D\n")
	// Every label the observe batches use must appear in the seed — the
	// inferred schema is closed after discovery.
	for i := 0; i < 300; i++ {
		a := i % 3
		c := (i / 3) % 2
		fmt.Fprintf(&sb, "a%d,b%d,c%d,d%d\n", a, a%2, c, (a+c)%3)
	}
	path := filepath.Join(dir, "seed.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// clusterBatch is the k-th observe batch, identical to the in-package
// cluster test workload.
func clusterBatch(k int) [][]string {
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

// clusterQueries is one of every query kind over the seed schema.
func clusterQueries() []pka.Query {
	return []pka.Query{
		{Kind: pka.QueryProbability, Target: []pka.Assignment{{Attr: "A", Value: "a1"}}},
		{Kind: pka.QueryProbability, Target: []pka.Assignment{{Attr: "A", Value: "a0"}, {Attr: "D", Value: "d1"}}},
		{Kind: pka.QueryConditional, Target: []pka.Assignment{{Attr: "B", Value: "b1"}}, Given: []pka.Assignment{{Attr: "A", Value: "a0"}}},
		{Kind: pka.QueryDistribution, Attr: "D", Given: []pka.Assignment{{Attr: "C", Value: "c1"}}},
		{Kind: pka.QueryMostLikely, Attr: "B", Given: []pka.Assignment{{Attr: "A", Value: "a2"}}},
		{Kind: pka.QueryLift, Target: []pka.Assignment{{Attr: "D", Value: "d2"}}, Given: []pka.Assignment{{Attr: "C", Value: "c0"}}},
		{Kind: pka.QueryMPE, Given: []pka.Assignment{{Attr: "A", Value: "a1"}}},
	}
}

// TestReplicationMultiProcess: a primary and two replicas as real
// processes. A stream of observe batches lands on the primary; both
// replicas converge to its exact version and every query kind answered by
// a replica is byte-identical to the primary's answer.
func TestReplicationMultiProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	dir := t.TempDir()
	csvPath := clusterCSV(t, dir)
	logPath := filepath.Join(dir, "observe.log")

	primary := startServeProc(t, "-data", csvPath, "-log", logPath, "-max-order", "2")

	// Stream batches; the observe response must carry the growing version.
	for k := 0; k < 6; k++ {
		body, err := json.Marshal(map[string]any{"rows": clusterBatch(k)})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(primary+"/v1/observe", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("observe %d: %s: %s", k, resp.Status, raw)
		}
		var rep struct {
			Version int64 `json:"version"`
		}
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Version != int64(k)+1 {
			t.Fatalf("observe %d: version %d, want %d", k, rep.Version, k+1)
		}
	}

	replica1 := startServeProc(t, "-replica-of", primary, "-poll", "20ms")
	replica2 := startServeProc(t, "-replica-of", primary, "-poll", "20ms")

	// More traffic after the replicas exist, so both tail the live log.
	for k := 6; k < 10; k++ {
		body, _ := json.Marshal(map[string]any{"rows": clusterBatch(k)})
		resp, err := http.Post(primary+"/v1/observe", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	waitForVersion(t, replica1, 10)
	waitForVersion(t, replica2, 10)

	for _, q := range clusterQueries() {
		want := queryWire(t, primary, q)
		if got := queryWire(t, replica1, q); !bytes.Equal(want, got) {
			t.Errorf("replica1 %s diverges:\n%svs\n%s", q.Kind, got, want)
		}
		if got := queryWire(t, replica2, q); !bytes.Equal(want, got) {
			t.Errorf("replica2 %s diverges:\n%svs\n%s", q.Kind, got, want)
		}
	}

	// readyz: replicas report their role and zero lag once converged.
	resp, err := http.Get(replica1 + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rd struct {
		Ready   bool   `json:"ready"`
		Role    string `json:"role"`
		Version int64  `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rd); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !rd.Ready || rd.Role != "replica" || rd.Version != 10 {
		t.Fatalf("replica readyz %d %+v", resp.StatusCode, rd)
	}

	// Writes on a replica answer 501 — the primary owns ingest.
	body, _ := json.Marshal(map[string]any{"rows": clusterBatch(0)})
	resp, err = http.Post(replica1+"/v1/observe", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("observe on replica returned %d, want 501", resp.StatusCode)
	}
}
