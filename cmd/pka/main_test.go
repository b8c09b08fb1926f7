package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pka/internal/paperdata"
)

// writeMemoCSV materializes the paper's survey as a CSV file.
func writeMemoCSV(t *testing.T) string {
	t.Helper()
	d := paperdata.Records()
	path := filepath.Join(t.TempDir(), "memo.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := d.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestUsageErrors(t *testing.T) {
	var buf bytes.Buffer
	err := run(&buf, nil)
	if err == nil {
		t.Fatal("no args accepted")
	}
	for _, c := range subcommands {
		if !strings.Contains(err.Error(), c.name) {
			t.Errorf("usage error %q does not name %q", err, c.name)
		}
	}
	for _, name := range []string{"bogus", "bench"} {
		err := run(&buf, []string{name})
		if err == nil || !strings.Contains(err.Error(), "unknown subcommand") {
			t.Errorf("run(%q) = %v, want an unknown subcommand error", name, err)
		}
	}
	if err := run(&buf, []string{"discover"}); err == nil {
		t.Error("discover without -in accepted")
	}
	if err := run(&buf, []string{"rules"}); err == nil {
		t.Error("rules without -kb accepted")
	}
	if err := run(&buf, []string{"query", "-kb", "/nonexistent"}); err == nil {
		t.Error("query with missing kb accepted")
	}
	if err := run(&buf, []string{"tables"}); err == nil {
		t.Error("tables without -in accepted")
	}
}

func TestDiscoverRulesQueryPipeline(t *testing.T) {
	csvPath := writeMemoCSV(t)
	kbPath := filepath.Join(t.TempDir(), "kb.json")

	var buf bytes.Buffer
	if err := run(&buf, []string{"discover", "-in", csvPath, "-out", kbPath}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"N=3428", "significant constraints", "knowledge base written"} {
		if !strings.Contains(out, want) {
			t.Errorf("discover output missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	if err := run(&buf, []string{"rules", "-kb", kbPath, "-min-lift", "0.1"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "IF ") {
		t.Errorf("rules output has no rules:\n%s", buf.String())
	}

	buf.Reset()
	if err := run(&buf, []string{
		"query", "-kb", kbPath,
		"-target", "CANCER=Yes",
		"-given", "SMOKING=Smoker",
	}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "P(CANCER=Yes | SMOKING=Smoker) = 0.18") {
		t.Errorf("query output wrong (want ≈0.186):\n%s", buf.String())
	}

	buf.Reset()
	if err := run(&buf, []string{"query", "-kb", kbPath, "-dist", "SMOKING"}); err != nil {
		t.Fatal(err)
	}
	if c := strings.Count(buf.String(), "P(SMOKING="); c != 3 {
		t.Errorf("distribution printed %d lines, want 3:\n%s", c, buf.String())
	}
}

func TestTablesSubcommand(t *testing.T) {
	csvPath := writeMemoCSV(t)
	var buf bytes.Buffer
	if err := run(&buf, []string{
		"tables", "-in", csvPath, "-rows", "SMOKING", "-cols", "CANCER",
	}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// One page per family-history value with that page's marginals
	// (value labels are sorted by InferSchema, so rows permute but the
	// counts and page totals of Figures 2a/2b must all appear).
	for _, want := range []string{"1780", "1648", "750", "491", "1510", "270"} {
		if !strings.Contains(out, want) {
			t.Errorf("tables output missing %q:\n%s", want, out)
		}
	}
}

func TestParseAssignments(t *testing.T) {
	as, err := parseAssignments("A=x, FAMILY HISTORY=Yes")
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 2 || as[1].Attr != "FAMILY HISTORY" || as[1].Value != "Yes" {
		t.Errorf("parsed = %v", as)
	}
	if _, err := parseAssignments("novalue"); err == nil {
		t.Error("missing = accepted")
	}
	if _, err := parseAssignments("=x"); err == nil {
		t.Error("empty attribute accepted")
	}
	if _, err := parseAssignments("A="); err == nil {
		t.Error("empty value accepted")
	}
	if as, err := parseAssignments("  "); err != nil || as != nil {
		t.Errorf("blank input: %v, %v", as, err)
	}
}

func TestQueryZeroEvidence(t *testing.T) {
	csvPath := writeMemoCSV(t)
	kbPath := filepath.Join(t.TempDir(), "kb.json")
	var buf bytes.Buffer
	if err := run(&buf, []string{"discover", "-in", csvPath, "-out", kbPath}); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := run(&buf, []string{"query", "-kb", kbPath, "-target", "CANCER=Maybe"}); err == nil {
		t.Error("unknown value accepted")
	}
}

func TestDiscoverSparseMode(t *testing.T) {
	csvPath := writeMemoCSV(t)
	kbPath := filepath.Join(t.TempDir(), "kb.json")

	// -sparse with screening discovers the memo's structure end to end and
	// reports the screen.
	var buf bytes.Buffer
	if err := run(&buf, []string{
		"discover", "-in", csvPath, "-out", kbPath, "-sparse", "-screen",
	}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"N=3428", "screen:", "significant constraints", "knowledge base written"} {
		if !strings.Contains(out, want) {
			t.Errorf("sparse discover output missing %q:\n%s", want, out)
		}
	}

	// The saved knowledge base answers queries like the dense one.
	buf.Reset()
	if err := run(&buf, []string{
		"query", "-kb", kbPath,
		"-target", "CANCER=Yes",
		"-given", "SMOKING=Smoker",
	}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "P(CANCER=Yes | SMOKING=Smoker) = 0.18") {
		t.Errorf("query on sparse-discovered kb wrong (want ≈0.186):\n%s", buf.String())
	}

	// Dense-only flags are rejected in sparse mode.
	if err := run(&buf, []string{"discover", "-in", csvPath, "-sparse", "-cv", "3"}); err == nil {
		t.Error("-sparse with -cv accepted")
	}
	if err := run(&buf, []string{"discover", "-in", csvPath, "-sparse", "-merge-rare", "5"}); err == nil {
		t.Error("-sparse with -merge-rare accepted")
	}
}

// TestByteOrderMarkInput feeds a spreadsheet "CSV UTF-8" export — a leading
// byte-order mark and CRLF line ends — to every command that reads CSV.
// The mark must not become part of the first attribute's name.
func TestByteOrderMarkInput(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "bom.csv")
	if err := os.WriteFile(csvPath, []byte("\ufeffA,B\r\nx,y\r\nx,z\r\nw,y\r\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"discover", "-in", csvPath},
		{"discover", "-sparse", "-in", csvPath},
		{"discover", "-merge-rare", "2", "-in", csvPath},
		{"tables", "-in", csvPath, "-rows", "A"},
		{"analyze", "-in", csvPath},
	} {
		var buf bytes.Buffer
		if err := run(&buf, args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if strings.Contains(buf.String(), "\ufeff") {
			t.Errorf("%v: output carries the byte-order mark:\n%s", args, buf.String())
		}
	}
	kbPath := filepath.Join(dir, "kb.json")
	var buf bytes.Buffer
	if err := run(&buf, []string{"discover", "-in", csvPath, "-out", kbPath}); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := run(&buf, []string{"query", "-kb", kbPath, "-target", "A=x"}); err != nil {
		t.Fatalf("query by the first attribute's name: %v", err)
	}
	buf.Reset()
	if err := run(&buf, []string{"validate", "-kb", kbPath, "-in", csvPath}); err != nil || !strings.Contains(buf.String(), "3 samples") {
		t.Errorf("validate: %v\n%s", err, buf.String())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- runServe(ctx, io.Discard, serveConfig{dataPath: csvPath, addr: "127.0.0.1:0"},
			func(a net.Addr) { ready <- a })
	}()
	select {
	case addr := <-ready:
		resp, err := http.Post("http://"+addr.String()+"/v1/query", "application/json",
			strings.NewReader(`{"kind":"probability","target":[{"attr":"A","value":"x"}]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("serve -data: query by the first attribute's name answered %s", resp.Status)
		}
	case err := <-done:
		t.Fatalf("serve -data exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("serve -data never became ready")
	}
	cancel()
	if err := <-done; err != nil {
		t.Errorf("serve -data: %v", err)
	}
}
