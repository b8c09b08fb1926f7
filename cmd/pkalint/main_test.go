package main_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildPkalint compiles the pkalint binary into a test temp dir.
func buildPkalint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "pkalint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building pkalint: %v\n%s", err, out)
	}
	return bin
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("go list -m: %v", err)
	}
	return strings.TrimSpace(string(out))
}

// TestStandaloneCleanOverTree is the acceptance smoke: the shipped tree
// analyzes clean under `go vet -vettool`, so any finding a change
// introduces is new.
func TestStandaloneCleanOverTree(t *testing.T) {
	bin := buildPkalint(t)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = moduleRoot(t)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go vet -vettool ./... reported findings or failed: %v\n%s", err, out)
	}
	if len(bytes.TrimSpace(out)) != 0 {
		t.Fatalf("go vet -vettool ./... produced unexpected output:\n%s", out)
	}
}

// TestVetToolProtocol drives the real `go vet -vettool` path over two
// packages, which exercises the -V=full and -flags handshakes plus the
// per-package .cfg mode.
func TestVetToolProtocol(t *testing.T) {
	bin := buildPkalint(t)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./internal/snapshot", "./internal/replog")
	cmd.Dir = moduleRoot(t)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go vet -vettool failed: %v\n%s", err, out)
	}
}

// TestVetToolDetects proves the vettool path actually reports: a scratch
// module whose package (named replog, so the namederr gate applies)
// exports a mis-named sentinel must fail the vet run.
func TestVetToolDetects(t *testing.T) {
	bin := buildPkalint(t)
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module probe\n\ngo 1.24\n")
	writeFile(t, filepath.Join(dir, "probe.go"),
		"package replog\n\nimport \"errors\"\n\nvar ProbeSentinel = errors.New(\"probe\")\n")
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool passed over a planted violation:\n%s", out)
	}
	if !strings.Contains(string(out), "ProbeSentinel must be named Err*") {
		t.Fatalf("expected namederr finding for ProbeSentinel, got:\n%s", out)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestHandshakes pins the two cmd/go handshakes the vettool protocol
// depends on.
func TestHandshakes(t *testing.T) {
	bin := buildPkalint(t)
	out, err := exec.Command(bin, "-V=full").Output()
	if err != nil {
		t.Fatalf("-V=full: %v", err)
	}
	if !strings.HasPrefix(string(out), "pkalint version ") {
		t.Fatalf("-V=full output %q lacks 'pkalint version ' prefix", out)
	}
	out, err = exec.Command(bin, "-flags").Output()
	if err != nil {
		t.Fatalf("-flags: %v", err)
	}
	if strings.TrimSpace(string(out)) != "[]" {
		t.Fatalf("-flags output %q, want []", out)
	}
}
