package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pka"
)

func TestAnalyzeSubcommand(t *testing.T) {
	csvPath := writeMemoCSV(t)
	var buf bytes.Buffer
	if err := run(&buf, []string{"analyze", "-in", csvPath}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"3428 samples", "MI (nats)", "SMOKING × CANCER", "p-value"} {
		if !strings.Contains(out, want) {
			t.Errorf("analyze output missing %q:\n%s", want, out)
		}
	}
	if err := run(&buf, []string{"analyze"}); err == nil {
		t.Error("analyze without -in accepted")
	}
	if err := run(&buf, []string{"analyze", "-in", "/nonexistent"}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestRulesWithCI(t *testing.T) {
	csvPath := writeMemoCSV(t)
	kbPath := filepath.Join(t.TempDir(), "kb.json")
	var buf bytes.Buffer
	if err := run(&buf, []string{"discover", "-in", csvPath, "-out", kbPath}); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := run(&buf, []string{"rules", "-kb", kbPath, "-ci", "-n", "3428"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "CI95=") {
		t.Errorf("rules -ci output missing intervals:\n%s", buf.String())
	}
	if err := run(&buf, []string{"rules", "-kb", kbPath, "-ci"}); err == nil {
		t.Error("-ci without -n accepted")
	}
}

func TestDiscoverMergeRare(t *testing.T) {
	// A CSV with a rare value: -merge-rare must fold it into 'other'.
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "rare.csv")
	var sb strings.Builder
	sb.WriteString("COLOR,SIZE\n")
	for i := 0; i < 50; i++ {
		sb.WriteString("red,small\n")
		sb.WriteString("green,large\n")
	}
	sb.WriteString("mauve,small\n")
	if err := os.WriteFile(csvPath, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, []string{"discover", "-in", csvPath, "-merge-rare", "5"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "other") {
		t.Errorf("merged output missing 'other':\n%s", buf.String())
	}
}

func TestDiscoverWithScan(t *testing.T) {
	csvPath := writeMemoCSV(t)
	var buf bytes.Buffer
	if err := run(&buf, []string{"discover", "-in", csvPath, "-scan"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"first significance scan (order 2, 16 candidates)", "m2-m1", "SMOKING=Smoker,CANCER=Yes"} {
		if !strings.Contains(out, want) {
			t.Errorf("scan output missing %q:\n%s", want, out)
		}
	}
}

func TestDiscoverWithCV(t *testing.T) {
	csvPath := writeMemoCSV(t)
	var buf bytes.Buffer
	if err := run(&buf, []string{"discover", "-in", csvPath, "-cv", "3"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"cv: order 2 ->", "cv: order 3 ->", "cv: selected max-order"} {
		if !strings.Contains(out, want) {
			t.Errorf("cv output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "significant constraints") {
		t.Errorf("discovery did not follow cv:\n%s", out)
	}
}

func TestExplainDOT(t *testing.T) {
	csvPath := writeMemoCSV(t)
	kbPath := filepath.Join(t.TempDir(), "kb.json")
	var buf bytes.Buffer
	if err := run(&buf, []string{"discover", "-in", csvPath, "-out", kbPath}); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := run(&buf, []string{"explain", "-kb", kbPath, "-dot"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "graph dependencies") || !strings.Contains(out, "SMOKING") {
		t.Errorf("DOT output:\n%s", out)
	}
}

func TestValidateSubcommand(t *testing.T) {
	csvPath := writeMemoCSV(t)
	kbPath := filepath.Join(t.TempDir(), "kb.json")
	var buf bytes.Buffer
	if err := run(&buf, []string{"discover", "-in", csvPath, "-out", kbPath}); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	// Validating on the training data itself: loss ≈ data entropy.
	if err := run(&buf, []string{"validate", "-kb", kbPath, "-in", csvPath}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "3428 samples") || !strings.Contains(out, "nats/sample") {
		t.Errorf("validate output:\n%s", out)
	}
	if err := run(&buf, []string{"validate", "-kb", kbPath}); err == nil {
		t.Error("validate without -in accepted")
	}
	if err := run(&buf, []string{"validate", "-in", csvPath}); err == nil {
		t.Error("validate without -kb accepted")
	}
}

func TestValidateSimulatedHoldout(t *testing.T) {
	// Train on one simulated sample, validate on a second with a different
	// seed — the full deployment loop through the CLI.
	dir := t.TempDir()
	trainCSV := filepath.Join(dir, "train.csv")
	testCSV := filepath.Join(dir, "test.csv")
	kbPath := filepath.Join(dir, "kb.json")
	var buf bytes.Buffer
	if err := run(&buf, []string{"simulate", "-scenario", "telemetry", "-n", "5000", "-seed", "1", "-out", trainCSV}); err != nil {
		t.Fatal(err)
	}
	if err := run(&buf, []string{"simulate", "-scenario", "telemetry", "-n", "2000", "-seed", "2", "-out", testCSV}); err != nil {
		t.Fatal(err)
	}
	if err := run(&buf, []string{"discover", "-in", trainCSV, "-out", kbPath}); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := run(&buf, []string{"validate", "-kb", kbPath, "-in", testCSV}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2000 samples") {
		t.Errorf("holdout validate output:\n%s", buf.String())
	}
}

// TestValidateWideSchema: a knowledge base over 40 binary attributes has a
// joint space no dense table holds, so validate tabulates the CSV sparse
// and prints the loss LogLoss gives on that sparse table.
func TestValidateWideSchema(t *testing.T) {
	dir := t.TempDir()
	trainCSV := filepath.Join(dir, "train.csv")
	testCSV := filepath.Join(dir, "test.csv")
	kbPath := filepath.Join(dir, "kb.json")
	var buf bytes.Buffer
	if err := run(&buf, []string{"simulate", "-scenario", "wide", "-factors", "20", "-n", "600", "-seed", "1", "-out", trainCSV}); err != nil {
		t.Fatal(err)
	}
	if err := run(&buf, []string{"simulate", "-scenario", "wide", "-factors", "20", "-n", "300", "-seed", "2", "-out", testCSV}); err != nil {
		t.Fatal(err)
	}
	if err := run(&buf, []string{"discover", "-in", trainCSV, "-sparse", "-screen", "-max-order", "2", "-max-constraints", "6", "-out", kbPath}); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := run(&buf, []string{"validate", "-kb", kbPath, "-in", testCSV}); err != nil {
		t.Fatal(err)
	}
	model, err := loadKB(kbPath)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(testCSV)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	table, err := pka.TabulateCSVSparse(f, model.Schema())
	if err != nil {
		t.Fatal(err)
	}
	loss, err := model.LogLoss(table)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(loss, 0) || math.IsNaN(loss) {
		t.Fatalf("sparse log loss %g", loss)
	}
	want := fmt.Sprintf("validation: 300 samples\nlog loss: %.4f nats/sample (%.4f bits/sample)\n", loss, loss/math.Ln2)
	if buf.String() != want {
		t.Errorf("validate output:\n%s\nwant:\n%s", buf.String(), want)
	}
}
