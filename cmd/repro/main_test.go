package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunAllExperiments(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "all"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"### fig1", "### table1", "### table2", "### fig3", "### appB",
		"130", "N^AB_11", "-11.57", "p^AC_12", "machine precision",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunExtensionExperiments(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "gof"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"independence (first order only)  191.9  178.7",
		"discovered (+3 constraints)        5.8    5.9   4     0.21",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("gof output missing %q:\n%s", want, buf.String())
		}
	}
	buf.Reset()
	if err := run(&buf, "assoc"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SMOKING × CANCER", "Cramér's V"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("assoc output missing %q:\n%s", want, buf.String())
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "prior"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"-0.40", "-1.39"} {
		if !strings.Contains(out, want) {
			t.Errorf("prior output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "### fig1") {
		t.Error("single experiment printed others")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestTable1DecisionsMatchPaper(t *testing.T) {
	// The significance column must mark exactly the paper's 7 cells.
	var buf bytes.Buffer
	if err := run(&buf, "table1"); err != nil {
		t.Fatal(err)
	}
	sig := strings.Count(buf.String(), "true")
	if sig != 7 {
		t.Errorf("%d significant rows, paper has 7:\n%s", sig, buf.String())
	}
}
