package report

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("name", "count").Align(Left, Right)
	tb.Row("alpha", 5)
	tb.Row("b", 12345)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines, want 4:\n%s", len(lines), out)
	}
	// Right-aligned column: "5" must end at the same offset as "12345".
	if !strings.HasSuffix(lines[2], "    5") {
		t.Errorf("right alignment broken: %q", lines[2])
	}
	if !strings.HasPrefix(lines[2], "alpha") {
		t.Errorf("left alignment broken: %q", lines[2])
	}
	if !strings.Contains(lines[1], "----") {
		t.Errorf("separator missing: %q", lines[1])
	}
}

func TestTableRaggedRows(t *testing.T) {
	tb := NewTable("a", "b", "c")
	tb.Row(1) // short
	tb.AddRow("x", "y", "z")
	out := tb.String()
	if !strings.Contains(out, "x  y  z") {
		t.Errorf("preformatted row mangled:\n%s", out)
	}
}

func TestTableWriteError(t *testing.T) {
	tb := NewTable("a").Row(1)
	w := &failWriter{}
	if err := tb.Write(w); err == nil {
		t.Error("write error swallowed")
	}
}

type failWriter struct{}

func (*failWriter) Write([]byte) (int, error) {
	return 0, errFail
}

var errFail = &writeError{}

type writeError struct{}

func (*writeError) Error() string { return "fail" }

func TestFloatClamp(t *testing.T) {
	if got := Float(0.05, 1, 0.1); got != "<0.1" {
		t.Errorf("clamped = %q", got)
	}
	if got := Float(5.8, 1, 0.1); got != "5.8" {
		t.Errorf("unclamped = %q", got)
	}
	if got := Float(5.812, 2, 0); got != "5.81" {
		t.Errorf("no-clamp = %q", got)
	}
}
