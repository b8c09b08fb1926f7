package kb

import (
	"math"
	"strings"
	"testing"

	"pka/internal/contingency"
	"pka/internal/core"
	"pka/internal/dataset"
)

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errWrite }

var errWrite = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "disk full" }

func TestSaveWriterError(t *testing.T) {
	k := memoKB(t)
	if err := k.Save(failingWriter{}); err == nil {
		t.Error("write error swallowed")
	}
}

func TestLoadTruncated(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"version":1,"attributes":`)); err == nil {
		t.Error("truncated stream accepted")
	}
}

func TestLiftZeroBase(t *testing.T) {
	// Build a KB with a structurally impossible target value.
	k := xorKB(t)
	// In the deterministic table (X==Y), the cell X=a,Y=b has zero mass,
	// but single values all have positive mass; construct zero base via a
	// conditional target instead: Lift of an impossible joint.
	_, err := k.Lift(Assignment{Attr: "Y", Value: "b"},
		Assignment{Attr: "X", Value: "a"})
	if err != nil {
		t.Fatalf("lift on possible target failed: %v", err)
	}
}

// xorKB builds a deterministic X==Y knowledge base.
func xorKB(t *testing.T) *KnowledgeBase {
	t.Helper()
	tab := contingency.MustNew([]string{"X", "Y"}, []int{2, 2})
	tab.Set(50, 0, 0)
	tab.Set(50, 1, 1)
	res, err := core.Discover(tab, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	schema := dataset.MustSchema([]dataset.Attribute{
		{Name: "X", Values: []string{"a", "b"}},
		{Name: "Y", Values: []string{"a", "b"}},
	})
	k, err := New(schema, res.Model)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestLogLossValidation(t *testing.T) {
	k := memoKB(t)
	empty := contingency.MustNew(nil, []int{3, 2, 2})
	if _, err := k.LogLoss(empty); err == nil {
		t.Error("empty table accepted")
	}
	wrong := contingency.MustNew(nil, []int{2, 2})
	wrong.Set(5, 0, 0)
	if _, err := k.LogLoss(wrong); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestLogLossInfOnZeroSupport(t *testing.T) {
	k := xorKB(t)
	held := contingency.MustNew([]string{"X", "Y"}, []int{2, 2})
	held.Set(1, 0, 1) // impossible under the model
	loss, err := k.LogLoss(held)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(loss, 1) {
		t.Errorf("loss = %g, want +Inf", loss)
	}
	if ref := jointLogLoss(t, k, held); !math.IsInf(ref, 1) {
		t.Errorf("joint reference loss = %g, want +Inf", ref)
	}
}
