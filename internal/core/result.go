package core

import (
	"fmt"
	"strings"

	"pka/internal/contingency"
	"pka/internal/maxent"
	"pka/internal/mml"
)

// Finding is one accepted constraint: a significant joint probability, in
// the order discovered.
type Finding struct {
	// Step numbers findings from 1 in acceptance order.
	Step int
	// Order is the attribute-family order (2 for pairwise, ...).
	Order int
	// Test carries the full Table 1-style statistics at acceptance time.
	Test mml.CellTest
	// Constraint is what was added to the model (target = observed/N).
	Constraint maxent.Constraint
	// ImpliedZeros lists zero-target constraints added alongside this
	// finding because, with the first-order margins, it forces those
	// cells to zero (see impliedZeros).
	ImpliedZeros []maxent.Constraint
	// FitSweeps is how many solver sweeps the refit took (Table 2's scale).
	FitSweeps int
}

// Scan records one full pass over an order's candidate cells.
type Scan struct {
	Order int
	// Pass numbers scans within the order from 1 (the first pass of the
	// memo's example is exactly Table 1).
	Pass int
	// Tests holds the scored candidates in deterministic scan order.
	Tests []mml.CellTest
	// Selected is the index into Tests of the accepted cell, or -1 when
	// the pass found nothing significant (ending the order).
	Selected int
}

// LevelReport summarizes one order of the level-wise loop.
type LevelReport struct {
	Order      int
	Candidates int // cells scanned on the first pass
	Accepted   int // constraints promoted at this order
}

// Result is the outcome of a discovery run.
type Result struct {
	// Model is the fitted product-form model over all found constraints —
	// the memo's succinct formula (Eq. 12).
	Model *maxent.Model
	// Findings lists accepted constraints in discovery order.
	Findings []Finding
	// Levels summarizes each scanned order.
	Levels []LevelReport
	// Scans holds every recorded pass (only when Options.RecordScans).
	Scans []Scan
	// TotalSamples is N of the input table.
	TotalSamples int64
	// Screen summarizes the association screen (nil when screening off).
	Screen *ScreenReport
}

// FindingsAtOrder filters findings by order.
func (r *Result) FindingsAtOrder(order int) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Order == order {
			out = append(out, f)
		}
	}
	return out
}

// Summary renders a human-readable digest of the run.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "discovery over N=%d samples: %d significant constraints\n",
		r.TotalSamples, len(r.Findings))
	for _, lv := range r.Levels {
		fmt.Fprintf(&b, "  order %d: %d candidates, %d accepted\n",
			lv.Order, lv.Candidates, lv.Accepted)
	}
	names := r.Model.Names()
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "  #%d %s: observed %d, target %.4f, Δ(m2-m1) = %.2f\n",
			f.Step, describeCell(names, f.Test.Family, f.Test.Values),
			f.Test.Observed, f.Constraint.Target, f.Test.Delta)
	}
	return b.String()
}

// describeCell renders N^{AC}_{1,2}-style cell names with 1-based values.
func describeCell(names []string, family contingency.VarSet, values []int) string {
	sup := make([]string, 0, family.Len())
	sub := make([]string, 0, family.Len())
	for i, p := range family.Members() {
		if p < len(names) {
			sup = append(sup, names[p])
		} else {
			sup = append(sup, fmt.Sprintf("v%d", p))
		}
		sub = append(sub, fmt.Sprintf("%d", values[i]+1))
	}
	return fmt.Sprintf("N^{%s}_{%s}", strings.Join(sup, ","), strings.Join(sub, ","))
}
