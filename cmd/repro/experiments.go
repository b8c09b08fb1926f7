package main

import (
	"fmt"
	"io"
	"math"

	"pka/internal/assoc"
	"pka/internal/contingency"
	"pka/internal/core"
	"pka/internal/maxent"
	"pka/internal/mml"
	"pka/internal/paperdata"
	"pka/internal/report"
	"pka/internal/sumprod"
)

// cellName renders N^{AB}_{11}-style names with the memo's letters.
func cellName(family contingency.VarSet, values []int) string {
	letters := []string{"A", "B", "C"}
	sup, sub := "", ""
	for i, p := range family.Members() {
		sup += letters[p]
		sub += fmt.Sprintf("%d", values[i]+1)
	}
	return fmt.Sprintf("N^%s_%s", sup, sub)
}

func runFigure1(w io.Writer) error {
	tab := paperdata.Table()
	fmt.Fprintln(w, "Rows = SMOKING, columns = CANCER, one block per FAMILY HISTORY value.")
	fmt.Fprintln(w, "Paper: Figure 1a (family history = yes), 1b (no); N = 3428.")
	fmt.Fprintln(w)
	return tab.RenderSlices(w, paperdata.PosSmoking, paperdata.PosCancer, false)
}

func runFigure2(w io.Writer) error {
	tab := paperdata.Table()
	fmt.Fprintln(w, "Same tables with marginals (Figures 2a, 2b):")
	fmt.Fprintln(w)
	if err := tab.RenderSlices(w, paperdata.PosSmoking, paperdata.PosCancer, true); err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 2c — SMOKING × CANCER summed over family history:")
	fmt.Fprintln(w)
	ab, err := tab.Marginalize(contingency.NewVarSet(paperdata.PosSmoking, paperdata.PosCancer))
	if err != nil {
		return err
	}
	return ab.RenderSlices(w, 0, 1, true)
}

// independencePrediction returns the Eq. 62 product-of-marginals predictor.
func independencePrediction(tab *contingency.Table) (func(contingency.VarSet, []int) (float64, error), error) {
	first, err := tab.FirstOrderProbabilities()
	if err != nil {
		return nil, err
	}
	return func(fam contingency.VarSet, values []int) (float64, error) {
		p := 1.0
		for i, pos := range fam.Members() {
			p *= first[pos][values[i]]
		}
		return p, nil
	}, nil
}

func runTable1(w io.Writer) error {
	tab := paperdata.Table()
	tester, err := mml.NewTester(tab, mml.DefaultConfig())
	if err != nil {
		return err
	}
	predict, err := independencePrediction(tab)
	if err != nil {
		return err
	}
	t := report.NewTable(
		"cell", "p(indep)", "N obs",
		"mean", "mean(paper)", "sd", "z", "z(paper)",
		"m2-m1", "m2-m1(paper)", "p(H1|D)/p(H2|D)", "significant").
		Align(report.Left, report.Right, report.Right, report.Right, report.Right,
			report.Right, report.Right, report.Right, report.Right, report.Right,
			report.Right, report.Left)
	for _, row := range paperdata.Table1() {
		p, err := predict(row.Family, row.Values[:])
		if err != nil {
			return err
		}
		ct, err := tester.Test(row.Family, row.Values[:], p)
		if err != nil {
			return err
		}
		meanPaper := "(ocr?)"
		zPaper := "(ocr?)"
		if row.Mean > 0 {
			meanPaper = fmt.Sprintf("%.0f", row.Mean)
			zPaper = fmt.Sprintf("%.2f", row.Z)
		}
		t.AddRow(
			cellName(row.Family, row.Values[:]),
			fmt.Sprintf("%.3f", ct.Predicted),
			fmt.Sprintf("%d", ct.Observed),
			fmt.Sprintf("%.0f", ct.Mean),
			meanPaper,
			fmt.Sprintf("%.1f", ct.SD),
			fmt.Sprintf("%.2f", ct.Z),
			zPaper,
			fmt.Sprintf("%.2f", ct.Delta),
			fmt.Sprintf("%.2f", row.Delta),
			report.Float(ct.LikelihoodRatio, 1, 0.1),
			fmt.Sprintf("%v", ct.Significant),
		)
	}
	if err := t.Write(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nNotes: the paper rounds p to 3 digits before computing means, which")
	fmt.Fprintln(w, "shifts its extreme rows; all 16 significance decisions (the sign of")
	fmt.Fprintln(w, "m2-m1) match the paper. '(ocr?)' marks entries garbled in the scan.")
	return nil
}

func runTable2(w io.Writer) error {
	tab := paperdata.Table()
	model, err := maxent.NewModel(tab.Names(), tab.Cards())
	if err != nil {
		return err
	}
	if err := model.AddFirstOrderConstraints(tab); err != nil {
		return err
	}
	if _, err := model.Fit(maxent.SolveOptions{}); err != nil {
		return err
	}
	fam, values, target := paperdata.Table2Constraint()
	if err := model.AddConstraint(maxent.Constraint{Family: fam, Values: values, Target: target}); err != nil {
		return err
	}
	rep, err := model.Fit(maxent.SolveOptions{Tol: 1e-3, RecordTrace: true})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Constraint: p^AC_12 = %.3f (the paper's .219). Tolerance 1e-3,\n", target)
	fmt.Fprintf(w, "matching the paper's 2-decimal hand iteration (its Table 2: 7 passes).\n\n")
	fmt.Fprintf(w, "Converged: %v in %d sweeps (residual %.2g).\n\n", rep.Converged, rep.Sweeps, rep.Residual)
	t := report.NewTable(append([]string{"sweep"}, append(rep.Labels, "a0")...)...)
	for s, snap := range rep.Trace {
		row := make([]string, 0, len(snap)+2)
		row = append(row, fmt.Sprintf("%d", s+1))
		for _, v := range snap {
			row = append(row, fmt.Sprintf("%.3f", v))
		}
		row = append(row, fmt.Sprintf("%.3f", rep.A0Trace[s]))
		t.AddRow(row...)
	}
	if err := t.Write(w); err != nil {
		return err
	}
	// Verify the fitted model satisfies the constraint and the paper's
	// conditional-independence property.
	if _, err := model.Fit(maxent.SolveOptions{}); err != nil {
		return err
	}
	got, err := model.Prob(fam, values)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nFitted p^AC_12 = %.6f (target %.6f).\n", got, target)
	fmt.Fprintln(w, "Paper check: B stays independent of (A,C) — Eqs. 68-69 'do not contribute':")
	pB, _ := model.Prob(contingency.NewVarSet(paperdata.PosCancer), []int{0})
	pAC, _ := model.Prob(fam, values)
	full := contingency.NewVarSet(paperdata.PosSmoking, paperdata.PosCancer, paperdata.PosFamily)
	pABC, _ := model.Prob(full, []int{0, 0, 1})
	fmt.Fprintf(w, "  p(A=1,B=1,C=2) = %.6f vs p^AC_12 · p^B_1 = %.6f\n", pABC, pAC*pB)
	return nil
}

func runFigure3(w io.Writer) error {
	res, err := core.Discover(paperdata.Table(), core.Options{RecordScans: true})
	if err != nil {
		return err
	}
	fmt.Fprint(w, res.Summary())
	fmt.Fprintln(w, "\nScan passes (the first pass at order 2 is exactly Table 1):")
	for _, s := range res.Scans {
		sel := "none significant — order complete"
		if s.Selected >= 0 {
			ct := s.Tests[s.Selected]
			sel = fmt.Sprintf("selected %s (m2-m1 = %.2f)", cellName(ct.Family, ct.Values), ct.Delta)
		}
		fmt.Fprintf(w, "  order %d pass %d: %d candidates, %s\n",
			s.Order, s.Pass, len(s.Tests), sel)
	}
	return nil
}

func runFigure4(w io.Writer) error {
	res, err := core.Discover(paperdata.Table(), core.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Refit cost per accepted constraint (warm-started, as the paper's")
	fmt.Fprintln(w, "'starting with the last previously calculated a values'):")
	t := report.NewTable("step", "constraint", "target", "solver sweeps").
		Align(report.Right, report.Left, report.Right, report.Right)
	for _, f := range res.Findings {
		t.AddRow(
			fmt.Sprintf("%d", f.Step),
			cellName(f.Test.Family, f.Test.Values),
			fmt.Sprintf("%.4f", f.Constraint.Target),
			fmt.Sprintf("%d", f.FitSweeps),
		)
	}
	return t.Write(w)
}

func runFigure5(w io.Writer) error {
	d := paperdata.Records()
	fmt.Fprintf(w, "Reconstructed original data form: %d samples × %d attributes.\n",
		d.Len(), d.Schema().R())
	fmt.Fprintln(w, "First rows (value per attribute, as in the memo's Figure 5 mark grid):")
	t := report.NewTable("sample", "A SMOKING", "B CANCER", "C FAMILY HISTORY").
		Align(report.Right, report.Left, report.Left, report.Left)
	for i := 0; i < 4; i++ {
		labels := d.Labels(i)
		t.AddRow(fmt.Sprintf("%d", i+1), labels[0], labels[1], labels[2])
	}
	return t.Write(w)
}

func runFigure6(w io.Writer) error {
	d := paperdata.Records()
	tab, err := d.Tabulate()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Triples-form sums (Figure 6 bottom row) — each equals Figure 1's cell:")
	t := report.NewTable("triple ijk", "sum", "paper").
		Align(report.Left, report.Right, report.Right)
	paper := map[[3]int]int64{
		{0, 0, 0}: 130, {0, 1, 0}: 410, {0, 0, 1}: 110, {0, 1, 1}: 640,
		{1, 0, 0}: 62, {1, 1, 0}: 580, {1, 0, 1}: 31, {1, 1, 1}: 460,
		{2, 0, 0}: 78, {2, 1, 0}: 520, {2, 0, 1}: 22, {2, 1, 1}: 385,
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			for k := 0; k < 2; k++ {
				got := tab.MustAt(i, j, k)
				t.AddRow(
					fmt.Sprintf("N^ABC_%d%d%d", i+1, j+1, k+1),
					fmt.Sprintf("%d", got),
					fmt.Sprintf("%d", paper[[3]int{i, j, k}]),
				)
			}
		}
	}
	return t.Write(w)
}

func runPrior(w io.Writer) error {
	tab := paperdata.Table()
	predict, err := independencePrediction(tab)
	if err != nil {
		return err
	}
	fam := contingency.NewVarSet(paperdata.PosSmoking, paperdata.PosCancer)
	cell := []int{0, 1} // the memo's moderate example row N^AB_12
	p, _ := predict(fam, cell)
	t := report.NewTable("p(H2')", "m2-m1", "shift vs 0.5", "paper shift").
		Align(report.Right, report.Right, report.Right, report.Right)
	var base float64
	for i, prior := range []float64{0.5, 0.6, 0.8} {
		tester, err := mml.NewTester(tab, mml.Config{PriorH2: prior})
		if err != nil {
			return err
		}
		ct, err := tester.Test(fam, cell, p)
		if err != nil {
			return err
		}
		if i == 0 {
			base = ct.Delta
		}
		paper := map[float64]string{0.5: "0.00", 0.6: "-0.40", 0.8: "-1.39"}[prior]
		t.AddRow(
			fmt.Sprintf("%.1f", prior),
			fmt.Sprintf("%.2f", ct.Delta),
			fmt.Sprintf("%.2f", ct.Delta-base),
			paper,
		)
	}
	return t.Write(w)
}

func runGoodnessOfFit(w io.Writer) error {
	tab := paperdata.Table()
	// Independence only.
	indep, err := maxent.NewModel(tab.Names(), tab.Cards())
	if err != nil {
		return err
	}
	if err := indep.AddFirstOrderConstraints(tab); err != nil {
		return err
	}
	if _, err := indep.Fit(maxent.SolveOptions{}); err != nil {
		return err
	}
	fitIndep, err := core.GoodnessOfFit(tab, indep)
	if err != nil {
		return err
	}
	// Discovered.
	res, err := core.Discover(tab, core.Options{})
	if err != nil {
		return err
	}
	fitDisc, err := core.GoodnessOfFit(tab, res.Model)
	if err != nil {
		return err
	}
	t := report.NewTable("model", "G²", "X²", "df", "p-value").
		Align(report.Left, report.Right, report.Right, report.Right, report.Right)
	t.AddRow("independence (first order only)",
		fmt.Sprintf("%.1f", fitIndep.G2), fmt.Sprintf("%.1f", fitIndep.X2),
		fmt.Sprintf("%d", fitIndep.DF), fmt.Sprintf("%.2g", fitIndep.PValue))
	t.AddRow(fmt.Sprintf("discovered (+%d constraints)", len(res.Findings)),
		fmt.Sprintf("%.1f", fitDisc.G2), fmt.Sprintf("%.1f", fitDisc.X2),
		fmt.Sprintf("%d", fitDisc.DF), fmt.Sprintf("%.2g", fitDisc.PValue))
	if err := t.Write(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nIndependence is decisively rejected; the three discovered")
	fmt.Fprintln(w, "constraints render the remainder statistically indistinguishable")
	fmt.Fprintln(w, "from the data — the memo's 'succinct equation' in test form.")
	return nil
}

func runAssociations(w io.Writer) error {
	tab := paperdata.Table()
	pairs, err := assoc.Pairwise(tab)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Pairwise association survey over the memo's data — the 'clues for")
	fmt.Fprintln(w, "discovering more causal explanations' view:")
	fmt.Fprintln(w)
	fmt.Fprint(w, assoc.Render(tab.Names(), pairs))
	return nil
}

func runAppendixB(w io.Writer) error {
	// The memo's example space with its first-order a-values (Eq. 60) and
	// an AC coupling, evaluated three ways: matrix chain (the appendix's
	// notation), the general recursion, and brute force.
	cards := []int{3, 2, 2}
	aA := []float64{0.38, 0.33, 0.29}
	aB := []float64{0.13, 0.87}
	aC := []float64{0.52, 0.48}
	aAC := []float64{1, 1.2, 1, 1, 0.9, 1}
	terms := []sumprod.Term{
		{Vars: []int{0}, Coeffs: aA},
		{Vars: []int{1}, Coeffs: aB},
		{Vars: []int{2}, Coeffs: aC},
		{Vars: []int{0, 2}, Coeffs: aAC},
	}
	ev, err := sumprod.NewEvaluator(cards, terms)
	if err != nil {
		return err
	}
	recursive := ev.Sum()
	brute := 0.0
	for _, v := range ev.FullJoint() {
		brute += v
	}
	// Grouped chain in the memo's X/Σ notation: Σ_i a_i Σ_j a_j Σ_k a_k a_ik
	// (B commutes out).
	chain := 0.0
	for i := 0; i < 3; i++ {
		inner := 0.0
		for k := 0; k < 2; k++ {
			inner += aC[k] * aAC[i*2+k]
		}
		mid := 0.0
		for j := 0; j < 2; j++ {
			mid += aB[j]
		}
		chain += aA[i] * mid * inner
	}
	fmt.Fprintf(w, "1/a0 by the Appendix B recursion: %.9f\n", recursive)
	fmt.Fprintf(w, "1/a0 by the grouped matrix chain:  %.9f\n", chain)
	fmt.Fprintf(w, "1/a0 by brute-force enumeration:   %.9f\n", brute)
	if math.Abs(recursive-brute) > 1e-12 || math.Abs(chain-brute) > 1e-12 {
		return fmt.Errorf("evaluation methods disagree")
	}
	fmt.Fprintln(w, "All three agree to machine precision.")
	return nil
}
