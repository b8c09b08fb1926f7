// Benchmarks timing every table and figure of the memo (one bench per
// experiment) plus the extension experiments X1, X2, X4-X7 and X10. There
// is no X3 solver ablation: Fit runs only the memo's Gauss–Seidel
// procedure. The quality results of X4-X7 (false positives, recovered
// structure, KL to truth, parameter counts, held-out loss) are asserted by
// the tests in experiments_test.go, so their benchmarks only time the
// discovery. The other benchmarks attach counts (findings, sweeps, chosen
// order) with b.ReportMetric.
package pka_test

import (
	"fmt"
	"testing"

	"pka"
	"pka/internal/contingency"
	"pka/internal/core"
	"pka/internal/crossval"
	"pka/internal/dataset"
	"pka/internal/maxent"
	"pka/internal/mml"
	"pka/internal/paperdata"
	"pka/internal/stats"
	"pka/internal/sumprod"
	"pka/internal/synth"
)

// ---------------------------------------------------------------- Figures

// BenchmarkFigure1_Tabulate measures the Appendix A pipeline: 3428 raw
// records into the Figure 1 contingency table.
func BenchmarkFigure1_Tabulate(b *testing.B) {
	d := paperdata.Records()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Tabulate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2_Marginals measures all Figure 2 marginalizations
// (three second-order + three first-order sums).
func BenchmarkFigure2_Marginals(b *testing.B) {
	tab := paperdata.Table()
	keeps := []contingency.VarSet{
		contingency.NewVarSet(0, 1), contingency.NewVarSet(0, 2), contingency.NewVarSet(1, 2),
		contingency.NewVarSet(0), contingency.NewVarSet(1), contingency.NewVarSet(2),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range keeps {
			if _, err := tab.Marginalize(k); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable1_SignificanceScan measures one full 16-cell second-order
// MML scan with independence predictions — the memo's Table 1.
func BenchmarkTable1_SignificanceScan(b *testing.B) {
	tab := paperdata.Table()
	first, err := tab.FirstOrderProbabilities()
	if err != nil {
		b.Fatal(err)
	}
	predict := func(fam contingency.VarSet, values []int) (float64, error) {
		p := 1.0
		for i, pos := range fam.Members() {
			p *= first[pos][values[i]]
		}
		return p, nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tester, err := mml.NewTester(tab, mml.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		tests, err := tester.ScanOrder(2, mml.PerCell(tab.Cards(), predict))
		if err != nil {
			b.Fatal(err)
		}
		if len(tests) != 16 {
			b.Fatalf("scan produced %d tests", len(tests))
		}
	}
}

// BenchmarkTable2_IterativeScaling measures the memo's Table 2: fitting the
// first-order model plus the N^AC_12 constraint at the memo's 2-decimal
// precision, cold start each iteration.
func BenchmarkTable2_IterativeScaling(b *testing.B) {
	tab := paperdata.Table()
	fam, values, target := paperdata.Table2Constraint()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := maxent.NewModel(tab.Names(), tab.Cards())
		if err != nil {
			b.Fatal(err)
		}
		if err := m.AddFirstOrderConstraints(tab); err != nil {
			b.Fatal(err)
		}
		if err := m.AddConstraint(maxent.Constraint{Family: fam, Values: values, Target: target}); err != nil {
			b.Fatal(err)
		}
		rep, err := m.Fit(maxent.SolveOptions{Tol: 1e-3})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Converged {
			b.Fatal("did not converge")
		}
		if i == 0 {
			b.ReportMetric(float64(rep.Sweeps), "sweeps")
		}
	}
}

// BenchmarkFigure3_FullDiscovery measures the complete procedure on the
// memo's data: scans, selections, refits, orders 2 and 3.
func BenchmarkFigure3_FullDiscovery(b *testing.B) {
	tab := paperdata.Table()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Discover(tab, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(res.Findings)), "findings")
		}
	}
}

// BenchmarkFigure4_Refit measures one warm refit after adding a constraint —
// the memo's "starting with the last previously calculated a values".
func BenchmarkFigure4_Refit(b *testing.B) {
	tab := paperdata.Table()
	base, err := maxent.NewModel(tab.Names(), tab.Cards())
	if err != nil {
		b.Fatal(err)
	}
	if err := base.AddFirstOrderConstraints(tab); err != nil {
		b.Fatal(err)
	}
	if _, err := base.Fit(maxent.SolveOptions{}); err != nil {
		b.Fatal(err)
	}
	fam, values, target := paperdata.Table2Constraint()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := base.Clone()
		if err := m.AddConstraint(maxent.Constraint{Family: fam, Values: values, Target: target}); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := m.Fit(maxent.SolveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5_RecordIngest measures building the 3428-record raw
// dataset (Figure 5's original data form).
func BenchmarkFigure5_RecordIngest(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := paperdata.Records()
		if d.Len() != paperdata.TotalN {
			b.Fatal("wrong record count")
		}
	}
}

// BenchmarkFigure6_Triples measures the triples-form conversion and
// summation (Figure 6): per-record tuple view plus cell sums.
func BenchmarkFigure6_Triples(b *testing.B) {
	d := paperdata.Records()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := d.Tabulate()
		if err != nil {
			b.Fatal(err)
		}
		if tab.Total() != paperdata.TotalN {
			b.Fatal("bad total")
		}
	}
}

// BenchmarkPriorSweep measures the p(H2') sensitivity experiment (the
// memo's Eq. 63 note: priors 0.5 / 0.6 / 0.8).
func BenchmarkPriorSweep(b *testing.B) {
	tab := paperdata.Table()
	first, err := tab.FirstOrderProbabilities()
	if err != nil {
		b.Fatal(err)
	}
	fam := contingency.NewVarSet(0, 1)
	cell := []int{0, 1}
	p := first[0][0] * first[1][1]
	priors := []float64{0.5, 0.6, 0.8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, prior := range priors {
			tester, err := mml.NewTester(tab, mml.Config{PriorH2: prior})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := tester.Test(fam, cell, p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAppendixB_SumProducts compares the Appendix B recursion against
// brute-force joint enumeration on a 6-attribute space, reproducing the
// appendix's point that grouped summation is the cheaper evaluation.
func BenchmarkAppendixB_SumProducts(b *testing.B) {
	cards := []int{4, 4, 4, 4, 4, 4} // 4096 cells
	rng := stats.NewRNG(9)
	mk := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = 0.5 + rng.Float64()
		}
		return out
	}
	terms := []sumprod.Term{
		{Vars: []int{0}, Coeffs: mk(4)},
		{Vars: []int{1}, Coeffs: mk(4)},
		{Vars: []int{2}, Coeffs: mk(4)},
		{Vars: []int{3}, Coeffs: mk(4)},
		{Vars: []int{4}, Coeffs: mk(4)},
		{Vars: []int{5}, Coeffs: mk(4)},
		{Vars: []int{0, 1}, Coeffs: mk(16)},
		{Vars: []int{2, 3}, Coeffs: mk(16)},
		{Vars: []int{4, 5}, Coeffs: mk(16)},
	}
	ev, err := sumprod.NewEvaluator(cards, terms)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("recursion", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = ev.Sum()
		}
	})
	b.Run("bruteforce", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			total := 0.0
			for _, v := range ev.FullJoint() {
				total += v
			}
			_ = total
		}
	})
}

// ------------------------------------------------------------- Extensions

// BenchmarkScaling_N (X1): discovery cost versus sample count on a fixed
// 3-attribute space. The table is sampled once per size outside the loop.
func BenchmarkScaling_N(b *testing.B) {
	truth, err := synth.SmokingCancer()
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int64{1_000, 10_000, 100_000, 1_000_000} {
		tab, err := truth.SampleTable(stats.NewRNG(n), n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := core.Discover(tab, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(len(res.Findings)), "findings")
				}
			}
		})
	}
}

// BenchmarkScaling_Attributes (X2): discovery cost versus attribute count
// (binary attributes, one planted coupling chain), order-2 scan.
func BenchmarkScaling_Attributes(b *testing.B) {
	for _, r := range []int{3, 4, 6, 8, 10} {
		truth, err := synth.Survey(r-1, 2)
		if err != nil {
			b.Fatal(err)
		}
		tab, err := truth.SampleTable(stats.NewRNG(int64(r)), 50_000)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("R=%d", r), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := core.Discover(tab, core.Options{MaxOrder: 2})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(len(res.Findings)), "findings")
				}
			}
		})
	}
}

// BenchmarkAblation_Criterion (X4): MML discovery on null data (no
// structure, 4 attributes × 3 values). TestAblationCriterion checks its
// false-positive count against the chi-square and BIC criteria.
func BenchmarkAblation_Criterion(b *testing.B) {
	truth, err := synth.IndependentUniform(4, 3)
	if err != nil {
		b.Fatal(err)
	}
	tab, err := truth.SampleTable(stats.NewRNG(31), 50_000)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Discover(tab, core.Options{MaxOrder: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecovery_Planted (X5): discovery on the survey workload.
// TestRecoveryPlanted checks the recovered structure and its KL to truth.
func BenchmarkRecovery_Planted(b *testing.B) {
	truth, err := synth.Survey(4, 2.5)
	if err != nil {
		b.Fatal(err)
	}
	tab, err := truth.SampleTable(stats.NewRNG(37), 40_000)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Discover(tab, core.Options{MaxOrder: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompactness (X6): discovery on the telemetry workload.
// TestCompactness checks the model's parameters and fidelity against the
// empirical and independence joints.
func BenchmarkCompactness(b *testing.B) {
	truth, err := synth.Telemetry()
	if err != nil {
		b.Fatal(err)
	}
	tab, err := truth.SampleTable(stats.NewRNG(41), 60_000)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Discover(tab, core.Options{MaxOrder: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGeneralization_HeldOut (X7): discovery on the training half of a
// 50/50 split of a modest telemetry sample, then its held-out log loss
// through the compiled engine. TestGeneralizationHeldOut checks the loss
// against the empirical joints.
func BenchmarkGeneralization_HeldOut(b *testing.B) {
	truth, err := synth.Telemetry()
	if err != nil {
		b.Fatal(err)
	}
	full, err := truth.SampleTable(stats.NewRNG(71), 4000)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(72)
	train, test, err := dataset.TrainTestSplit(full, 0.5, rng.Float64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Discover(train, core.Options{MaxOrder: 2})
		if err != nil {
			b.Fatal(err)
		}
		eng, err := res.Model.Compile()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.LogLoss(test); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOrderSelection_CV (X10): cross-validated MaxOrder selection on
// third-order (XOR) data — the chosen order and the loss gap between
// orders 2 and 3 are the headline metrics.
func BenchmarkOrderSelection_CV(b *testing.B) {
	truth, err := synth.XOR3(3)
	if err != nil {
		b.Fatal(err)
	}
	tab, err := truth.SampleTable(stats.NewRNG(17), 20_000)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scores, best, err := crossval.SelectMaxOrder(
			tab, 3, 4, stats.NewRNG(18), core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(scores[best].MaxOrder), "chosen_order")
			b.ReportMetric(scores[0].MeanLoss-scores[1].MeanLoss, "loss_gap_nats")
		}
	}
}

// BenchmarkWideSchema_DiscoverSparse measures the wide-schema acquisition
// path end to end: 24 binary channels (dense space 16.7M cells — never
// allocated) tabulated sparsely, pairwise-screened, and discovered through
// the factored engine.
func BenchmarkWideSchema_DiscoverSparse(b *testing.B) {
	const r = 24
	attrs := make([]pka.Attribute, r)
	for i := range attrs {
		attrs[i] = pka.Attribute{
			Name:   fmt.Sprintf("CH%02d", i),
			Values: []string{"lo", "hi"},
		}
	}
	schema, err := pka.NewSchema(attrs)
	if err != nil {
		b.Fatal(err)
	}
	sparse, err := pka.NewSparseTable(schema)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(77)
	cell := make([]int, r)
	for s := 0; s < 20_000; s++ {
		for i := range cell {
			cell[i] = rng.Intn(2)
		}
		if rng.Float64() < 0.85 {
			cell[13] = cell[5]
		}
		if err := sparse.Observe(cell...); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model, err := pka.DiscoverSparse(sparse, schema, pka.Options{
			MaxOrder:    2,
			ScreenPairs: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(model.Screen().PairsKept), "pairs_kept")
			b.ReportMetric(float64(len(model.Findings())), "findings")
		}
	}
}

// ------------------------------------------------- Streaming ingest (PR 4)

// streamBenchRows draws correlated wide-schema rows for the incremental-
// refit benchmark.
func streamBenchRows(rng *stats.RNG, r, n int) []pka.Record {
	rows := make([]pka.Record, n)
	for s := range rows {
		cell := make(pka.Record, r)
		for i := range cell {
			cell[i] = rng.Intn(2)
		}
		if rng.Float64() < 0.85 {
			cell[13] = cell[5]
		}
		rows[s] = cell
	}
	return rows
}

// BenchmarkIncrementalRefit compares folding a 1%-of-N delta batch into a
// discovered model via Model.Update (in-place projection-cache updates,
// retarget + warm per-block refit, restricted re-scan) against the only
// pre-PR option: a full DiscoverSparse re-run over the grown data bank.
// UpdateWide80 folds 50-row batches into an 80-attribute bank, the schema
// width at which the pair screen reads the pair-count ledger instead of
// per-pair projections.
func BenchmarkIncrementalRefit(b *testing.B) {
	const r = 24
	const baseN = 20_000
	const deltaN = baseN / 100
	attrs := make([]pka.Attribute, r)
	for i := range attrs {
		attrs[i] = pka.Attribute{
			Name:   fmt.Sprintf("CH%02d", i),
			Values: []string{"lo", "hi"},
		}
	}
	schema, err := pka.NewSchema(attrs)
	if err != nil {
		b.Fatal(err)
	}
	opts := pka.Options{MaxOrder: 2, ScreenPairs: true}
	base := streamBenchRows(stats.NewRNG(77), r, baseN)
	tabulate := func(rows []pka.Record) *pka.SparseTable {
		sparse, err := pka.NewSparseTable(schema)
		if err != nil {
			b.Fatal(err)
		}
		cells := make([][]int, len(rows))
		for i, row := range rows {
			cells[i] = row
		}
		if err := sparse.ObserveBatch(cells); err != nil {
			b.Fatal(err)
		}
		return sparse
	}

	b.Run("Update", func(b *testing.B) {
		model, err := pka.DiscoverSparse(tabulate(base), schema, opts)
		if err != nil {
			b.Fatal(err)
		}
		rng := stats.NewRNG(78)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			delta := streamBenchRows(rng, r, deltaN)
			b.StartTimer()
			rep, err := model.Update(delta)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(rep.Retargeted), "retargeted")
				b.ReportMetric(float64(rep.Sweeps), "sweeps")
			}
		}
	})

	b.Run("FullRediscover", func(b *testing.B) {
		// The data bank grows by one delta per iteration, exactly like the
		// Update sub-benchmark's table, so the two workloads stay
		// comparable at any iteration count.
		rng := stats.NewRNG(78)
		all := append([]pka.Record(nil), base...)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			all = append(all, streamBenchRows(rng, r, deltaN)...)
			grown := tabulate(all)
			b.StartTimer()
			if _, err := pka.DiscoverSparse(grown, schema, opts); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("UpdateWide80", func(b *testing.B) {
		truth, err := synth.WidePairs(40, 3)
		if err != nil {
			b.Fatal(err)
		}
		bank, err := truth.SampleSparse(stats.NewRNG(77), 8000)
		if err != nil {
			b.Fatal(err)
		}
		model, err := pka.DiscoverSparse(bank, truth.Schema(), opts)
		if err != nil {
			b.Fatal(err)
		}
		rng := stats.NewRNG(78)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			batch, err := truth.SampleDataset(rng, 50)
			if err != nil {
				b.Fatal(err)
			}
			delta := make([]pka.Record, batch.Len())
			for k := range delta {
				delta[k] = batch.Record(k)
			}
			b.StartTimer()
			if _, err := model.Update(delta); err != nil {
				b.Fatal(err)
			}
		}
	})
}
