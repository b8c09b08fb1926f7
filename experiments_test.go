// Experiments X4-X7: the paper-extension claims, checked with fixed seeds
// and bounds. X4 compares the MML significance test against the two
// criteria it displaces, the per-cell chi-square residual and BIC; X5
// checks recovery of planted structure; X6 and X7 compare the discovered
// model with the empirical and independence joints on compactness and on
// held-out loss.
//
// The comparison criteria and joints are defined here, not in the library:
// they are independent references for the experiments, not part of the
// discovery procedure. The MML model's held-out loss is scored by the
// compiled engine's LogLoss, the one walk the library ships; only the
// comparison joints below keep a dense joint walk (jointLogLoss).
package pka

import (
	"fmt"
	"math"
	"testing"

	"pka/internal/contingency"
	"pka/internal/core"
	"pka/internal/dataset"
	"pka/internal/maxent"
	"pka/internal/paperdata"
	"pka/internal/stats"
	"pka/internal/synth"
)

// zCrit05 is the two-sided standard-normal critical value at α = 0.05:
// z² is the upper 5% point of χ²(1).
const zCrit05 = 1.959963984540054

// pick records one constraint promoted by an alternative criterion.
type pick struct {
	Family contingency.VarSet
	Values []int
	Score  float64 // criterion-specific: |z| for chi-square, ΔG²-lnN for BIC
	Order  int
}

// criterion scores a candidate cell; promote reports whether the best score
// clears the acceptance bar.
type criterion struct {
	name    string
	score   func(observed int64, n int64, predicted float64) float64
	promote func(best float64) bool
}

// discoverChiSq runs the level-wise selection loop with the classical
// standardized-residual criterion: a cell is promotable when its |z| =
// |obs - Np| / sqrt(Np(1-p)) exceeds the two-sided normal critical value at
// significance level 0.05 (zCrit05).
func discoverChiSq(t *contingency.Table, maxOrder int) (*maxent.Model, []pick, error) {
	c := criterion{
		name: "chisq",
		score: func(obs, n int64, p float64) float64 {
			b := stats.Binomial{N: n, P: p}
			sd := b.SD()
			if sd == 0 {
				return 0
			}
			return math.Abs(b.ZScore(obs))
		},
		promote: func(best float64) bool { return best > zCrit05 },
	}
	return discoverWith(t, maxOrder, c)
}

// discoverBIC runs the same loop with a penalized-likelihood criterion: a
// cell is promotable when its single-cell deviance contribution
// 2N·[q ln(q/p) + (1-q) ln((1-q)/(1-p))] (q = obs/N) exceeds ln N — the BIC
// cost of the one extra parameter the constraint introduces.
func discoverBIC(t *contingency.Table, maxOrder int) (*maxent.Model, []pick, error) {
	c := criterion{
		name: "bic",
		score: func(obs, n int64, p float64) float64 {
			q := float64(obs) / float64(n)
			dev := 0.0
			if q > 0 {
				if p <= 0 {
					return math.Inf(1)
				}
				dev += q * math.Log(q/p)
			}
			if q < 1 {
				if p >= 1 {
					return math.Inf(1)
				}
				dev += (1 - q) * math.Log((1-q)/(1-p))
			}
			return 2*float64(n)*dev - math.Log(float64(n))
		},
		promote: func(best float64) bool { return best > 0 },
	}
	return discoverWith(t, maxOrder, c)
}

// discoverWith is the shared level-wise loop: scan, promote best, refit,
// repeat per order. It mirrors core.Discover's control flow with the MML
// test swapped out, so criterion comparisons isolate exactly that choice.
func discoverWith(t *contingency.Table, maxOrder int, c criterion) (*maxent.Model, []pick, error) {
	if t.Total() == 0 {
		return nil, nil, fmt.Errorf("%s: empty table", c.name)
	}
	if maxOrder == 0 {
		maxOrder = t.R()
	}
	if maxOrder < 2 || maxOrder > t.R() {
		return nil, nil, fmt.Errorf("%s: maxOrder %d outside [2,%d]", c.name, maxOrder, t.R())
	}
	model, err := maxent.NewModel(t.Names(), t.Cards())
	if err != nil {
		return nil, nil, err
	}
	if err := model.AddFirstOrderConstraints(t); err != nil {
		return nil, nil, err
	}
	solve := maxent.SolveOptions{Tol: math.Max(1e-9, 0.01/float64(t.Total()))}
	if _, err := model.Fit(solve); err != nil {
		return nil, nil, err
	}
	var picks []pick
	n := t.Total()
	for order := 2; order <= maxOrder; order++ {
		for {
			bestScore := math.Inf(-1)
			var bestFam contingency.VarSet
			var bestValues []int
			var bestObs int64
			for _, fam := range contingency.Combinations(t.R(), order) {
				members := fam.Members()
				values := make([]int, len(members))
				for {
					if !model.HasConstraint(fam, values) {
						obs, err := t.MarginalCount(fam, values)
						if err != nil {
							return nil, nil, err
						}
						pred, err := model.Prob(fam, values)
						if err != nil {
							return nil, nil, err
						}
						if s := c.score(obs, n, pred); s > bestScore {
							bestScore = s
							bestFam = fam
							bestValues = append([]int(nil), values...)
							bestObs = obs
						}
					}
					i := len(members) - 1
					for i >= 0 {
						values[i]++
						if values[i] < t.Card(members[i]) {
							break
						}
						values[i] = 0
						i--
					}
					if i < 0 {
						break
					}
				}
			}
			if math.IsInf(bestScore, -1) || !c.promote(bestScore) {
				break
			}
			con := maxent.Constraint{
				Family: bestFam,
				Values: bestValues,
				Target: float64(bestObs) / float64(n),
			}
			if err := model.AddConstraint(con); err != nil {
				return nil, nil, err
			}
			rep, err := model.Fit(solve)
			if err != nil {
				return nil, nil, fmt.Errorf("%s refit: %w", c.name, err)
			}
			if !rep.Converged {
				return nil, nil, fmt.Errorf("%s refit did not converge (residual %g)",
					c.name, rep.Residual)
			}
			picks = append(picks, pick{
				Family: bestFam,
				Values: bestValues,
				Score:  bestScore,
				Order:  order,
			})
		}
	}
	return model, picks, nil
}

// jointView is the uniform scoring view over the compared models: the
// normalized row-major joint and the number of free parameters the model
// stores — the compactness axis of experiment X6.
type jointView struct {
	joint  []float64
	params int
}

// empiricalJoint is the full relative-frequency joint with additive
// (Laplace) smoothing alpha >= 0 per cell; alpha 0 keeps raw frequencies.
func empiricalJoint(t *contingency.Table, alpha float64) (jointView, error) {
	if alpha < 0 {
		return jointView{}, fmt.Errorf("negative smoothing %g", alpha)
	}
	n := float64(t.Total())
	cells := t.NumCells()
	denom := n + alpha*float64(cells)
	if denom <= 0 {
		return jointView{}, fmt.Errorf("empty table and no smoothing")
	}
	joint := make([]float64, cells)
	for i, c := range t.Counts() {
		joint[i] = (float64(c) + alpha) / denom
	}
	return jointView{joint: joint, params: cells - 1}, nil
}

// independenceJoint is the product-of-marginals model (the memo's Eq. 62),
// built from the table's first-order marginals.
func independenceJoint(t *contingency.Table) (jointView, error) {
	if t.Total() == 0 {
		return jointView{}, fmt.Errorf("empty table")
	}
	first, err := t.FirstOrderProbabilities()
	if err != nil {
		return jointView{}, err
	}
	cards := t.Cards()
	joint := make([]float64, t.NumCells())
	cell := make([]int, len(cards))
	for off := range joint {
		rem := off
		for i := len(cards) - 1; i >= 0; i-- {
			cell[i] = rem % cards[i]
			rem /= cards[i]
		}
		p := 1.0
		for i, v := range cell {
			p *= first[i][v]
		}
		joint[off] = p
	}
	params := 0
	for _, c := range cards {
		params += c - 1
	}
	return jointView{joint: joint, params: params}, nil
}

// maxentJoint views a fitted maxent model: its materialized joint and one
// parameter per constraint.
func maxentJoint(m *maxent.Model) (jointView, error) {
	joint, err := m.Joint()
	if err != nil {
		return jointView{}, err
	}
	return jointView{joint: joint, params: m.NumConstraints()}, nil
}

// jointLogLoss returns the average negative log-likelihood (nats per
// sample) of held-out data under a materialized joint. Cells the joint
// assigns zero probability while the test data occupies them yield +Inf;
// smoothing is the caller's choice.
func jointLogLoss(joint []float64, test *contingency.Table) (float64, error) {
	if test.Total() == 0 {
		return 0, fmt.Errorf("empty held-out table")
	}
	if len(joint) != test.NumCells() {
		return 0, fmt.Errorf("model has %d cells, held-out table %d",
			len(joint), test.NumCells())
	}
	var loss float64
	for i, c := range test.Counts() {
		if c == 0 {
			continue
		}
		p := joint[i]
		if p <= 0 {
			return math.Inf(1), nil
		}
		loss -= float64(c) * math.Log(p)
	}
	return loss / float64(test.Total()), nil
}

// mKLToTruth is the KL divergence from the truth's joint to a model's, in
// thousandths of a nat.
func mKLToTruth(t *testing.T, truth, joint []float64) float64 {
	t.Helper()
	kl, err := stats.KLDivergence(truth, joint)
	if err != nil {
		t.Fatal(err)
	}
	return kl * 1000
}

func TestCriticalValueIsFivePercent(t *testing.T) {
	if sf := stats.ChiSquareSF(zCrit05*zCrit05, 1); math.Abs(sf-0.05) > 1e-12 {
		t.Errorf("P(χ²(1) > %g²) = %.12f, want 0.05", zCrit05, sf)
	}
}

func TestEmpiricalMatchesFrequencies(t *testing.T) {
	tab := paperdata.Table()
	e, err := empiricalJoint(tab, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.joint[0]; math.Abs(got-130.0/3428) > 1e-12 {
		t.Errorf("cell 0 = %g, want %g", got, 130.0/3428)
	}
	if e.params != 11 {
		t.Errorf("parameters = %d, want cells-1 = 11", e.params)
	}
}

func TestEmpiricalSmoothing(t *testing.T) {
	tab := contingency.MustNew(nil, []int{2, 2})
	tab.Set(10, 0, 0) // three empty cells
	e, err := empiricalJoint(tab, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e.joint[3] == 0 {
		t.Error("smoothing left a zero cell")
	}
	sum := 0.0
	for _, p := range e.joint {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("smoothed joint sums to %g", sum)
	}
	if _, err := empiricalJoint(tab, -1); err == nil {
		t.Error("negative smoothing accepted")
	}
	empty := contingency.MustNew(nil, []int{2})
	if _, err := empiricalJoint(empty, 0); err == nil {
		t.Error("empty unsmoothed table accepted")
	}
}

func TestIndependenceModel(t *testing.T) {
	tab := paperdata.Table()
	ind, err := independenceJoint(tab)
	if err != nil {
		t.Fatal(err)
	}
	// Cell (0,0,0): pA1·pB1·pC1.
	want := (1290.0 / 3428) * (433.0 / 3428) * (1780.0 / 3428)
	if math.Abs(ind.joint[0]-want) > 1e-12 {
		t.Errorf("cell 0 = %g, want %g", ind.joint[0], want)
	}
	// Parameters: (3-1)+(2-1)+(2-1) = 4.
	if ind.params != 4 {
		t.Errorf("parameters = %d, want 4", ind.params)
	}
	empty := contingency.MustNew(nil, []int{2, 2})
	if _, err := independenceJoint(empty); err == nil {
		t.Error("empty table accepted")
	}
}

func TestModelOrderingOnMemoData(t *testing.T) {
	// Fidelity ordering: discovered maxent beats independence in KL to the
	// empirical distribution; compactness ordering: the discovered model
	// adds constraints on top of first order.
	tab := paperdata.Table()
	emp, _ := tab.Probabilities()
	res, err := core.Discover(tab, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	discovered, err := maxentJoint(res.Model)
	if err != nil {
		t.Fatal(err)
	}
	ind, err := independenceJoint(tab)
	if err != nil {
		t.Fatal(err)
	}
	klD, _ := stats.KLDivergence(emp, discovered.joint)
	klI, _ := stats.KLDivergence(emp, ind.joint)
	if klD >= klI {
		t.Errorf("discovered KL %.6f not below independence KL %.6f", klD, klI)
	}
	if !(ind.params < discovered.params) {
		t.Errorf("parameter ordering broken: ind %d, mml %d", ind.params, discovered.params)
	}
}

func TestDiscoverChiSqFindsMemoStructure(t *testing.T) {
	tab := paperdata.Table()
	model, picks, err := discoverChiSq(tab, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(picks) == 0 {
		t.Fatal("chi-square found nothing on the memo data")
	}
	// The first pick is the largest |z|: N^AB_11 at 6.03 beats N^AC_12
	// at 5.75.
	first := picks[0]
	if first.Family != contingency.NewVarSet(0, 1) || first.Values[0] != 0 || first.Values[1] != 0 {
		t.Errorf("first chi-square pick = %v%v, want N^AB_11", first.Family, first.Values)
	}
	if model.NumConstraints() <= 7 {
		t.Errorf("constraints = %d; chi-square should have promoted cells", model.NumConstraints())
	}
}

func TestDiscoverBICFindsMemoStructure(t *testing.T) {
	tab := paperdata.Table()
	_, picks, err := discoverBIC(tab, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(picks) == 0 {
		t.Fatal("BIC found nothing on the memo data")
	}
	first := picks[0]
	if first.Family != contingency.NewVarSet(0, 1) || first.Values[0] != 0 || first.Values[1] != 0 {
		t.Errorf("first BIC pick = %v%v, want N^AB_11", first.Family, first.Values)
	}
}

// TestMaxentModelAdapter checks the model view the criterion comparisons
// score: picks carry their order and a positive score, and the view counts
// one parameter per constraint over a normalized joint.
func TestMaxentModelAdapter(t *testing.T) {
	tab := paperdata.Table()
	m, picks, err := discoverBIC(tab, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range picks {
		if p.Order != 2 {
			t.Errorf("pick at order %d", p.Order)
		}
		if p.Score <= 0 {
			t.Errorf("pick score %g", p.Score)
		}
	}
	view, err := maxentJoint(m)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range view.joint {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("joint sums to %g", sum)
	}
	if view.params != m.NumConstraints() {
		t.Error("parameter count wrong")
	}
}

func TestDiscoverCriteriaValidation(t *testing.T) {
	empty := contingency.MustNew(nil, []int{2, 2})
	if _, _, err := discoverChiSq(empty, 2); err == nil {
		t.Error("chi-square on empty table accepted")
	}
	if _, _, err := discoverBIC(empty, 2); err == nil {
		t.Error("BIC on empty table accepted")
	}
	tab := paperdata.Table()
	if _, _, err := discoverChiSq(tab, 1); err == nil {
		t.Error("maxOrder=1 accepted")
	}
	if _, _, err := discoverBIC(tab, 9); err == nil {
		t.Error("maxOrder above R accepted")
	}
}

func TestDiscoverBICDefaultsMaxOrder(t *testing.T) {
	m, _, err := discoverBIC(paperdata.Table(), 0) // 0 means full order
	if err != nil {
		t.Fatal(err)
	}
	if m.NumConstraints() < 7 {
		t.Errorf("constraints = %d", m.NumConstraints())
	}
}

func TestChiSqZeroSDCellsHandled(t *testing.T) {
	// A degenerate attribute (all mass on one value) yields sd = 0 for
	// some candidate cells; the criterion must score them 0, not NaN.
	tab := contingency.MustNew(nil, []int{2, 2})
	tab.Set(60, 0, 0)
	tab.Set(40, 0, 1)
	_, picks, err := discoverChiSq(tab, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range picks {
		if math.IsNaN(p.Score) {
			t.Errorf("NaN score in %v", p)
		}
	}
}

func TestCriteriaRecoverPlantedStructure(t *testing.T) {
	// Every criterion finds the planted coupling at high N; the point of
	// the ablation is their differing false-positive behaviour.
	g, err := synth.Survey(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := g.SampleTable(stats.NewRNG(23), 30000)
	if err != nil {
		t.Fatal(err)
	}
	for name, discover := range map[string]func(*contingency.Table, int) (*maxent.Model, []pick, error){
		"chisq": discoverChiSq,
		"bic":   discoverBIC,
	} {
		_, picks, err := discover(tab, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(picks) == 0 {
			t.Errorf("%s found nothing despite planted coupling", name)
		}
	}
}

func TestHeldOutLogLossBasics(t *testing.T) {
	tab := paperdata.Table()
	emp, err := empiricalJoint(tab, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Scoring the training data itself: loss equals the empirical entropy.
	loss, err := jointLogLoss(emp.joint, tab)
	if err != nil {
		t.Fatal(err)
	}
	probs, _ := tab.Probabilities()
	if want := stats.Entropy(probs); math.Abs(loss-want) > 1e-12 {
		t.Errorf("self log-loss %.6f != empirical entropy %.6f", loss, want)
	}
	empty := contingency.MustNew(nil, []int{3, 2, 2})
	if _, err := jointLogLoss(emp.joint, empty); err == nil {
		t.Error("empty held-out table accepted")
	}
	wrong := contingency.MustNew(nil, []int{2, 2})
	wrong.Set(5, 0, 0)
	if _, err := jointLogLoss(emp.joint, wrong); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestHeldOutZeroSupportIsInf(t *testing.T) {
	train := contingency.MustNew(nil, []int{2, 2})
	train.Set(10, 0, 0)
	train.Set(10, 1, 1)
	emp, err := empiricalJoint(train, 0)
	if err != nil {
		t.Fatal(err)
	}
	test := contingency.MustNew(nil, []int{2, 2})
	test.Set(1, 0, 1) // unseen cell
	loss, err := jointLogLoss(emp.joint, test)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(loss, 1) {
		t.Errorf("unseen-cell loss = %g, want +Inf", loss)
	}
}

// TestAblationCriterion (X4): on null data (4 independent uniform
// attributes × 3 values, 50,000 samples) MML and BIC accept no cell, while
// the uncorrected per-cell chi-square test, run at α = 0.05 over many
// cells, promotes at least one spurious cell.
func TestAblationCriterion(t *testing.T) {
	truth, err := synth.IndependentUniform(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := truth.SampleTable(stats.NewRNG(31), 50_000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Discover(tab, core.Options{MaxOrder: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, chiPicks, err := discoverChiSq(tab, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, bicPicks, err := discoverBIC(tab, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 0 || len(bicPicks) != 0 {
		t.Errorf("false positives on null data: MML %d, BIC %d, want 0 and 0",
			len(res.Findings), len(bicPicks))
	}
	if len(chiPicks) < 1 {
		t.Errorf("chi-square promoted %d cells on null data, want at least 1", len(chiPicks))
	}
}

// TestRecoveryPlanted (X5): on the survey workload (4 binary factors and a
// three-valued outcome on a planted chain of 4 pairwise couplings, strength
// 2.5, 40,000 samples) order-2 discovery recovers 3 of the planted families
// with no spurious finding and lands within 0.2 mKL of the truth.
func TestRecoveryPlanted(t *testing.T) {
	truth, err := synth.Survey(4, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := truth.SampleTable(stats.NewRNG(37), 40_000)
	if err != nil {
		t.Fatal(err)
	}
	planted := map[contingency.VarSet]bool{}
	for _, fam := range truth.Planted() {
		planted[fam] = true
	}
	res, err := core.Discover(tab, core.Options{MaxOrder: 2})
	if err != nil {
		t.Fatal(err)
	}
	hit := map[contingency.VarSet]bool{}
	spurious := 0
	for _, f := range res.Findings {
		if planted[f.Test.Family] {
			hit[f.Test.Family] = true
		} else {
			spurious++
		}
	}
	if len(hit) != 3 || spurious != 0 {
		t.Errorf("recovered %d planted families with %d spurious findings, want 3 and 0",
			len(hit), spurious)
	}
	fitted, err := res.Model.Joint()
	if err != nil {
		t.Fatal(err)
	}
	if mkl := mKLToTruth(t, truth.Joint(), fitted); mkl >= 0.2 {
		t.Errorf("mKL to truth = %.4f, want < 0.2", mkl)
	}
}

// TestCompactness (X6): on the telemetry workload (60,000 samples) the
// discovered model stores 19 parameters and lands within 0.2 mKL of the
// truth, closer than the 80-parameter smoothed empirical joint and far
// closer than the independence model.
func TestCompactness(t *testing.T) {
	truth, err := synth.Telemetry()
	if err != nil {
		t.Fatal(err)
	}
	tab, err := truth.SampleTable(stats.NewRNG(41), 60_000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Discover(tab, core.Options{MaxOrder: 2})
	if err != nil {
		t.Fatal(err)
	}
	mml, err := maxentJoint(res.Model)
	if err != nil {
		t.Fatal(err)
	}
	emp, err := empiricalJoint(tab, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ind, err := independenceJoint(tab)
	if err != nil {
		t.Fatal(err)
	}
	klMML := mKLToTruth(t, truth.Joint(), mml.joint)
	klEmp := mKLToTruth(t, truth.Joint(), emp.joint)
	klInd := mKLToTruth(t, truth.Joint(), ind.joint)
	if mml.params != 19 || emp.params != 80 {
		t.Errorf("parameters: MML %d, empirical %d, want 19 and 80", mml.params, emp.params)
	}
	if klMML >= 0.2 || klMML >= klEmp {
		t.Errorf("mKL to truth: MML %.4f, empirical %.4f; want MML below 0.2 and below empirical",
			klMML, klEmp)
	}
	if klInd < 100*klMML {
		t.Errorf("mKL to truth: independence %.4f not far above MML %.4f", klInd, klMML)
	}
}

// TestGeneralizationHeldOut (X7): on a 50/50 split of a modest telemetry
// sample (4,000 samples over 81 cells) the discovered model's held-out
// loss, scored by the compiled engine, is about 3.305 nats/sample and at
// most the Laplace-smoothed empirical joint's; the unsmoothed empirical
// joint memorizes sampling zeros and scores +Inf.
func TestGeneralizationHeldOut(t *testing.T) {
	truth, err := synth.Telemetry()
	if err != nil {
		t.Fatal(err)
	}
	full, err := truth.SampleTable(stats.NewRNG(71), 4000)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(72)
	train, test, err := dataset.TrainTestSplit(full, 0.5, rng.Float64)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Discover(train, core.Options{MaxOrder: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := res.Model.Compile()
	if err != nil {
		t.Fatal(err)
	}
	lossMML, err := eng.LogLoss(test)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := empiricalJoint(train, 0)
	if err != nil {
		t.Fatal(err)
	}
	laplace, err := empiricalJoint(train, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	lossRaw, err := jointLogLoss(raw.joint, test)
	if err != nil {
		t.Fatal(err)
	}
	lossLaplace, err := jointLogLoss(laplace.joint, test)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lossMML-3.305) > 5e-4 || lossMML > lossLaplace {
		t.Errorf("held-out loss: MML %.4f, Laplace empirical %.4f; want MML ≈ 3.305 and at most Laplace",
			lossMML, lossLaplace)
	}
	if !math.IsInf(lossRaw, 1) {
		t.Errorf("held-out loss of the raw empirical joint = %.4f, want +Inf", lossRaw)
	}
}
