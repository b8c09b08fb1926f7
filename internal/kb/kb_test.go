package kb

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"pka/internal/contingency"
	"pka/internal/core"
	"pka/internal/dataset"
	"pka/internal/maxent"
	"pka/internal/memo"
)

// memoSchema mirrors the memo's questionnaire.
func memoSchema(t testing.TB) *dataset.Schema {
	t.Helper()
	return dataset.MustSchema([]dataset.Attribute{
		{Name: "SMOKING", Values: []string{"Smoker", "Non smoker", "Non smoker married to a smoker"}},
		{Name: "CANCER", Values: []string{"Yes", "No"}},
		{Name: "FAMILY HISTORY", Values: []string{"Yes", "No"}},
	})
}

// memoKB runs full discovery on the memo data and wraps it in a KB.
func memoKB(t testing.TB) *KnowledgeBase {
	t.Helper()
	tab := contingency.MustNew(
		[]string{"SMOKING", "CANCER", "FAMILY HISTORY"}, []int{3, 2, 2})
	data := [3][2][2]int64{
		{{130, 110}, {410, 640}},
		{{62, 31}, {580, 460}},
		{{78, 22}, {520, 385}},
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			for k := 0; k < 2; k++ {
				if err := tab.Set(data[i][j][k], i, j, k); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	res, err := core.Discover(tab, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	k, err := New(memoSchema(t), res.Model)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestNewValidation(t *testing.T) {
	schema := memoSchema(t)
	if _, err := New(nil, nil); err == nil {
		t.Error("nil inputs accepted")
	}
	m, _ := maxent.NewModel(nil, []int{3, 2})
	if _, err := New(schema, m); err == nil {
		t.Error("arity mismatch accepted")
	}
	m2, _ := maxent.NewModel(nil, []int{3, 2, 3})
	if _, err := New(schema, m2); err == nil {
		t.Error("cardinality mismatch accepted")
	}
}

func TestProbabilityMatchesEmpiricalMarginals(t *testing.T) {
	k := memoKB(t)
	// First-order marginals are constraints, so they are exact.
	cases := []struct {
		a    Assignment
		want float64
	}{
		{Assignment{"SMOKING", "Smoker"}, 1290.0 / 3428},
		{Assignment{"CANCER", "Yes"}, 433.0 / 3428},
		{Assignment{"FAMILY HISTORY", "No"}, 1648.0 / 3428},
	}
	for _, c := range cases {
		got, err := k.Probability(c.a)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-5 {
			t.Errorf("P(%v) = %.6f, want %.6f", c.a, got, c.want)
		}
	}
	// Empty query is certain.
	if p, err := k.Probability(); err != nil || p != 1 {
		t.Errorf("P() = %g, %v", p, err)
	}
}

func TestProbabilityErrors(t *testing.T) {
	k := memoKB(t)
	if _, err := k.Probability(Assignment{"NOPE", "x"}); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := k.Probability(Assignment{"CANCER", "Maybe"}); err == nil {
		t.Error("unknown value accepted")
	}
	if _, err := k.Probability(
		Assignment{"CANCER", "Yes"}, Assignment{"CANCER", "No"}); err == nil {
		t.Error("contradictory assignments accepted")
	}
	// Repeated consistent assignment is fine.
	if _, err := k.Probability(
		Assignment{"CANCER", "Yes"}, Assignment{"CANCER", "Yes"}); err != nil {
		t.Errorf("consistent duplicate rejected: %v", err)
	}
}

func TestConditionalIsRatioOfJoints(t *testing.T) {
	k := memoKB(t)
	target := []Assignment{{"CANCER", "Yes"}}
	given := []Assignment{{"SMOKING", "Smoker"}, {"FAMILY HISTORY", "Yes"}}
	cond, err := k.Conditional(target, given)
	if err != nil {
		t.Fatal(err)
	}
	num, err := k.Probability(append(append([]Assignment{}, target...), given...)...)
	if err != nil {
		t.Fatal(err)
	}
	den, err := k.Probability(given...)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cond-num/den) > 1e-12 {
		t.Errorf("conditional %.9f != ratio %.9f", cond, num/den)
	}
	// Empty target is certain.
	if p, err := k.Conditional(nil, given); err != nil || p != 1 {
		t.Errorf("P(∅|...) = %g, %v", p, err)
	}
}

func TestMemoHeadlineQuery(t *testing.T) {
	// The memo's motivating relationship: smoking raises cancer risk.
	// Empirically P(cancer|smoker) = 240/1290 = .186 vs base rate
	// 433/3428 = .126. The discovered model must capture it because
	// N^AB_11 is the most significant constraint.
	k := memoKB(t)
	cond, err := k.Conditional(
		[]Assignment{{"CANCER", "Yes"}},
		[]Assignment{{"SMOKING", "Smoker"}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cond-240.0/1290) > 5e-4 {
		t.Errorf("P(cancer|smoker) = %.4f, empirical %.4f", cond, 240.0/1290)
	}
	lift, err := k.Lift(Assignment{"CANCER", "Yes"}, Assignment{"SMOKING", "Smoker"})
	if err != nil {
		t.Fatal(err)
	}
	if lift < 1.3 || lift > 1.6 {
		t.Errorf("lift = %.3f, want ≈1.47", lift)
	}
}

func TestDistributionSumsToOne(t *testing.T) {
	k := memoKB(t)
	dist, err := k.Distribution("SMOKING", Assignment{"CANCER", "Yes"})
	if err != nil {
		t.Fatal(err)
	}
	if len(dist) != 3 {
		t.Fatalf("distribution has %d entries", len(dist))
	}
	sum := 0.0
	for _, p := range dist {
		if p < 0 {
			t.Errorf("negative conditional %g", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("distribution sums to %g", sum)
	}
	if _, err := k.Distribution("CANCER", Assignment{"CANCER", "Yes"}); err == nil {
		t.Error("conditioning on self accepted")
	}
	if _, err := k.Distribution("NOPE"); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestMostLikely(t *testing.T) {
	k := memoKB(t)
	v, p, err := k.MostLikely("CANCER", Assignment{"SMOKING", "Smoker"})
	if err != nil {
		t.Fatal(err)
	}
	if v != "No" {
		t.Errorf("most likely cancer status for a smoker = %q (p=%.3f), want No", v, p)
	}
	if p < 0.5 {
		t.Errorf("winner probability %.3f suspiciously low", p)
	}
	if _, _, err := k.MostLikely("NOPE"); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestConditionalZeroEvidence(t *testing.T) {
	// Build a KB whose model has a structural zero, then condition on it.
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
	// P(X=a, Y=b) is structurally zero.
	if _, err := k.Conditional(
		[]Assignment{{"Y", "a"}},
		[]Assignment{{"X", "a"}, {"Y", "b"}}); err == nil {
		t.Error("conditioning on zero-probability evidence accepted")
	}
}

func TestChainRuleProperty(t *testing.T) {
	// P(a,b) = P(a|b)·P(b) for random assignment pairs.
	k := memoKB(t)
	f := func(ai, vi, bi, wi uint8) bool {
		a := k.Schema().Attr(int(ai) % 3)
		b := k.Schema().Attr(int(bi) % 3)
		if a.Name == b.Name {
			return true
		}
		x := Assignment{a.Name, a.Values[int(vi)%a.Card()]}
		y := Assignment{b.Name, b.Values[int(wi)%b.Card()]}
		pxy, err := k.Probability(x, y)
		if err != nil {
			return false
		}
		py, err := k.Probability(y)
		if err != nil {
			return false
		}
		if py == 0 {
			return true
		}
		cond, err := k.Conditional([]Assignment{x}, []Assignment{y})
		if err != nil {
			return false
		}
		return math.Abs(pxy-cond*py) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProbabilityOrderIndependentProperty(t *testing.T) {
	// P(a, b) == P(b, a): assignment order must not matter.
	k := memoKB(t)
	f := func(ai, vi, bi, wi uint8) bool {
		a := k.Schema().Attr(int(ai) % 3)
		b := k.Schema().Attr(int(bi) % 3)
		x := Assignment{a.Name, a.Values[int(vi)%a.Card()]}
		y := Assignment{b.Name, b.Values[int(wi)%b.Card()]}
		if a.Name == b.Name && x.Value != y.Value {
			return true // contradictory; both orders must error equally
		}
		p1, err1 := k.Probability(x, y)
		p2, err2 := k.Probability(y, x)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		return err1 != nil || p1 == p2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExplainMentionsLabels(t *testing.T) {
	k := memoKB(t)
	e := k.Explain()
	for _, want := range []string{"SMOKING=Smoker", "CANCER", "a0", "constraints"} {
		if !strings.Contains(e, want) {
			t.Errorf("Explain missing %q:\n%s", want, e)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	k := memoKB(t)
	var buf bytes.Buffer
	if err := k.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Identical query answers.
	queries := [][]Assignment{
		{{Attr: "CANCER", Value: "Yes"}},
		{{Attr: "SMOKING", Value: "Smoker"}, {Attr: "CANCER", Value: "Yes"}},
		{{Attr: "SMOKING", Value: "Non smoker"}, {Attr: "FAMILY HISTORY", Value: "No"}},
	}
	for _, q := range queries {
		want, err := k.Probability(q...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.Probability(q...)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("query %v: %.12f after reload, want %.12f", q, got, want)
		}
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	cases := []string{
		`{"version":99,"attributes":[],"model":{}}`,
		`{"version":1,"attributes":[{"name":"","values":["x"]}],"model":{}}`,
		`{"version":1,"attributes":[{"name":"A","values":["x","y"]}],"model":{"names":["A"],"cards":[3],"a0":1}}`,
		`not json`,
	}
	for _, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Errorf("corrupt KB accepted: %s", c)
		}
	}
}

// TestBatchErrorParity: validation failures must match the per-query
// messages exactly, so batch serving is indistinguishable to clients.
// Batches answer through a cache-armed view of the knowledge base, so
// each failing query runs on the plain KB and, twice, on a cached view:
// a miss must not change the message, and an error must not be memoized
// into a different one.
func TestBatchErrorParity(t *testing.T) {
	k := memoKB(t)
	cached := k.WithCache(memo.New(-1), 0)
	cases := []struct {
		name string
		run  func(*KnowledgeBase) error
	}{
		{"unknown evidence attr", func(k *KnowledgeBase) error {
			_, err := k.Conditional([]Assignment{{Attr: "CANCER", Value: "Yes"}}, []Assignment{{Attr: "NOPE", Value: "x"}})
			return err
		}},
		{"unknown target value", func(k *KnowledgeBase) error {
			_, err := k.Conditional([]Assignment{{Attr: "CANCER", Value: "Maybe"}}, nil)
			return err
		}},
		{"contradictory evidence", func(k *KnowledgeBase) error {
			_, err := k.Probability(Assignment{Attr: "CANCER", Value: "Yes"}, Assignment{Attr: "CANCER", Value: "No"})
			return err
		}},
		{"self-conditioning", func(k *KnowledgeBase) error {
			_, err := k.Distribution("CANCER", Assignment{Attr: "CANCER", Value: "Yes"})
			return err
		}},
		{"unknown distribution attr", func(k *KnowledgeBase) error {
			_, err := k.Distribution("NOPE")
			return err
		}},
	}
	for _, tc := range cases {
		perErr := tc.run(k)
		if perErr == nil {
			t.Fatalf("%s: expected an error from the plain KB", tc.name)
		}
		for pass := 0; pass < 2; pass++ {
			batErr := tc.run(cached)
			if batErr == nil {
				t.Fatalf("%s (pass %d): expected an error from the cached KB", tc.name, pass)
			}
			if perErr.Error() != batErr.Error() {
				t.Errorf("%s (pass %d): per-query %q, cached %q", tc.name, pass, perErr, batErr)
			}
		}
	}
}
