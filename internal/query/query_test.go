package query

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pka/internal/contingency"
	"pka/internal/core"
	"pka/internal/dataset"
	"pka/internal/kb"
	"pka/internal/rules"
)

func TestValidate(t *testing.T) {
	target := []kb.Assignment{{Attr: "CANCER", Value: "Yes"}}
	given := []kb.Assignment{{Attr: "SMOKING", Value: "Smoker"}}
	valid := []Query{
		{Kind: KindProbability, Target: target},
		{Kind: KindConditional, Target: target},
		{Kind: KindConditional, Target: target, Given: given},
		{Kind: KindDistribution, Attr: "CANCER"},
		{Kind: KindMostLikely, Attr: "CANCER", Given: given},
		{Kind: KindLift, Target: target, Given: given},
		{Kind: KindMPE},
		{Kind: KindMPE, Given: given},
	}
	for _, q := range valid {
		if err := q.Validate(); err != nil {
			t.Errorf("valid %+v rejected: %v", q, err)
		}
	}
	invalid := []Query{
		{},
		{Kind: "bogus"},
		{Kind: KindProbability},
		{Kind: KindProbability, Target: target, Given: given},
		{Kind: KindConditional},
		{Kind: KindConditional, Target: target, Attr: "CANCER"},
		{Kind: KindDistribution},
		{Kind: KindDistribution, Attr: "CANCER", Target: target},
		{Kind: KindMostLikely},
		{Kind: KindLift},
		{Kind: KindLift, Target: append(target, given...)},
		{Kind: KindMPE, Target: target},
		{Kind: KindMPE, Attr: "CANCER"},
	}
	for _, q := range invalid {
		if err := q.Validate(); err == nil {
			t.Errorf("invalid %+v accepted", q)
		}
	}
}

// wireFixtures is the frozen wire format: one Query/Result pair per kind.
// Changing the encoding of any of these is a breaking protocol change and
// must fail TestWireFormatGolden.
func wireFixtures() ([]Query, []Result) {
	queries := []Query{
		{Kind: KindProbability, Target: []kb.Assignment{{Attr: "CANCER", Value: "Yes"}}},
		{Kind: KindConditional,
			Target: []kb.Assignment{{Attr: "CANCER", Value: "Yes"}},
			Given:  []kb.Assignment{{Attr: "SMOKING", Value: "Smoker"}, {Attr: "FAMILY HISTORY", Value: "Yes"}}},
		{Kind: KindDistribution, Attr: "CANCER", Given: []kb.Assignment{{Attr: "SMOKING", Value: "Smoker"}}},
		{Kind: KindMostLikely, Attr: "CANCER"},
		{Kind: KindLift,
			Target: []kb.Assignment{{Attr: "CANCER", Value: "Yes"}},
			Given:  []kb.Assignment{{Attr: "SMOKING", Value: "Smoker"}}},
		{Kind: KindMPE, Given: []kb.Assignment{{Attr: "SMOKING", Value: "Smoker"}}},
	}
	results := []Result{
		{Kind: KindProbability, Probability: 0.126313},
		{Kind: KindConditional, Probability: 0.240741},
		{Kind: KindDistribution, Distribution: map[string]float64{"Yes": 0.186047, "No": 0.813953}},
		{Kind: KindMostLikely, Value: "No", Probability: 0.873687},
		{Kind: KindLift, Lift: 1.473},
		{Kind: KindMPE, Probability: 0.186629, Assignments: []kb.Assignment{
			{Attr: "SMOKING", Value: "Smoker"},
			{Attr: "CANCER", Value: "No"},
			{Attr: "FAMILY HISTORY", Value: "No"}}},
		// A computed zero is encoded ("probability":0), never dropped —
		// clients must be able to tell it from an absent answer.
		{Kind: KindConditional, Probability: 0},
		{Kind: KindLift, Lift: 0},
		// Failed queries carry kind + error and no numeric answer; a
		// request rejected before its kind was known carries error only.
		{Kind: KindConditional, Error: `kb: attribute "CANCER" has no value "Maybe"`},
		{Error: "server: decoding request: unexpected EOF"},
	}
	return queries, results
}

// TestWireFormatGolden pins the JSON wire format byte for byte against
// testdata/wire.golden and round-trips every fixture through decode.
func TestWireFormatGolden(t *testing.T) {
	queries, results := wireFixtures()
	var buf bytes.Buffer
	buf.WriteString("# queries\n")
	for _, q := range queries {
		data, err := json.Marshal(q)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(data)
		buf.WriteByte('\n')
	}
	buf.WriteString("# results\n")
	for _, r := range results {
		if err := EncodeResult(&buf, r); err != nil {
			t.Fatal(err)
		}
	}
	golden := filepath.Join("testdata", "wire.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("wire format drifted from %s.\ngot:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
	// Round trip: decode every line back and compare structurally.
	for _, q := range queries {
		data, _ := json.Marshal(q)
		var back Query
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("decode query: %v", err)
		}
		if !queryEqual(q, back) {
			t.Errorf("query round trip: %+v != %+v", back, q)
		}
	}
	for _, r := range results {
		data, _ := json.Marshal(r)
		var back Result
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("decode result: %v", err)
		}
		if !resultEqual(r, back) {
			t.Errorf("result round trip: %+v != %+v", back, r)
		}
	}
}

func queryEqual(a, b Query) bool {
	if a.Kind != b.Kind || a.Attr != b.Attr ||
		len(a.Target) != len(b.Target) || len(a.Given) != len(b.Given) {
		return false
	}
	for i := range a.Target {
		if a.Target[i] != b.Target[i] {
			return false
		}
	}
	for i := range a.Given {
		if a.Given[i] != b.Given[i] {
			return false
		}
	}
	return true
}

func resultEqual(a, b Result) bool {
	if a.Kind != b.Kind || a.Probability != b.Probability || a.Lift != b.Lift ||
		a.Value != b.Value || a.Error != b.Error ||
		len(a.Distribution) != len(b.Distribution) || len(a.Assignments) != len(b.Assignments) {
		return false
	}
	for k, v := range a.Distribution {
		if b.Distribution[k] != v {
			return false
		}
	}
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			return false
		}
	}
	return true
}

// memoQuerier is a minimal Querier over the memo model, standing in for
// the public package's shared core (which cannot be imported from here).
type memoQuerier struct {
	k *kb.KnowledgeBase
}

func (m *memoQuerier) Schema() *dataset.Schema { return m.k.Schema() }
func (m *memoQuerier) Probability(assigns ...kb.Assignment) (float64, error) {
	return m.k.Probability(assigns...)
}
func (m *memoQuerier) Conditional(target, given []kb.Assignment) (float64, error) {
	return m.k.Conditional(target, given)
}
func (m *memoQuerier) Distribution(attr string, given ...kb.Assignment) (map[string]float64, error) {
	return m.k.Distribution(attr, given...)
}
func (m *memoQuerier) MostLikely(attr string, given ...kb.Assignment) (string, float64, error) {
	return m.k.MostLikely(attr, given...)
}
func (m *memoQuerier) Lift(target kb.Assignment, given ...kb.Assignment) (float64, error) {
	return m.k.Lift(target, given...)
}
func (m *memoQuerier) MostProbableExplanation(given ...kb.Assignment) (kb.Explanation, error) {
	return m.k.MostProbableExplanation(given...)
}
func (m *memoQuerier) Rules(opts rules.Options) ([]rules.Rule, error) {
	return rules.FromKnowledgeBase(m.k, opts)
}
func (m *memoQuerier) Explain() string { return m.k.Explain() }
func (m *memoQuerier) LogLoss(counts contingency.Counts) (float64, error) {
	return m.k.LogLoss(counts)
}
func (m *memoQuerier) KnowledgeBase() *kb.KnowledgeBase { return m.k }

// plainQuerier hides the knowledge base, forcing AnswerBatch's per-query
// fallback for external Querier implementations.
type plainQuerier struct{ *memoQuerier }

func (p plainQuerier) KnowledgeBase() {} // shadows the provider method with a non-matching shape

func memoModel(t testing.TB) *memoQuerier {
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
	schema := dataset.MustSchema([]dataset.Attribute{
		{Name: "SMOKING", Values: []string{"Smoker", "Non smoker", "Non smoker married to a smoker"}},
		{Name: "CANCER", Values: []string{"Yes", "No"}},
		{Name: "FAMILY HISTORY", Values: []string{"Yes", "No"}},
	})
	res, err := core.Discover(tab, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	k, err := kb.New(schema, res.Model)
	if err != nil {
		t.Fatal(err)
	}
	return &memoQuerier{k: k}
}

// TestAnswerDispatch: every kind routes to the matching Querier method.
func TestAnswerDispatch(t *testing.T) {
	m := memoModel(t)
	target := []kb.Assignment{{Attr: "CANCER", Value: "Yes"}}
	given := []kb.Assignment{{Attr: "SMOKING", Value: "Smoker"}}

	res, err := Answer(m, Query{Kind: KindProbability, Target: target})
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := m.Probability(target...); res.Probability != want {
		t.Errorf("probability = %x, want %x", res.Probability, want)
	}
	res, err = Answer(m, Query{Kind: KindConditional, Target: target, Given: given})
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := m.Conditional(target, given); res.Probability != want {
		t.Errorf("conditional = %x, want %x", res.Probability, want)
	}
	res, err = Answer(m, Query{Kind: KindDistribution, Attr: "CANCER", Given: given})
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := m.Distribution("CANCER", given...); res.Distribution["Yes"] != want["Yes"] {
		t.Errorf("distribution = %v, want %v", res.Distribution, want)
	}
	res, err = Answer(m, Query{Kind: KindMostLikely, Attr: "CANCER", Given: given})
	if err != nil {
		t.Fatal(err)
	}
	if v, p, _ := m.MostLikely("CANCER", given...); res.Value != v || res.Probability != p {
		t.Errorf("most_likely = %s/%x, want %s/%x", res.Value, res.Probability, v, p)
	}
	res, err = Answer(m, Query{Kind: KindLift, Target: target, Given: given})
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := m.Lift(target[0], given...); res.Lift != want {
		t.Errorf("lift = %x, want %x", res.Lift, want)
	}
	res, err = Answer(m, Query{Kind: KindMPE, Given: given})
	if err != nil {
		t.Fatal(err)
	}
	if exp, _ := m.MostProbableExplanation(given...); res.Probability != exp.Probability {
		t.Errorf("mpe = %x, want %x", res.Probability, exp.Probability)
	}
	if _, err := Answer(nil, Query{Kind: KindMPE}); err == nil {
		t.Error("nil querier accepted")
	}
	if _, err := Answer(m, Query{Kind: "bogus"}); err == nil {
		t.Error("invalid query accepted")
	}
}

// TestAnswerBatchMatchesAnswer: batch execution is bit-identical to
// per-query Answer both through the knowledge base and through the generic
// fallback, and failed queries surface per-slot, with the same message,
// without sinking the batch.
func TestAnswerBatchMatchesAnswer(t *testing.T) {
	m := memoModel(t)
	queries := []Query{
		{Kind: KindProbability, Target: []kb.Assignment{{Attr: "CANCER", Value: "Yes"}}},
		{Kind: KindConditional,
			Target: []kb.Assignment{{Attr: "CANCER", Value: "Yes"}},
			Given:  []kb.Assignment{{Attr: "SMOKING", Value: "Smoker"}}},
		{Kind: KindConditional,
			Target: []kb.Assignment{{Attr: "CANCER", Value: "No"}},
			Given:  []kb.Assignment{{Attr: "SMOKING", Value: "Smoker"}}},
		{Kind: KindConditional,
			Target: []kb.Assignment{{Attr: "CANCER", Value: "Maybe"}},
			Given:  []kb.Assignment{{Attr: "SMOKING", Value: "Smoker"}}},
		{Kind: KindDistribution, Attr: "FAMILY HISTORY",
			Given: []kb.Assignment{{Attr: "SMOKING", Value: "Smoker"}}},
		{Kind: KindLift,
			Target: []kb.Assignment{{Attr: "CANCER", Value: "Yes"}},
			Given:  []kb.Assignment{{Attr: "SMOKING", Value: "Smoker"}}},
		{Kind: KindMPE, Given: []kb.Assignment{{Attr: "SMOKING", Value: "Smoker"}}},
		{Kind: "bogus"},
		// Model failures, whose messages must match per-query Answer's.
		{Kind: KindConditional, // unknown evidence attribute
			Target: []kb.Assignment{{Attr: "CANCER", Value: "Yes"}},
			Given:  []kb.Assignment{{Attr: "NOPE", Value: "x"}}},
		{Kind: KindConditional, // unknown target value, no evidence
			Target: []kb.Assignment{{Attr: "CANCER", Value: "Maybe"}}},
		{Kind: KindProbability, // contradictory assignments
			Target: []kb.Assignment{{Attr: "CANCER", Value: "Yes"}, {Attr: "CANCER", Value: "No"}}},
		{Kind: KindDistribution, Attr: "CANCER", // self-conditioning
			Given: []kb.Assignment{{Attr: "CANCER", Value: "Yes"}}},
		{Kind: KindDistribution, Attr: "NOPE"}, // unknown distribution attribute
	}
	for name, querier := range map[string]Querier{"knowledge-base": m, "generic-fallback": plainQuerier{m}} {
		got, err := AnswerBatch(querier, queries)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(queries) {
			t.Fatalf("%s: %d results for %d queries", name, len(got), len(queries))
		}
		for i, qu := range queries {
			want, werr := Answer(m, qu)
			if werr != nil {
				if got[i].Error != werr.Error() {
					t.Errorf("%s: query %d error = %q, want %q", name, i, got[i].Error, werr)
				}
				continue
			}
			if got[i].Error != "" {
				t.Errorf("%s: query %d unexpectedly failed: %s", name, i, got[i].Error)
				continue
			}
			if !resultEqual(got[i], want) {
				t.Errorf("%s: query %d = %+v, want %+v", name, i, got[i], want)
			}
		}
	}
	if _, err := AnswerBatch(nil, queries); err == nil {
		t.Error("nil querier accepted")
	}
}

// TestEncodeResultNewlineDelimited: the shared encoder emits exactly one
// line per result, so CLI and server output stream identically.
func TestEncodeResultNewlineDelimited(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeResult(&buf, Result{Kind: KindProbability, Probability: 0.5}); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.HasSuffix(s, "}\n") || strings.Count(s, "\n") != 1 {
		t.Errorf("encoder output not newline-delimited JSON: %q", s)
	}
}
