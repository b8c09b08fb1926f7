package query

import (
	"encoding/json"
	"math/rand"
	"sync/atomic"
	"testing"

	"pka/internal/kb"
	"pka/internal/memo"
)

// mixedBatch builds a workload spanning every query kind, several
// distinct evidence sets (including re-orderings of the same set), and
// deliberately failing queries.
func mixedBatch() []Query {
	smoker := []kb.Assignment{{Attr: "SMOKING", Value: "Smoker"}}
	non := []kb.Assignment{{Attr: "SMOKING", Value: "Non smoker"}}
	both := []kb.Assignment{{Attr: "SMOKING", Value: "Smoker"}, {Attr: "FAMILY HISTORY", Value: "Yes"}}
	bothRev := []kb.Assignment{{Attr: "FAMILY HISTORY", Value: "Yes"}, {Attr: "SMOKING", Value: "Smoker"}}
	cancerYes := []kb.Assignment{{Attr: "CANCER", Value: "Yes"}}
	cancerNo := []kb.Assignment{{Attr: "CANCER", Value: "No"}}
	var out []Query
	for i := 0; i < 4; i++ {
		out = append(out,
			Query{Kind: KindProbability, Target: cancerYes},
			Query{Kind: KindConditional, Target: cancerYes, Given: smoker},
			Query{Kind: KindConditional, Target: cancerNo, Given: smoker},
			Query{Kind: KindConditional, Target: cancerYes, Given: non},
			Query{Kind: KindConditional, Target: cancerYes, Given: both},
			Query{Kind: KindConditional, Target: cancerYes, Given: bothRev},
			Query{Kind: KindDistribution, Attr: "CANCER", Given: smoker},
			Query{Kind: KindDistribution, Attr: "SMOKING"},
			Query{Kind: KindMostLikely, Attr: "CANCER", Given: both},
			Query{Kind: KindLift, Target: cancerYes, Given: smoker},
			Query{Kind: KindMPE, Given: smoker},
			Query{Kind: KindMPE, Given: non},
			// Failures: unknown attribute, unknown value, invalid shape.
			Query{Kind: KindConditional, Target: []kb.Assignment{{Attr: "NOPE", Value: "x"}}, Given: smoker},
			Query{Kind: KindProbability, Target: []kb.Assignment{{Attr: "CANCER", Value: "Maybe"}}},
			Query{Kind: KindDistribution},
		)
	}
	return out
}

// wireBytes marshals every result exactly as the server and CLI would.
func wireBytes(t *testing.T, results []Result) []string {
	t.Helper()
	out := make([]string, len(results))
	for i, r := range results {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	return out
}

// assertPerQueryWire demands that each batch slot's wire encoding equals
// what per-query Answer on m gives for the same query.
func assertPerQueryWire(t *testing.T, m Querier, queries []Query, got []Result) {
	t.Helper()
	if len(got) != len(queries) {
		t.Fatalf("%d results for %d queries", len(got), len(queries))
	}
	gotWire := wireBytes(t, got)
	for i, qu := range queries {
		res, err := Answer(m, qu)
		if err != nil {
			res = Result{Kind: qu.Kind, Error: err.Error()}
		}
		b, merr := json.Marshal(res)
		if merr != nil {
			t.Fatal(merr)
		}
		if string(b) != gotWire[i] {
			t.Fatalf("slot %d: batch %s != per-query %s", i, gotWire[i], b)
		}
	}
}

// TestAnswerBatchParallelBitIdentical executes the mixed workload — and
// seeded shuffles of it — as a batch, whose queries fan out over the
// workers, and demands wire encodings byte-identical to per-query Answer,
// slot for slot.
func TestAnswerBatchParallelBitIdentical(t *testing.T) {
	m := memoModel(t)
	base := mixedBatch()
	for _, shuffleSeed := range []int64{0, 9, 41} {
		queries := base
		if shuffleSeed != 0 {
			queries = append([]Query(nil), base...)
			rand.New(rand.NewSource(shuffleSeed)).Shuffle(len(queries), func(i, j int) {
				queries[i], queries[j] = queries[j], queries[i]
			})
		}
		got, err := AnswerBatch(m, queries)
		if err != nil {
			t.Fatal(err)
		}
		assertPerQueryWire(t, m, queries, got)
	}
}

// TestAnswerBatchWorkersPlainQuerier: implementations without a knowledge
// base are answered one query at a time, matching per-query Answer.
func TestAnswerBatchWorkersPlainQuerier(t *testing.T) {
	m := memoModel(t)
	queries := mixedBatch()
	got, err := AnswerBatch(plainQuerier{m}, queries)
	if err != nil {
		t.Fatal(err)
	}
	assertPerQueryWire(t, m, queries, got)
}

// TestAnswerBatchWorkersEmpty keeps the degenerate shapes stable.
func TestAnswerBatchWorkersEmpty(t *testing.T) {
	m := memoModel(t)
	for _, querier := range []Querier{m, plainQuerier{m}} {
		out, err := AnswerBatch(querier, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 0 {
			t.Fatalf("%d results for empty batch", len(out))
		}
	}
	if _, err := AnswerBatch(nil, mixedBatch()); err == nil {
		t.Fatal("nil querier accepted")
	}
}

// countingQuerier records how a batch reaches the model: snapshots taken
// through KnowledgeBase, and calls to the querier's own query methods.
type countingQuerier struct {
	*memoQuerier
	snapshots, direct atomic.Int64
}

func (c *countingQuerier) KnowledgeBase() *kb.KnowledgeBase {
	c.snapshots.Add(1)
	return c.memoQuerier.KnowledgeBase()
}
func (c *countingQuerier) Probability(assigns ...kb.Assignment) (float64, error) {
	c.direct.Add(1)
	return c.memoQuerier.Probability(assigns...)
}
func (c *countingQuerier) Conditional(target, given []kb.Assignment) (float64, error) {
	c.direct.Add(1)
	return c.memoQuerier.Conditional(target, given)
}
func (c *countingQuerier) Distribution(attr string, given ...kb.Assignment) (map[string]float64, error) {
	c.direct.Add(1)
	return c.memoQuerier.Distribution(attr, given...)
}
func (c *countingQuerier) MostLikely(attr string, given ...kb.Assignment) (string, float64, error) {
	c.direct.Add(1)
	return c.memoQuerier.MostLikely(attr, given...)
}
func (c *countingQuerier) Lift(target kb.Assignment, given ...kb.Assignment) (float64, error) {
	c.direct.Add(1)
	return c.memoQuerier.Lift(target, given...)
}
func (c *countingQuerier) MostProbableExplanation(given ...kb.Assignment) (kb.Explanation, error) {
	c.direct.Add(1)
	return c.memoQuerier.MostProbableExplanation(given...)
}

// TestAnswerBatchOneSnapshot: a batch reads the querier's knowledge base
// exactly once and answers every query from that snapshot, never through
// the querier's own query methods (which, on a streaming model, could each
// see a different version). A snapshot that carries an engine memo is the
// one the batch prices its shared work through.
func TestAnswerBatchOneSnapshot(t *testing.T) {
	m := memoModel(t)
	cache := memo.New(1 << 20)
	for name, inner := range map[string]*memoQuerier{
		"no-memo":  m,
		"own-memo": {k: m.k.WithCache(cache, 0)},
	} {
		c := &countingQuerier{memoQuerier: inner}
		queries := mixedBatch()
		got, err := AnswerBatch(c, queries)
		if err != nil {
			t.Fatal(err)
		}
		if n := c.snapshots.Load(); n != 1 {
			t.Errorf("%s: KnowledgeBase called %d times per batch, want 1", name, n)
		}
		if n := c.direct.Load(); n != 0 {
			t.Errorf("%s: %d queries answered through the querier's own methods, want 0", name, n)
		}
		assertPerQueryWire(t, m, queries, got)
	}
	// mixedBatch repeats its queries, so the model's memo must have served
	// hits, not merely recorded misses.
	if st := cache.Stats(); st.Hits == 0 || st.Entries == 0 {
		t.Errorf("model memo unused by the batch: %+v", st)
	}
}
