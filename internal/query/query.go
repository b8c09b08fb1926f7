// Package query defines the unified query surface of the knowledge-base
// serving layer: the canonical Querier interface every queryable model
// implements, the first-class Query value (typed kind plus target and
// evidence assignments, JSON-serializable), and the Answer/AnswerBatch
// executors that route a Query to the right Querier method. The CLI's
// machine-readable output and the HTTP server share this package's types
// and encoder, so there is exactly one wire format.
package query

import (
	"encoding/json"
	"fmt"
	"io"

	"pka/internal/contingency"
	"pka/internal/dataset"
	"pka/internal/kb"
	"pka/internal/memo"
	"pka/internal/par"
	"pka/internal/rules"
)

// Querier is the canonical query method set of a probabilistic knowledge
// base. Both the freshly-discovered model and a loaded query-only model
// implement it through one shared core, so anything built against Querier —
// the batch executor, the HTTP server, downstream expert systems — serves
// either interchangeably.
type Querier interface {
	// Schema returns the attribute layout queries are expressed against.
	Schema() *dataset.Schema
	// Probability returns the joint probability of the assignments.
	Probability(assigns ...kb.Assignment) (float64, error)
	// Conditional returns P(target | given), the memo's ratio of joints.
	Conditional(target, given []kb.Assignment) (float64, error)
	// Distribution returns the conditional distribution of attr given the
	// evidence: one probability per value label, summing to 1.
	Distribution(attr string, given ...kb.Assignment) (map[string]float64, error)
	// MostLikely returns attr's most probable value given the evidence.
	MostLikely(attr string, given ...kb.Assignment) (string, float64, error)
	// Lift returns P(target|given)/P(target).
	Lift(target kb.Assignment, given ...kb.Assignment) (float64, error)
	// MostProbableExplanation returns the most likely full completion of
	// the evidence (MPE/MAP inference).
	MostProbableExplanation(given ...kb.Assignment) (kb.Explanation, error)
	// Rules extracts IF-THEN rules from the stored constraints.
	Rules(opts rules.Options) ([]rules.Rule, error)
	// Explain renders the stored probability formula with value labels.
	Explain() string
	// LogLoss returns the average negative log-likelihood (nats/sample)
	// on validation counts of the same shape (dense or sparse).
	LogLoss(counts contingency.Counts) (float64, error)
}

// Kind discriminates what a Query asks for.
type Kind string

// The query kinds, one per probabilistic Querier method.
const (
	KindProbability  Kind = "probability"
	KindConditional  Kind = "conditional"
	KindDistribution Kind = "distribution"
	KindMostLikely   Kind = "most_likely"
	KindLift         Kind = "lift"
	KindMPE          Kind = "mpe"
)

// Query is one probabilistic question as a value: routable, loggable,
// batchable, and JSON-serializable. Target carries the queried
// assignments (probability, conditional, lift), Attr the queried
// attribute (distribution, most_likely), and Given the evidence.
type Query struct {
	Kind   Kind            `json:"kind"`
	Target []kb.Assignment `json:"target,omitempty"`
	Attr   string          `json:"attr,omitempty"`
	Given  []kb.Assignment `json:"given,omitempty"`
}

// Validate checks the query's shape against its kind, before any model
// sees it. Attribute and value names are checked later, by the model.
func (q Query) Validate() error {
	switch q.Kind {
	case KindProbability:
		if len(q.Target) == 0 {
			return fmt.Errorf("query: %s needs at least one target assignment", q.Kind)
		}
		if len(q.Given) > 0 {
			return fmt.Errorf("query: %s takes no evidence (use %q)", q.Kind, KindConditional)
		}
	case KindConditional:
		if len(q.Target) == 0 {
			return fmt.Errorf("query: %s needs at least one target assignment", q.Kind)
		}
	case KindLift:
		if len(q.Target) != 1 {
			return fmt.Errorf("query: %s needs exactly one target assignment", q.Kind)
		}
	case KindDistribution, KindMostLikely:
		if q.Attr == "" {
			return fmt.Errorf("query: %s needs attr", q.Kind)
		}
		if len(q.Target) > 0 {
			return fmt.Errorf("query: %s queries attr, not target assignments", q.Kind)
		}
	case KindMPE:
		if len(q.Target) > 0 || q.Attr != "" {
			return fmt.Errorf("query: %s takes only evidence", q.Kind)
		}
	case "":
		return fmt.Errorf("query: missing kind")
	default:
		return fmt.Errorf("query: unknown kind %q", q.Kind)
	}
	if q.Attr != "" && (q.Kind != KindDistribution && q.Kind != KindMostLikely) {
		return fmt.Errorf("query: %s does not take attr", q.Kind)
	}
	return nil
}

// Result is the answer to one Query, in the shared wire format.
// Probability carries the numeric answer of probability, conditional,
// most_likely (the winning value's probability), and mpe (the completion's
// joint probability) queries; Lift the ratio of lift queries; Value the
// winning label of most_likely; Distribution the per-value map of
// distribution queries; Assignments the completion of mpe queries. In a
// batch, Error marks a query that failed while the rest were answered.
type Result struct {
	Kind         Kind               `json:"kind"`
	Probability  float64            `json:"probability"`
	Lift         float64            `json:"lift"`
	Value        string             `json:"value,omitempty"`
	Distribution map[string]float64 `json:"distribution,omitempty"`
	Assignments  []kb.Assignment    `json:"assignments,omitempty"`
	Error        string             `json:"error,omitempty"`
}

// MarshalJSON emits exactly the fields meaningful for the result's kind:
// probability for probability/conditional/most_likely/mpe answers, lift
// for lift answers, neither on a failed query. A zero on the wire
// therefore always means a computed zero, never an absent answer, and a
// kindless error body (a request rejected before its kind was known)
// carries only the error.
func (r Result) MarshalJSON() ([]byte, error) {
	type wire struct {
		Kind         Kind               `json:"kind,omitempty"`
		Probability  *float64           `json:"probability,omitempty"`
		Lift         *float64           `json:"lift,omitempty"`
		Value        string             `json:"value,omitempty"`
		Distribution map[string]float64 `json:"distribution,omitempty"`
		Assignments  []kb.Assignment    `json:"assignments,omitempty"`
		Error        string             `json:"error,omitempty"`
	}
	w := wire{
		Kind:         r.Kind,
		Value:        r.Value,
		Distribution: r.Distribution,
		Assignments:  r.Assignments,
		Error:        r.Error,
	}
	if r.Error == "" {
		switch r.Kind {
		case KindProbability, KindConditional, KindMostLikely, KindMPE:
			w.Probability = &r.Probability
		case KindLift:
			w.Lift = &r.Lift
		}
	}
	return json.Marshal(w)
}

// EncodeResult writes the result in the wire format shared by the HTTP
// server and the CLI's -json output: one JSON object, trailing newline.
func EncodeResult(w io.Writer, res Result) error {
	return json.NewEncoder(w).Encode(res)
}

// answerer is the probabilistic method set Answer dispatches through.
// Every Querier has it, and so does a *kb.KnowledgeBase, which
// AnswerBatch answers against directly.
type answerer interface {
	Probability(assigns ...kb.Assignment) (float64, error)
	Conditional(target, given []kb.Assignment) (float64, error)
	Distribution(attr string, given ...kb.Assignment) (map[string]float64, error)
	MostLikely(attr string, given ...kb.Assignment) (string, float64, error)
	Lift(target kb.Assignment, given ...kb.Assignment) (float64, error)
	MostProbableExplanation(given ...kb.Assignment) (kb.Explanation, error)
}

// Answer executes one query against the model. The error return carries
// validation and model failures; Result.Error stays empty on this path
// (it is filled by AnswerBatch, which must report per-query failures).
func Answer(q Querier, qu Query) (Result, error) {
	if q == nil {
		return Result{}, fmt.Errorf("query: nil querier")
	}
	return answer(q, qu)
}

func answer(q answerer, qu Query) (Result, error) {
	if err := qu.Validate(); err != nil {
		return Result{}, err
	}
	res := Result{Kind: qu.Kind}
	switch qu.Kind {
	case KindProbability:
		p, err := q.Probability(qu.Target...)
		if err != nil {
			return Result{}, err
		}
		res.Probability = p
	case KindConditional:
		p, err := q.Conditional(qu.Target, qu.Given)
		if err != nil {
			return Result{}, err
		}
		res.Probability = p
	case KindDistribution:
		d, err := q.Distribution(qu.Attr, qu.Given...)
		if err != nil {
			return Result{}, err
		}
		res.Distribution = d
	case KindMostLikely:
		v, p, err := q.MostLikely(qu.Attr, qu.Given...)
		if err != nil {
			return Result{}, err
		}
		res.Value, res.Probability = v, p
	case KindLift:
		l, err := q.Lift(qu.Target[0], qu.Given...)
		if err != nil {
			return Result{}, err
		}
		res.Lift = l
	case KindMPE:
		exp, err := q.MostProbableExplanation(qu.Given...)
		if err != nil {
			return Result{}, err
		}
		res.Assignments, res.Probability = exp.Assignments, exp.Probability
	}
	return res, nil
}

// batchAnswer is answer for a batch slot: a failure lands in Result.Error.
func batchAnswer(q answerer, qu Query) Result {
	res, err := answer(q, qu)
	if err != nil {
		return Result{Kind: qu.Kind, Error: err.Error()}
	}
	return res
}

// kbProvider is the seam AnswerBatch keys on: queriers backed by a
// compiled knowledge base expose its current snapshot.
type kbProvider interface {
	KnowledgeBase() *kb.KnowledgeBase
}

// AnswerBatch executes a group of queries against the model. Every result
// is bit-identical to the per-query Answer result. One failed query does
// not sink the batch: its slot carries Result.Error and the rest are
// answered; the error return is reserved for a nil querier.
//
// A querier backed by a compiled knowledge base is read once, so the whole
// batch answers from one snapshot even while updates swap the model. The
// queries fan out over GOMAXPROCS workers, and work they share (evidence
// denominators, conditional-slice sweeps, MPE passes) is priced once
// through the knowledge base's engine memo: the model's own when it has
// one, otherwise a memo that lives for this batch. Other Querier
// implementations are answered one query at a time, in order.
//
// The fan-out stays because it pays on batches that miss the memo: on a
// 2-CPU host, BenchmarkAnswerBatchParallel (128 queries, a fresh memo per
// batch) took 0.90 ms/op at -cpu 2 against 1.47 ms/op for an in-order
// loop, medians of 10 alternating runs each, the fan-out faster in 9 of
// 10; at -cpu 1 the two were level (1.36 against 1.35 ms/op). Batches
// served mostly from a warm memo gain nothing from it: serve_dense_zipf's
// batch_p50_ms was 0.52 ms fanned out against 0.45 ms at one worker
// (CHANGES.md).
func AnswerBatch(q Querier, queries []Query) ([]Result, error) {
	if q == nil {
		return nil, fmt.Errorf("query: nil querier")
	}
	out := make([]Result, len(queries))
	var kbase *kb.KnowledgeBase
	if p, ok := q.(kbProvider); ok {
		kbase = p.KnowledgeBase()
	}
	if kbase == nil {
		for i, qu := range queries {
			out[i] = batchAnswer(q, qu)
		}
		return out, nil
	}
	if kbase.Cache() == nil {
		kbase = kbase.WithCache(memo.New(-1), 0)
	}
	_ = par.Do(len(queries), 0, func(i int) error {
		out[i] = batchAnswer(kbase, queries[i])
		return nil // per-query failures land in their Result slot
	})
	return out, nil
}
