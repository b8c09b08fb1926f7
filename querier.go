package pka

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sync/atomic"

	"pka/internal/contingency"
	"pka/internal/kb"
	"pka/internal/memo"
	"pka/internal/query"
	"pka/internal/rules"
	"pka/internal/server"
)

// Querier is the canonical query surface of a probabilistic knowledge
// base: every joint, marginal, and conditional question the memo's
// acquired model answers, as one interface. Both Model (fresh from
// Discover) and QueryModel (loaded from a saved file) satisfy it through
// one shared implementation, so batch execution (AnswerBatch), the HTTP
// server (NewServer), and downstream expert systems serve either
// interchangeably.
type Querier = query.Querier

// Query is one probabilistic question as a first-class value: a typed kind
// plus target/evidence assignments, JSON-serializable for routing,
// logging, batching, and the network wire format. Construct it directly or
// decode it from the wire; Answer executes it.
type Query = query.Query

// QueryResult is the answer to one Query, in the wire format shared by
// AnswerBatch, the HTTP server, and `pka query -json`.
type QueryResult = query.Result

// QueryKind discriminates what a Query asks for.
type QueryKind = query.Kind

// The query kinds, one per probabilistic Querier method.
const (
	QueryProbability  = query.KindProbability
	QueryConditional  = query.KindConditional
	QueryDistribution = query.KindDistribution
	QueryMostLikely   = query.KindMostLikely
	QueryLift         = query.KindLift
	QueryMPE          = query.KindMPE
)

// Counts is the counts contract shared by the dense Table and the
// wide-schema SparseTable — the shape LogLoss accepts, so models validate
// against either backend.
type Counts = contingency.Counts

// Answer executes one query against any Querier.
func Answer(q Querier, qu Query) (QueryResult, error) { return query.Answer(q, qu) }

// AnswerBatch executes a group of queries against one snapshot of the
// model, concurrently over GOMAXPROCS workers, pricing the engine work
// they share (evidence denominators, conditional-slice sweeps, MPE
// passes) once through the engine-tier memo: the model's own when
// EnableCache armed it, otherwise one that lives for the batch. The
// fan-out pays on batches that miss that memo (query.AnswerBatch cites the
// measurement). Every result is bit-identical to per-query Answer; a
// failed query carries its message in QueryResult.Error without sinking
// the batch.
func AnswerBatch(q Querier, queries []Query) ([]QueryResult, error) {
	return query.AnswerBatch(q, queries)
}

// EncodeQueryResult writes a result in the shared wire encoding (one JSON
// object, trailing newline) — the exact bytes `pka query -json` prints and
// the server's /v1/query endpoint returns.
func EncodeQueryResult(w io.Writer, res QueryResult) error {
	return query.EncodeResult(w, res)
}

// NewServer wraps any Querier in the JSON-over-HTTP network layer:
//
//	GET  /healthz         liveness probe
//	GET  /v1/schema       attribute layout
//	POST /v1/query        one Query -> one QueryResult
//	POST /v1/query/batch  {"queries": [...]} -> {"results": [...]}
//	POST /v1/observe      {"rows": [...]} -> UpdateReport (streaming ingest)
//	GET  /v1/rules        extracted IF-THEN rules
//	GET  /v1/explain      the stored probability formula
//
// The handler reuses the model's compiled engine for every request — no
// per-request compilation or locking — and any number of concurrent
// requests may hit one handler. When the Querier is a *Model (which
// retains its discovery counts), /v1/observe streams new observations into
// it via the incremental-refit path; read-only models answer it with 501.
// `pka serve` wraps this with listener management and graceful shutdown;
// NewServerWithOptions tunes the request caps.
func NewServer(q Querier) http.Handler { return server.New(q) }

// ServerOptions tunes the handler NewServerWithOptions returns: the batch
// size cap and the request body byte cap (zero values take the defaults).
type ServerOptions = server.Options

// NewServerWithOptions is NewServer with tunable request caps, for
// embedders whose batch sizes or payloads outgrow the defaults.
func NewServerWithOptions(q Querier, opts ServerOptions) http.Handler {
	return server.NewWithOptions(q, opts)
}

// Model and QueryModel answer queries through one shared core; the
// assertions pin both to the canonical interface at compile time.
var (
	_ Querier = (*Model)(nil)
	_ Querier = (*QueryModel)(nil)
)

// queryCore is the single implementation of the Querier surface that Model
// and QueryModel embed — one method set over the compiled knowledge base,
// so the two public types cannot drift apart.
//
// The knowledge base lives behind an atomic pointer: every query loads the
// current snapshot once and serves entirely from it, so a streaming update
// (Model.Update) can swap in a refitted engine while in-flight queries
// keep answering from the snapshot they started with — no locks on the
// query path.
type queryCore struct {
	kbase atomic.Pointer[kb.KnowledgeBase]
	// version counts successfully applied observe batches — the monotonic
	// model version replication compares across processes. A freshly
	// discovered or loaded model starts at 0; on a replicated primary the
	// version equals the observe log's next offset at all times.
	//
	// Ordering contract with kbase: an engine swap stores the new knowledge
	// base BEFORE bumping version, so at every instant Version() is at most
	// the version of the engine actually serving. A caller that reads the
	// version first and then answers therefore computes from an engine at
	// least that fresh — the invariant the serving cache's read-your-writes
	// guarantee rests on.
	version atomic.Int64
	// cache is the engine-tier memoization cache shared across engine
	// swaps (entries are version-keyed, so a swap invalidates implicitly);
	// nil until EnableCache.
	cache atomic.Pointer[memo.Cache]
}

// kb returns the current knowledge-base snapshot.
func (c *queryCore) kb() *kb.KnowledgeBase { return c.kbase.Load() }

// Schema returns the model's schema.
func (c *queryCore) Schema() *Schema { return c.kb().Schema() }

// Probability returns the joint probability of the assignments.
func (c *queryCore) Probability(assigns ...Assignment) (float64, error) {
	return c.kb().Probability(assigns...)
}

// Conditional returns P(target | given), the memo's ratio of joints.
func (c *queryCore) Conditional(target, given []Assignment) (float64, error) {
	return c.kb().Conditional(target, given)
}

// Distribution returns the conditional distribution of attr given evidence.
func (c *queryCore) Distribution(attr string, given ...Assignment) (map[string]float64, error) {
	return c.kb().Distribution(attr, given...)
}

// MostLikely returns attr's most probable value given the evidence.
func (c *queryCore) MostLikely(attr string, given ...Assignment) (string, float64, error) {
	return c.kb().MostLikely(attr, given...)
}

// Lift returns P(target|given)/P(target).
func (c *queryCore) Lift(target Assignment, given ...Assignment) (float64, error) {
	return c.kb().Lift(target, given...)
}

// MostProbableExplanation returns the most likely full completion of the
// evidence (MPE/MAP inference).
func (c *queryCore) MostProbableExplanation(given ...Assignment) (Explanation, error) {
	return c.kb().MostProbableExplanation(given...)
}

// Rules extracts IF-THEN rules from the stored constraints.
func (c *queryCore) Rules(opts RuleOptions) ([]Rule, error) {
	return rules.FromKnowledgeBase(c.kb(), opts)
}

// Explain renders the stored probability formula with value labels.
func (c *queryCore) Explain() string { return c.kb().Explain() }

// DependencyDOT renders the stored dependency structure as Graphviz.
func (c *queryCore) DependencyDOT() string { return c.kb().DependencyDOT() }

// LogLoss returns the model's average negative log-likelihood (nats per
// sample) on validation counts of the same shape — dense Table or wide
// SparseTable alike (only occupied cells are scored).
func (c *queryCore) LogLoss(table Counts) (float64, error) { return c.kb().LogLoss(table) }

// Save persists the knowledge base (schema + fitted model) as JSON — the
// interchange format.
func (c *queryCore) Save(w io.Writer) error { return c.kb().Save(w) }

// SaveSnapshot persists the knowledge base as a PKAS binary snapshot:
// schema, constraints, and the already-solved coefficients with their
// compiled engine state, so LoadSnapshot restores to the first query
// without refitting. Model overrides this with the full form that also
// carries the discovery counts; a QueryModel saves the query-only form.
func (c *queryCore) SaveSnapshot(w io.Writer) error { return c.kb().SaveBinary(w) }

// Entropy returns the fitted joint's entropy in nats.
func (c *queryCore) Entropy() (float64, error) { return c.kb().Model().Entropy() }

// NumConstraints returns the stored constraint count (first-order
// marginals included) — the model's parameter size.
func (c *queryCore) NumConstraints() int { return c.kb().Model().NumConstraints() }

// Version returns the monotonic model version: how many observe batches
// have been applied since this process loaded or discovered the model. It
// satisfies the serving layer's query.Versioned, so /v1/schema and
// /v1/observe expose it for read-your-writes against replicas.
func (c *queryCore) Version() int64 { return c.version.Load() }

// enableCache attaches an engine-tier memoization cache of the given byte
// capacity to the current knowledge base. capacityBytes == 0 leaves
// caching off; negative means unbounded. Model wraps this under its
// update lock; QueryModel (never swapped) calls it directly.
func (c *queryCore) enableCache(capacityBytes int64) {
	if capacityBytes == 0 {
		return
	}
	cc := memo.New(capacityBytes)
	c.cache.Store(cc)
	c.kbase.Store(c.kb().WithCache(cc, c.version.Load()))
}

// CacheStats reports the engine-tier cache counters (nil when caching is
// off). It satisfies query.CacheStatsReporter, so a server built over the
// model folds this tier into GET /v1/stats.
func (c *queryCore) CacheStats() []query.CacheTierStats {
	cc := c.cache.Load()
	if cc == nil {
		return nil
	}
	return []query.CacheTierStats{{Tier: "engine", Stats: cc.Stats()}}
}

// EnableCache sizes the engine-tier memoization cache: cross-request
// reuse of evidence denominators, conditional-slice sweeps, and MPE
// completions, keyed by model version. capacityBytes == 0 disables (the
// default), negative means unbounded.
func (q *QueryModel) EnableCache(capacityBytes int64) { q.enableCache(capacityBytes) }

// KnowledgeBase exposes the query layer for advanced use. AnswerBatch
// reads it once per batch, so every query of a batch answers from one
// snapshot; note that a streaming update swaps the returned snapshot out
// from under long-lived holders (grab it per batch, not per process).
func (c *queryCore) KnowledgeBase() *kb.KnowledgeBase { return c.kb() }

// Info is the metadata digest available on any knowledge base — including
// loaded query-only models, which carry no discovery record.
type Info struct {
	// Attributes is the schema's attribute count.
	Attributes int
	// Cells is the joint space size (product of cardinalities), or 0 when
	// it exceeds the machine int range — the wide factored regime, where
	// the joint is never materialized anyway.
	Cells int
	// Constraints is the stored constraint count.
	Constraints int
	// MaxOrder is the highest stored constraint order.
	MaxOrder int
	// Version is the monotonic model version: applied observe batches since
	// load (on a replicated primary, the observe log's next offset).
	Version int64
}

// Info returns the knowledge base's metadata digest.
func (c *queryCore) Info() Info {
	kbase := c.kb()
	m := kbase.Model()
	info := Info{
		Attributes:  m.R(),
		Constraints: m.NumConstraints(),
		Version:     c.version.Load(),
	}
	cells := 1
	for i := 0; i < info.Attributes; i++ {
		card := kbase.Schema().Attr(i).Card()
		if cells > math.MaxInt/card {
			cells = 0
			break
		}
		cells *= card
	}
	info.Cells = cells
	for _, con := range m.Constraints() {
		if o := con.Order(); o > info.MaxOrder {
			info.MaxOrder = o
		}
	}
	return info
}

// Summary renders a one-line digest of the stored knowledge base. Model
// overrides it with the discovery run's digest (sample count, findings);
// this shared form is what a loaded QueryModel can say about a file.
func (c *queryCore) Summary() string {
	i := c.Info()
	cells := "joint space beyond int range"
	if i.Cells > 0 {
		cells = fmt.Sprintf("%d cells", i.Cells)
	}
	return fmt.Sprintf("knowledge base: %d attributes (%s), %d constraints, max order %d\n",
		i.Attributes, cells, i.Constraints, i.MaxOrder)
}
