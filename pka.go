// Package pka is a Go implementation of automatic probabilistic knowledge
// acquisition from data, reproducing W. B. Gevarter's NASA TM-88224 /
// ICDE 1987 system: given categorical observation data, it finds the
// statistically significant joint probabilities of attribute combinations
// (maximum entropy + minimum message length), stores them as a compact
// product-form model, and answers any joint, marginal, or conditional
// probability query — including IF-THEN rule extraction for probabilistic
// expert systems.
//
// Quick start:
//
//	schema, _ := pka.NewSchema([]pka.Attribute{
//	    {Name: "SMOKING", Values: []string{"Smoker", "Non smoker"}},
//	    {Name: "CANCER", Values: []string{"Yes", "No"}},
//	})
//	data := pka.NewDataset(schema)
//	// ... data.AppendLabeled(...) per observation ...
//	model, _ := pka.Discover(data, pka.Options{})
//	p, _ := model.Conditional(
//	    []pka.Assignment{{Attr: "CANCER", Value: "Yes"}},
//	    []pka.Assignment{{Attr: "SMOKING", Value: "Smoker"}})
//
// Model and the loaded QueryModel share one query implementation behind
// the Querier interface; Answer/AnswerBatch execute first-class Query
// values against any Querier, and NewServer exposes one over JSON/HTTP
// (the CLI's `pka serve`). See querier.go for that surface.
//
// The packages under internal/ carry the full machinery (contingency
// tables, the maximum-entropy solver, the MML significance test, the
// discovery engine, and synthetic workload generators); this
// package is the stable public surface.
package pka

import (
	"fmt"
	"io"
	"slices"
	"sync"

	"pka/internal/assoc"
	"pka/internal/contingency"
	"pka/internal/core"
	"pka/internal/crossval"
	"pka/internal/dataset"
	"pka/internal/kb"
	"pka/internal/maxent"
	"pka/internal/mml"
	"pka/internal/query"
	"pka/internal/rules"
	"pka/internal/snapshot"
	"pka/internal/stats"
)

// Attribute is one categorical variable: a name and its ordered values.
type Attribute = dataset.Attribute

// Schema is an ordered list of attributes.
type Schema = dataset.Schema

// Dataset is a schema plus observed records.
type Dataset = dataset.Dataset

// Record is one observation as value indices in schema order.
type Record = dataset.Record

// Table is an R-dimensional contingency table of counts.
type Table = contingency.Table

// Assignment names one attribute value by label, e.g. {“CANCER”, “Yes”}.
type Assignment = kb.Assignment

// Rule is an IF-THEN statement with probability, support, and lift.
type Rule = rules.Rule

// RuleOptions filters extracted rules.
type RuleOptions = rules.Options

// Finding is one discovered significant joint probability.
type Finding = core.Finding

// OtherValue is the catch-all label used to complete attribute ranges.
const OtherValue = dataset.OtherValue

// NewSchema validates attributes and builds a schema.
func NewSchema(attrs []Attribute) (*Schema, error) { return dataset.NewSchema(attrs) }

// NewDataset creates an empty dataset over the schema.
func NewDataset(schema *Schema) *Dataset { return dataset.NewDataset(schema) }

// ReadCSV ingests CSV rows (header = attribute names) into a dataset.
func ReadCSV(r io.Reader, schema *Schema) (*Dataset, error) { return dataset.ReadCSV(r, schema) }

// InferSchema scans CSV data and derives a schema from the distinct values
// seen per column (maxCard 0 = unbounded).
func InferSchema(r io.Reader, maxCard int) (*Schema, error) { return dataset.InferSchema(r, maxCard) }

// CSVCodes is a CSV data bank read in one pass: the inferred schema plus
// every row's value codes at one byte per field. Count it with Table or
// Sparse, or keep the rows with Dataset.
type CSVCodes = dataset.Codes

// ScanCSV reads CSV data once, inferring the schema as InferSchema does
// (maxCard 0 = unbounded) and coding every row against it, so nothing reads
// the stream a second time.
func ScanCSV(r io.Reader, maxCard int) (*CSVCodes, error) { return dataset.ScanCSV(r, maxCard) }

// MergeRareValues collapses attribute values observed fewer than minCount
// times into the "other" bucket — defensive preprocessing before
// tabulation (see dataset.MergeRareValues).
func MergeRareValues(d *Dataset, minCount int64) (*Dataset, error) {
	return d.MergeRareValues(minCount)
}

// Options tunes discovery. The zero value reproduces the memo's defaults.
type Options struct {
	// MaxOrder caps the attribute-family order scanned (0 = all orders).
	MaxOrder int
	// PriorH2 is the memo's p(H2') prior; 0 means the default 0.5.
	PriorH2 float64
	// MaxConstraints bounds the number of accepted constraints (0 = none).
	MaxConstraints int
	// RecordScans retains every significance scan in Model.Scans() —
	// the data behind the memo's Table 1.
	RecordScans bool
	// IncludeForcedCells restores the memo's literal Eq. 41 behaviour of
	// selecting cells whose value is already determined by known
	// marginals. Off by default; see mml.Config.IncludeForced.
	IncludeForcedCells bool
	// Workers controls discovery parallelism at its one parallel site,
	// the per-family significance scans; everything else in discovery,
	// the association screen included, runs serially. The model keeps
	// it, so every Update re-scan uses it too. 0 uses GOMAXPROCS
	// (the default: use the machine), 1 forces the sequential loops.
	// Results are bit-identical either way; only wall time changes.
	Workers int
	// ScreenPairs gates order >= 2 scans on a pairwise association survey:
	// only families whose attribute pairs all pass the screen are priced.
	// Essential for wide schemas (DiscoverSparse), where the unscreened
	// candidate space is combinatorial; with it off, sparse and dense
	// discovery over the same counts are bit-identical.
	ScreenPairs bool
	// ScreenAlpha is the pairwise G² p-value threshold for ScreenPairs;
	// 0 means the Bonferroni default 0.05 / (number of pairs).
	ScreenAlpha float64
	// ScreenCI refines the pairwise screen with order-1 conditional-
	// independence tests (requires ScreenPairs): pairs whose association a
	// common neighbor fully explains are dropped before families are
	// enumerated. The extra pruning is what keeps the clique universe
	// tractable on very wide (hundreds of attributes) schemas.
	ScreenCI bool
	// ScreenCIAlpha is the p-value above which a conditional test counts
	// as independent (larger prunes more); 0 means 0.05.
	ScreenCIAlpha float64
}

// Model is a discovered probabilistic knowledge base. It carries the full
// discovery record (findings, scans, fit) on top of the shared query core,
// and satisfies Querier — the canonical query surface it shares with the
// loaded QueryModel.
//
// Concurrency: every query method (Probability, Conditional, Distribution,
// MostLikely, Lift, MostProbableExplanation, Rules, LogLoss, ...) serves
// from an immutable compiled inference engine snapshot — any number of
// goroutines may query one Model concurrently with no external locking.
// Update is the one mutation: it folds new observations into the retained
// discovery counts, incrementally refits, and atomically swaps in the new
// snapshot; queries in flight keep answering from the engine they started
// with. Updates serialize among themselves but never block queries. The
// goodness of fit is derived lazily: Fit takes the same lock as Update,
// computes it on the first call at a model version and keeps it.
type Model struct {
	queryCore
	// mu serializes Update and guards the discovery record it replaces
	// (result, fit, counts); the query path never takes it.
	mu     sync.RWMutex
	result *core.Result
	// fit is the goodness of fit at the current model version: nil until
	// the first Fit call fills it under mu's write lock (Update writes the
	// counts it walks), and reset by every batch that refits.
	fit *FitReport
	// counts is the discovery table, retained for streaming updates; the
	// Model owns it after Discover* returns — callers must not mutate it.
	counts contingency.Counts
	// opts is the engine form of the discovery options, which Update
	// refits with and SaveSnapshot persists.
	opts core.Options
}

// Discover tabulates the dataset and runs the full acquisition procedure.
func Discover(d *Dataset, opts Options) (*Model, error) {
	if d == nil {
		return nil, fmt.Errorf("pka: nil dataset")
	}
	table, err := d.Tabulate()
	if err != nil {
		return nil, err
	}
	return DiscoverTable(table, d.Schema(), opts)
}

// DiscoverTable runs acquisition directly on a contingency table whose axes
// match the schema.
func DiscoverTable(table *Table, schema *Schema, opts Options) (*Model, error) {
	if table == nil || schema == nil {
		return nil, fmt.Errorf("pka: nil table or schema")
	}
	return discoverCounts(table, schema, opts)
}

// DiscoverSparse runs the full acquisition procedure on a sparse table —
// the wide-schema path for data banks whose dense joint space would not
// fit in memory. The returned Model takes ownership of the table (it is
// the data bank streaming updates write into): do not access it — reads
// included — after DiscoverSparse returns if you will call Update. The model is fit and queried through the factored
// (block-decomposed) engine, so the joint space is never materialized; the
// cost scales with the occupied cells, the screened candidate families,
// and the small dense blocks the accepted constraints induce.
//
// For wide schemas set Options.ScreenPairs (and keep MaxOrder low):
// screening bounds the order >= 2 scans to families whose attribute pairs
// associate significantly. With screening off, DiscoverSparse finds
// bit-identical structure to Discover on the densified counts.
func DiscoverSparse(table *SparseTable, schema *Schema, opts Options) (*Model, error) {
	if table == nil || schema == nil {
		return nil, fmt.Errorf("pka: nil table or schema")
	}
	return discoverCounts(table, schema, opts)
}

// coreOptions translates the public discovery options to the engine's;
// zero values stay zero, and the engine fills in its defaults.
func coreOptions(opts Options) core.Options {
	return core.Options{
		MaxOrder: opts.MaxOrder,
		MML: mml.Config{
			PriorH2:       opts.PriorH2,
			IncludeForced: opts.IncludeForcedCells,
		},
		MaxConstraints: opts.MaxConstraints,
		RecordScans:    opts.RecordScans,
		Workers:        opts.Workers,
		ScreenPairs:    opts.ScreenPairs,
		ScreenAlpha:    opts.ScreenAlpha,
		ScreenCI:       opts.ScreenCI,
		ScreenCIAlpha:  opts.ScreenCIAlpha,
	}
}

// discoverCounts is the shared backend-agnostic acquisition driver. The
// returned Model retains the table for streaming updates (Update): it owns
// the counts from here on, and callers must neither mutate NOR read the
// table afterwards — Update writes it without locking, so even read-only
// caller access would race with ingest.
func discoverCounts(table contingency.Counts, schema *Schema, opts Options) (*Model, error) {
	copts := coreOptions(opts)
	res, err := core.DiscoverCounts(table, copts)
	if err != nil {
		return nil, err
	}
	kbase, err := kb.New(schema, res.Model)
	if err != nil {
		return nil, err
	}
	m := &Model{result: res, counts: table, opts: copts}
	m.kbase.Store(kbase)
	return m, nil
}

// newKB compiles the knowledge base an Update swaps in; tests replace it
// to inject a failure after the counts have taken the batch.
var newKB = kb.New

// UpdateReport says what one streaming Update did: rows folded in,
// constraints retargeted, new constraints discovered, whether a structural
// change forced full rediscovery, and the sample total now served. It is
// also the response body of the server's POST /v1/observe.
type UpdateReport = query.IngestReport

// Update folds new observation rows (value indices in schema order) into
// the model — the paper's continuous-acquisition regime: knowledge is
// re-derived as the data bank grows, here incrementally. The retained
// discovery counts absorb the batch (cached marginal projections updated
// in place), constraints whose marginals moved are retargeted, the solver
// warm-starts from the previous coefficients (re-solving only touched
// blocks on factored engines), families whose marginals moved are
// re-scanned for newly significant cells, and the recompiled engine is
// swapped in atomically — concurrent queries keep serving the previous
// snapshot until the swap, and every query after it sees the new one.
//
// Structural changes the incremental path cannot absorb (an implied-zero
// cell gaining support, a warm refit that will not converge) fall back to
// a full rediscovery on the grown data bank; the report says so. A batch
// whose net effect on every marginal is zero is a no-op: the engine is not
// touched and queries stay bit-identical.
//
// Updates serialize among themselves; queries never block. Models loaded
// with Load cannot Update (no counts travel with a saved file).
func (m *Model) Update(rows []Record) (UpdateReport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rep := UpdateReport{Rows: len(rows)}
	if len(rows) == 0 {
		rep.TotalSamples = m.counts.Total()
		return rep, nil
	}
	deltas := make([]contingency.CellDelta, len(rows))
	for i, r := range rows {
		deltas[i] = contingency.CellDelta{Cell: r, Delta: 1}
	}
	if err := m.counts.ApplyBatch(deltas); err != nil {
		// The batch never touched the table: a client-input failure.
		return rep, fmt.Errorf("%w: %w", query.ErrRejectedRows, err)
	}
	out, err := core.Update(m.result, m.counts, deltas, m.opts)
	var kbase *kb.KnowledgeBase
	if err == nil && out.Refit {
		kbase, err = newKB(m.Schema(), out.Result.Model)
	}
	if err != nil {
		// Roll the counts back so the served model and its data bank stay
		// in step; the batch is rejected as a unit.
		for i := range deltas {
			deltas[i].Delta = -1
		}
		if rbErr := m.counts.ApplyBatch(deltas); rbErr != nil {
			return rep, fmt.Errorf("pka: update failed (%w) and rollback failed: %v", err, rbErr)
		}
		return rep, err
	}
	rep.Retargeted = out.Retargeted
	rep.NewConstraints = out.Added
	rep.Rediscovered = out.Rediscovered
	rep.Refit = out.Refit
	rep.Sweeps = out.FitSweeps
	rep.TotalSamples = m.counts.Total()
	// Every applied batch bumps the model version, net-zero batches
	// included: replication replays batches in log order, so version must
	// advance in lockstep with applied records, not with engine swaps.
	if !out.Refit {
		// Net-zero batch: the previous engine still answers bit-identically.
		rep.Version = m.version.Add(1)
		return rep, nil
	}
	m.result = out.Result
	m.fit = nil
	if c := m.cache.Load(); c != nil {
		kbase = kbase.WithCache(c, m.version.Load()+1)
	}
	// Swap before bump: storing the engine first keeps Version() at or
	// below the version of the engine actually serving, so a concurrent
	// reader that snapshots the version and then answers computes from an
	// engine at least that fresh. The serving cache keys entries by that
	// pre-read version; this ordering is what makes a post-observe query
	// at version v unable to surface v-1 bytes (read-your-writes).
	m.kbase.Store(kbase) // in-flight queries finish on the old snapshot
	rep.Version = m.version.Add(1)
	return rep, nil
}

// EnableCache sizes the engine-tier serving cache on a live model:
// cross-request memoization of evidence denominators, conditional-slice
// sweeps, and MPE completions, keyed by model version so every Update
// invalidates implicitly. The cache is serving configuration, not model
// state, so it does not travel in snapshots: call EnableCache after
// discovery or after LoadModelSnapshot. capacityBytes == 0 is a no-op;
// negative means unbounded. Safe to call while the model serves queries;
// it serializes with Update.
func (m *Model) EnableCache(capacityBytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.enableCache(capacityBytes)
}

// ObserveLabeled is Update with rows of value labels in schema order — the
// wire format of the server's POST /v1/observe. It makes Model satisfy the
// serving layer's streaming-ingest interface.
func (m *Model) ObserveLabeled(rows [][]string) (UpdateReport, error) {
	s := m.Schema()
	conv := make([]Record, len(rows))
	for i, row := range rows {
		if len(row) != s.R() {
			return UpdateReport{Rows: len(rows)}, fmt.Errorf(
				"%w: pka: observe row %d has %d values, schema has %d attributes",
				query.ErrRejectedRows, i, len(row), s.R())
		}
		cell := make(Record, s.R())
		for j, label := range row {
			attr := s.Attr(j)
			vi := attr.ValueIndex(label)
			if vi < 0 {
				return UpdateReport{Rows: len(rows)}, fmt.Errorf(
					"%w: pka: observe row %d: attribute %q has no value %q",
					query.ErrRejectedRows, i, attr.Name, label)
			}
			cell[j] = vi
		}
		conv[i] = cell
	}
	return m.Update(conv)
}

// Findings lists the discovered significant joint probabilities in
// acceptance order (streaming updates append theirs).
func (m *Model) Findings() []Finding {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]Finding(nil), m.result.Findings...)
}

// Scans returns the recorded significance scans (only populated when
// Options.RecordScans was set).
func (m *Model) Scans() []core.Scan {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]core.Scan(nil), m.result.Scans...)
}

// ScoredRule is a Rule with a Wilson confidence interval on its probability.
type ScoredRule = rules.ScoredRule

// RulesWithIntervals attaches 95% Wilson confidence intervals to extracted
// rules given the sample count the knowledge base was discovered from
// (loaded query-only models do not carry it, so it is explicit here).
func RulesWithIntervals(rs []Rule, totalSamples int64) ([]ScoredRule, error) {
	return rules.WithIntervals(rs, totalSamples, 1.96)
}

// RulesWithIntervals extracts rules and attaches 95% Wilson confidence
// intervals based on the discovery sample size.
func (m *Model) RulesWithIntervals(opts RuleOptions) ([]ScoredRule, error) {
	m.mu.RLock()
	kbase, total := m.kb(), m.result.TotalSamples
	m.mu.RUnlock()
	rs, err := rules.FromKnowledgeBase(kbase, opts)
	if err != nil {
		return nil, err
	}
	return rules.WithIntervals(rs, total, 1.96)
}

// Summary renders a digest of the discovery run.
func (m *Model) Summary() string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.result.Summary()
}

// Fit returns the goodness-of-fit statistics of the model against the data
// bank it was fitted to. The walk over the occupied cells is computed on
// the first call after discovery, restore or a refitting batch, and kept
// until the next refitting batch, so streaming Updates never pay for it.
// The walk cannot fail on a Model that discovery or LoadModelSnapshot
// built (both check the counts against the model first); if it ever did,
// Fit returns the zero FitReport and caches nothing.
func (m *Model) Fit() FitReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fit == nil {
		f, err := core.GoodnessOfFit(m.counts, m.result.Model)
		if err != nil {
			return FitReport{}
		}
		m.fit = &f
	}
	return *m.fit
}

// Load reads a knowledge base saved with Save. Loaded models answer
// queries but carry no discovery scans or findings — and no counts, so
// they cannot ingest streaming updates.
func Load(r io.Reader) (*QueryModel, error) {
	kbase, err := kb.Load(r)
	if err != nil {
		return nil, err
	}
	q := &QueryModel{}
	q.kbase.Store(kbase)
	return q, nil
}

// SaveSnapshot persists the model as a PKAS binary snapshot, discovery
// counts and options included — the fast-restart format: LoadSnapshot (or
// LoadModelSnapshot, to restore streaming ingest) reconstructs the
// compiled engine directly from the stored coefficients, skipping the
// solve entirely. Use Save for the JSON interchange form.
func (m *Model) SaveSnapshot(w io.Writer) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	kbase := m.kb()
	opts := m.opts
	return snapshot.Write(w, &snapshot.Snapshot{
		Schema:  kbase.Schema(),
		Model:   kbase.Model(),
		Counts:  m.counts,
		Options: &opts,
	})
}

// LoadSnapshot reads a PKAS binary snapshot saved with SaveSnapshot (or
// `pka snapshot`) into a query-only model. Load-to-first-query is pure
// deserialization — no refit, no block summation — and every answer is
// bit-identical to the model that was saved.
func LoadSnapshot(r io.Reader) (*QueryModel, error) {
	kbase, err := kb.LoadBinary(r)
	if err != nil {
		return nil, err
	}
	q := &QueryModel{}
	q.kbase.Store(kbase)
	return q, nil
}

// LoadAny reads a saved knowledge base in either format — PKAS binary
// snapshot or JSON — sniffing the magic bytes to dispatch. It is what
// `pka serve -kb` uses, so one flag serves both formats.
func LoadAny(r io.Reader) (*QueryModel, error) {
	kbase, err := kb.LoadAny(r)
	if err != nil {
		return nil, err
	}
	q := &QueryModel{}
	q.kbase.Store(kbase)
	return q, nil
}

// LoadModelSnapshot restores a full updatable Model from a binary snapshot
// that carries discovery counts (Model.SaveSnapshot writes them;
// query-only snapshots are rejected — use LoadSnapshot for those). The
// restored model resumes streaming ingest: counts, cached sparse
// projections, discovery options, and the solved coefficients all travel,
// so the first Update after a restart warm-starts exactly as it would have
// in the saved process. The discovery narrative (findings, scans) does not
// travel; Findings() starts empty and accumulates from new updates.
func LoadModelSnapshot(r io.Reader) (*Model, error) {
	s, err := snapshot.Read(r)
	if err != nil {
		return nil, err
	}
	if s.Counts == nil {
		return nil, fmt.Errorf("pka: snapshot carries no discovery counts (query-only); use LoadSnapshot")
	}
	if err := s.Counts.CheckConsistency(); err != nil {
		return nil, fmt.Errorf("pka: snapshot counts: %w", err)
	}
	if s.Counts.Total() == 0 {
		return nil, fmt.Errorf("pka: snapshot carries empty discovery counts")
	}
	if cards := contingency.CardsOf(s.Counts); !slices.Equal(cards, s.Model.Cards()) {
		return nil, fmt.Errorf("pka: snapshot counts have cardinalities %v, its model %v",
			cards, s.Model.Cards())
	}
	kbase, err := kb.New(s.Schema, s.Model)
	if err != nil {
		return nil, err
	}
	var opts core.Options
	if s.Options != nil {
		opts = *s.Options
	}
	res := &core.Result{Model: s.Model, TotalSamples: s.Counts.Total()}
	m := &Model{result: res, counts: s.Counts, opts: opts}
	m.kbase.Store(kbase)
	return m, nil
}

// QueryModel is a loaded, query-only knowledge base: the same Querier
// surface as Model (served by the same shared core), minus the discovery
// record a saved file does not carry (findings, scans, goodness of fit).
//
// Concurrency: like Model, a QueryModel is immutable and serves queries
// from a compiled engine snapshot built at Load time; concurrent use from
// any number of goroutines is safe without locking.
type QueryModel struct {
	queryCore
}

// maxent constraint surface for advanced integrations.

// Constraint pins one family cell's probability.
type Constraint = maxent.Constraint

// Binner maps continuous readings to categorical bins, for turning sensor
// streams into attributes (see the telemetry example). Every binner carries
// one extra catch-all bin after the interval bins: NaN readings (sensor
// dropouts, failed parses) land there instead of being conflated with any
// interval, so Bins() is the requested bin count plus one.
type Binner = dataset.Binner

// NewEqualWidthBinner splits [min, max] into equal-width bins (plus the
// NaN catch-all).
func NewEqualWidthBinner(min, max float64, bins int) (*Binner, error) {
	return dataset.NewEqualWidthBinner(min, max, bins)
}

// NewQuantileBinner picks bin edges so the sample spreads evenly (plus the
// NaN catch-all). On skewed samples the requested count is an upper bound:
// quantile edges that repeat or sit at the sample minimum are dropped, so
// heavily tied samples keep fewer interval bins than asked for — always
// size attributes with Binner.Bins(), never with the requested count.
func NewQuantileBinner(sample []float64, bins int) (*Binner, error) {
	return dataset.NewQuantileBinner(sample, bins)
}

// SparseTable is a hash-backed contingency table for schemas whose dense
// joint space would not fit in memory. Project slices out dense tables
// over small attribute subsets; DiscoverSparse runs acquisition on it
// directly. Marginal queries are served from a per-family dense-projection
// cache, so repeated lookups over the same attribute family cost O(1)
// after one pass over the occupied cells; mutation (Observe, ObserveBatch,
// ApplyBatch) maintains the cached projections — and the pair-count ledger
// the wide pair screen reads — in place, so the cache survives streaming
// ingest instead of being rebuilt per batch.
type SparseTable = contingency.Sparse

// NewSparseTable creates an empty sparse table over the schema.
//
// Cells are keyed by packing every attribute value into as many 64-bit
// words as Σ ceil(log2(len(attr.Values))) requires; schemas that fit one
// word (e.g. 64 binary attributes) keep the original single-word fast
// path, and wider schemas — hundreds of attributes — spill into
// multi-word keys transparently.
func NewSparseTable(schema *Schema) (*SparseTable, error) {
	return contingency.NewSparse(schema.Names(), schema.Cards())
}

// TabulateCSV streams CSV rows directly into a dense contingency table
// without materializing records — for sample counts that dwarf memory.
func TabulateCSV(r io.Reader, schema *Schema) (*Table, error) {
	return dataset.TabulateCSV(r, schema)
}

// TabulateCSVSparse streams CSV rows into a sparse table, for wide schemas.
func TabulateCSVSparse(r io.Reader, schema *Schema) (*SparseTable, error) {
	return dataset.TabulateCSVSparse(r, schema)
}

// Explanation is a full most-probable world state given evidence.
type Explanation = kb.Explanation

// PairStats summarizes the association between two attributes.
type PairStats = assoc.PairStats

// FitReport carries the classical goodness-of-fit statistics of a
// discovered model against its data.
type FitReport = core.Fit

// ScreenReport summarizes a discovery run's association screen.
type ScreenReport = core.ScreenReport

// Screen returns the association-screen summary of the discovery run, or
// nil when Options.ScreenPairs was off.
func (m *Model) Screen() *ScreenReport {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.result.Screen
}

// Associations computes pairwise association diagnostics (mutual
// information, Cramér's V, G² p-values) over a contingency table, ordered
// strongest first — the memo's "clues for discovering more causal
// explanations".
func Associations(table *Table) ([]PairStats, error) {
	return assoc.Pairwise(table)
}

// OrderScore is the cross-validated loss of one MaxOrder candidate.
type OrderScore = crossval.OrderScore

// SelectMaxOrder picks the level-wise scan depth by k-fold cross-validation:
// it returns per-order held-out losses and the winning order. seed fixes the
// fold assignment.
func SelectMaxOrder(table *Table, maxOrder, folds int, seed int64) ([]OrderScore, int, error) {
	scores, best, err := crossval.SelectMaxOrder(
		table, maxOrder, folds, stats.NewRNG(seed), core.Options{})
	if err != nil {
		return nil, 0, err
	}
	return scores, scores[best].MaxOrder, nil
}

// AssociationsSparse is Associations over a sparse table, projecting each
// pair densely — the screening step for wide schemas.
func AssociationsSparse(table *SparseTable) ([]PairStats, error) {
	return assoc.PairwiseSparse(table)
}

// RenderAssociations formats Associations output with attribute names.
func RenderAssociations(names []string, pairs []PairStats) string {
	return assoc.Render(names, pairs)
}
