package query

import (
	"errors"

	"pka/internal/memo"
)

// ErrRejectedRows marks an ingest failure caused by the submitted rows
// themselves (wrong width, unknown label, bad coordinate) rather than by
// server-side state: the batch was rejected before or rolled back after
// touching the counts. The HTTP layer maps errors wrapping it to 400 and
// everything else on the ingest path to 500.
var ErrRejectedRows = errors.New("rows rejected")

// IngestReport is the wire answer to one streaming-ingest request: what
// the incremental refit behind POST /v1/observe actually did. The zero
// Refit value marks a no-op batch (net delta zero) served without touching
// the compiled engine.
type IngestReport struct {
	// Rows is how many observation rows the batch carried.
	Rows int `json:"rows"`
	// Retargeted counts stored constraints whose probability targets were
	// recomputed because the batch moved their family marginals.
	Retargeted int `json:"retargeted"`
	// NewConstraints counts newly significant joint probabilities the
	// incremental re-scan promoted.
	NewConstraints int `json:"new_constraints"`
	// Rediscovered reports that a structural change forced a full
	// from-scratch rediscovery instead of the incremental path.
	Rediscovered bool `json:"rediscovered"`
	// Refit reports whether any solve ran; false for net-zero batches.
	Refit bool `json:"refit"`
	// Sweeps is the warm refit's solver sweep count.
	Sweeps int `json:"sweeps"`
	// TotalSamples is N after the batch — the data-bank size queries are
	// now answered against.
	TotalSamples int64 `json:"total_samples"`
	// Version is the monotonic model version after the batch applied. On a
	// replicated primary it equals the batch's log offset + 1, so a client
	// holding it can poll a replica's readiness or schema endpoint until
	// the replica's version catches up — read-your-writes across the fleet.
	Version int64 `json:"version"`
}

// Ingestor is the optional streaming-ingest surface of a served model: a
// Querier that can also fold new observation rows into its knowledge base,
// atomically swapping the compiled engine under concurrent queries. Rows
// carry one value label per schema attribute, in schema order — the wire
// format of POST /v1/observe. Models loaded from a saved file do not carry
// their discovery counts and therefore do not implement it.
type Ingestor interface {
	ObserveLabeled(rows [][]string) (IngestReport, error)
}

// Versioned is the optional model-version surface of a served Querier. The
// version is a monotonic count of applied observe batches (0 for a model
// that has only ever been loaded), comparable across a replication fleet:
// a primary's version after a batch equals the replica version at which
// that batch is visible.
type Versioned interface {
	Version() int64
}

// Readiness is the GET /readyz answer: whether this process should receive
// traffic, and where it stands in the replication stream.
type Readiness struct {
	// Ready reports the process is serving a loaded, caught-up model.
	Ready bool `json:"ready"`
	// Role names the process's replication role: "standalone",
	// "primary", or "replica".
	Role string `json:"role"`
	// Version is the monotonic model version (applied log offset).
	Version int64 `json:"version"`
	// Target is the latest known primary offset (replicas only).
	Target int64 `json:"target,omitempty"`
	// Lag is Target - Version: how many observe batches behind the primary
	// this replica is serving (replicas only).
	Lag int64 `json:"lag,omitempty"`
	// Error carries the fault that marked an unready process broken, if
	// any.
	Error string `json:"error,omitempty"`
}

// ReadyReporter is the optional readiness surface of a served Querier.
// Queriers that do not implement it are ready as soon as they exist — the
// model loaded before serving started.
type ReadyReporter interface {
	Readiness() Readiness
}

// CacheTierStats is one cache tier's counters in the GET /v1/stats wire
// format: the tier name ("wire" or "engine") plus the memo counters
// inlined.
type CacheTierStats struct {
	Tier string `json:"tier"`
	memo.Stats
}

// CacheStatsReporter is the optional cache-observability surface of a
// served Querier: the tiers it carries beyond the server's own wire tier
// (the engine-tier memo). A nil slice means caching is off.
type CacheStatsReporter interface {
	CacheStats() []CacheTierStats
}
