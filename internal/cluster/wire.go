// Package cluster replicates one probabilistic knowledge base across
// processes for read scale, composing with the single-process server.
//
// A Primary owns the model and an append-only observe log
// (internal/replog); Replicas boot from a PKAS snapshot + log catch-up and
// follow the tail, applying each batch through the same incremental-update
// path the primary ran — so every replica's engine, and therefore every
// answer it serves, is bit-identical to the primary's at the same log
// offset.
//
// Consistency model: convergent counts (observe batches are atomic and
// order-insensitive for net counts; the log fixes one order and every
// replica applies it), eventually-consistent reads (a replica serves its
// last applied offset), and version-gated read-your-writes (the observe
// response carries the new model version; clients poll a replica's readyz
// or schema endpoint until it catches up).
package cluster

import "encoding/json"

// logRecord is the payload of one replog record: the observe batch exactly
// as the client submitted it (value labels in schema order). Replaying it
// through ObserveLabeled reproduces the primary's update bit for bit.
type logRecord struct {
	Rows [][]string `json:"rows"`
}

// logResponse frames GET /v1/log: the records from the requested offset
// (bounded by the page size) and End, the log's current next offset, so a
// tail reader knows how far behind it still is.
type logResponse struct {
	From    uint64            `json:"from"`
	Next    uint64            `json:"next"`
	End     uint64            `json:"end"`
	Records []json.RawMessage `json:"records"`
}

// errorBody is the error frame the log and snapshot endpoints return,
// matching the query server's {"error": ...} shape.
type errorBody struct {
	Error string `json:"error"`
}
