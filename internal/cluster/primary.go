package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"pka/internal/kb"
	"pka/internal/query"
	"pka/internal/replog"
)

// Bank is the serving-layer surface of an updatable data bank: everything
// the cluster roles need from the model without importing the public pka
// package (the root package adapts *pka.Model to it). Version must count
// successfully applied observe batches, starting at 0 for a fresh load.
type Bank interface {
	query.Querier
	query.Ingestor
	SaveSnapshot(w io.Writer) error
	Version() int64
}

// maxLogPage bounds how many records one GET /v1/log response carries.
const maxLogPage = 1024

// defaultLogPage is the page size when the client does not ask.
const defaultLogPage = 256

// Primary wraps a Bank with the replicated observe log: every applied
// batch is appended as one log record, offsets in lockstep with the model
// version, and the log's tail plus a consistent snapshot are served over
// HTTP for replicas to boot from and follow.
//
// The embedded Bank serves every query method unchanged; ObserveLabeled is
// overridden to hold the apply+append critical section. Should a batch
// apply but fail to reach the log, the primary marks itself broken:
// replicas could never see that batch, so continuing to serve writes would
// fork the fleet. A broken primary fails observes and reports unready
// while queries keep draining.
type Primary struct {
	Bank
	log *replog.Log
	mu  sync.Mutex
	// broken is the divergence fault, nil while healthy; guarded by mu.
	broken error
}

// NewPrimary binds a bank to its observe log. The bank's version must
// equal the log's next offset — the caller replays the log into the bank
// first (Replay), so a primary always restarts exactly where it stopped.
func NewPrimary(bank Bank, log *replog.Log) (*Primary, error) {
	if v, n := bank.Version(), log.Next(); uint64(v) != n {
		return nil, fmt.Errorf("cluster: bank version %d out of step with log offset %d (seed snapshot must predate the log)", v, n)
	}
	return &Primary{Bank: bank, log: log}, nil
}

// Err returns the fault that broke the primary, nil while healthy.
func (p *Primary) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.broken
}

// ObserveLabeled applies the batch to the bank and appends it to the log
// as one critical section, so record offsets equal the order batches were
// applied in and the model version stays in lockstep with the log.
func (p *Primary) ObserveLabeled(rows [][]string) (query.IngestReport, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.broken != nil {
		return query.IngestReport{}, fmt.Errorf("cluster: primary is broken, rejecting writes: %w", p.broken)
	}
	payload, err := json.Marshal(logRecord{Rows: rows})
	if err != nil {
		return query.IngestReport{}, fmt.Errorf("cluster: encoding log record: %w", err)
	}
	rep, err := p.Bank.ObserveLabeled(rows)
	if err != nil {
		// The bank rejected or rolled back the batch — nothing applied,
		// nothing to log.
		return rep, err
	}
	off, err := p.log.Append(payload)
	if err != nil {
		// The batch IS applied locally but replicas can never receive it:
		// serving further writes would fork the fleet, so fail closed.
		p.broken = fmt.Errorf("batch %d applied but not logged: %w", rep.Version-1, err)
		return rep, fmt.Errorf("cluster: %w", p.broken)
	}
	if int64(off)+1 != rep.Version {
		p.broken = fmt.Errorf("log offset %d out of step with model version %d", off, rep.Version)
		return rep, fmt.Errorf("cluster: %w", p.broken)
	}
	return rep, nil
}

// Readiness reports the primary's routing state: ready until a divergence
// fault breaks it.
func (p *Primary) Readiness() query.Readiness {
	p.mu.Lock()
	defer p.mu.Unlock()
	rd := query.Readiness{Ready: p.broken == nil, Role: "primary", Version: p.Bank.Version()}
	if p.broken != nil {
		rd.Error = p.broken.Error()
	}
	return rd
}

// CacheStats forwards the bank's cache tiers: Primary embeds Bank as an
// interface, so the concrete model's optional reporter method is not
// promoted and must be surfaced by hand.
func (p *Primary) CacheStats() []query.CacheTierStats {
	if cs, ok := p.Bank.(query.CacheStatsReporter); ok {
		return cs.CacheStats()
	}
	return nil
}

// KnowledgeBase exposes the bank's compiled knowledge base when it carries
// one, so a batch behind the primary wrapper answers every query from one
// snapshot (nil falls back to per-query execution).
func (p *Primary) KnowledgeBase() *kb.KnowledgeBase {
	if kp, ok := p.Bank.(interface{ KnowledgeBase() *kb.KnowledgeBase }); ok {
		return kp.KnowledgeBase()
	}
	return nil
}

// Replay applies every log record from offset `from` through the bank —
// the primary's boot catch-up (and the tail of a replica bootstrap when it
// shares the log file). Returns the next offset after the last applied
// record.
func Replay(l *replog.Log, bank Bank, from uint64) (uint64, error) {
	for {
		recs, next, err := l.Read(from, defaultLogPage)
		if err != nil {
			return from, err
		}
		if len(recs) == 0 {
			return from, nil
		}
		for i, raw := range recs {
			var rec logRecord
			if err := json.Unmarshal(raw, &rec); err != nil {
				return from, fmt.Errorf("cluster: decoding log record %d: %w", from+uint64(i), err)
			}
			if _, err := bank.ObserveLabeled(rec.Rows); err != nil {
				return from, fmt.Errorf("cluster: replaying log record %d: %w", from+uint64(i), err)
			}
		}
		from = next
	}
}

// Handler returns the primary's HTTP surface: the standard query endpoints
// are mounted by the caller (internal/server over the Primary itself);
// this adds the replication endpoints.
//
//	GET /v1/log?from=N[&max=M]  tail the observe log from offset N
//	GET /v1/snapshot            consistent PKAS snapshot + X-Pka-Offset
func (p *Primary) Handler(base http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", base)
	mux.HandleFunc("GET /v1/log", p.serveLog)
	mux.HandleFunc("GET /v1/snapshot", p.serveSnapshot)
	return mux
}

// writeJSONError mirrors the query server's error body shape.
func writeJSONError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{Error: err.Error()})
}

func (p *Primary) serveLog(w http.ResponseWriter, r *http.Request) {
	fromStr := r.URL.Query().Get("from")
	from, err := strconv.ParseUint(fromStr, 10, 64)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Errorf("cluster: bad from %q", fromStr))
		return
	}
	max := defaultLogPage
	if s := r.URL.Query().Get("max"); s != "" {
		if max, err = strconv.Atoi(s); err != nil || max < 1 {
			writeJSONError(w, http.StatusBadRequest, fmt.Errorf("cluster: bad max %q", s))
			return
		}
		if max > maxLogPage {
			max = maxLogPage
		}
	}
	recs, next, err := p.log.Read(from, max)
	if err != nil {
		// Only an offset outside the log is the caller's fault, and replicas
		// treat a 4xx as permanent; a read or checksum failure here is the
		// primary's own and stays retryable.
		status := http.StatusInternalServerError
		if errors.Is(err, replog.ErrOutOfRange) {
			status = http.StatusBadRequest
		}
		writeJSONError(w, status, err)
		return
	}
	resp := logResponse{From: from, Next: next, End: p.log.Next(), Records: make([]json.RawMessage, len(recs))}
	for i, rec := range recs {
		resp.Records[i] = json.RawMessage(rec)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// serveSnapshot streams a PKAS snapshot taken under the ingest mutex, so
// the snapshot's state corresponds exactly to the log offset in the
// X-Pka-Offset header — the pair a replica boots from.
func (p *Primary) serveSnapshot(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	var buf bytes.Buffer
	err := p.Bank.SaveSnapshot(&buf)
	off := p.log.Next()
	p.mu.Unlock()
	if err != nil {
		writeJSONError(w, http.StatusInternalServerError, fmt.Errorf("cluster: snapshotting: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Pka-Offset", strconv.FormatUint(off, 10))
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	_, _ = w.Write(buf.Bytes())
}
