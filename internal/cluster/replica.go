package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pka/internal/kb"
	"pka/internal/query"
)

// BankLoader restores an updatable bank from a PKAS snapshot stream — the
// root package's pka.LoadModelSnapshot, passed in as a function so cluster
// need not import it.
type BankLoader func(r io.Reader) (Bank, error)

// Replica is a read-only follower of a primary's data bank: it boots from
// the primary's consistent snapshot (GET /v1/snapshot, whose X-Pka-Offset
// header says which log offset the snapshot captures), then tails
// GET /v1/log from that offset, applying each observe batch through the
// same incremental-update path the primary ran. Snapshot state plus
// ordered replay is exactly the primary's history, so after applying
// offset k the replica's engine — and every answer it serves — is
// bit-identical to the primary's at version k.
//
// The embedded query.Querier serves every read. A Replica is deliberately
// NOT a query.Ingestor: POST /v1/observe on a replica answers 501; writes
// belong to the primary.
type Replica struct {
	query.Querier
	bank    Bank
	primary string
	client  *http.Client
	poll    time.Duration

	// applied is the next log offset to apply — equally, the replica's
	// model version. target is the primary's last known end offset.
	applied atomic.Int64
	target  atomic.Int64
	// caughtUp flips once applied first reaches the primary's end; before
	// that the replica reports unready so balancers skip the cold start.
	caughtUp atomic.Bool

	mu     sync.Mutex
	broken error
}

// BootReplica fetches the primary's snapshot, restores a bank from it, and
// returns a replica positioned at the snapshot's log offset. Call Follow
// to start tailing.
func BootReplica(ctx context.Context, primaryURL string, load BankLoader, poll time.Duration, client *http.Client) (*Replica, error) {
	if client == nil {
		client = http.DefaultClient
	}
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, primaryURL+"/v1/snapshot", nil)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: fetching primary snapshot: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: primary snapshot returned %s", resp.Status)
	}
	offset, err := strconv.ParseInt(resp.Header.Get("X-Pka-Offset"), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("cluster: primary snapshot carried no X-Pka-Offset header")
	}
	bank, err := load(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("cluster: restoring primary snapshot: %w", err)
	}
	r := &Replica{
		Querier: bank,
		bank:    bank,
		primary: primaryURL,
		client:  client,
		poll:    poll,
	}
	r.applied.Store(offset)
	r.target.Store(offset)
	// The snapshot IS the primary's state at its offset: a fresh boot is
	// caught up until a log page reveals a farther end.
	r.caughtUp.Store(true)
	return r, nil
}

// Version returns the replica's model version: the log offset applied
// through. Comparable with the version /v1/observe returned on the
// primary — version-gated read-your-writes.
func (r *Replica) Version() int64 { return r.applied.Load() }

// KnowledgeBase exposes the booted bank's compiled knowledge base, so a
// batch on a replica answers every query from one snapshot (each batch
// grabs the current one; a concurrent apply swaps the next one in
// atomically, exactly as on the primary).
func (r *Replica) KnowledgeBase() *kb.KnowledgeBase {
	if kp, ok := r.bank.(interface{ KnowledgeBase() *kb.KnowledgeBase }); ok {
		return kp.KnowledgeBase()
	}
	return nil
}

// CacheStats forwards the booted bank's cache tiers (see Primary's note).
func (r *Replica) CacheStats() []query.CacheTierStats {
	if cs, ok := r.bank.(query.CacheStatsReporter); ok {
		return cs.CacheStats()
	}
	return nil
}

// Readiness reports catch-up state: unready until the replica has applied
// everything the primary had when first asked, unready again only if the
// stream breaks (a failed apply poisons the replica — it keeps serving its
// last consistent state but must be re-bootstrapped).
func (r *Replica) Readiness() query.Readiness {
	r.mu.Lock()
	broken := r.broken
	r.mu.Unlock()
	applied, target := r.applied.Load(), r.target.Load()
	rd := query.Readiness{
		Ready:   broken == nil && r.caughtUp.Load(),
		Role:    "replica",
		Version: applied,
		Target:  target,
		Lag:     target - applied,
	}
	if broken != nil {
		rd.Error = broken.Error()
	}
	return rd
}

// Err returns the fault that poisoned the replica, nil while healthy.
func (r *Replica) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.broken
}

// Follow tails the primary's log until ctx is canceled, applying each
// batch in offset order. Transport errors and 5xx answers are retried
// after the poll interval (the primary may be restarting). An apply
// failure, or a 4xx answer from the log (the primary refuses the
// replica's offset, e.g. a primary reset behind it), is fatal — state has
// forked, so Follow poisons the replica and returns. A canceled context
// returns nil.
func (r *Replica) Follow(ctx context.Context) error {
	for {
		n, err := r.catchUp(ctx)
		switch {
		case err != nil && ctx.Err() != nil:
			return nil
		case err != nil && !isTransient(err):
			r.mu.Lock()
			r.broken = err
			r.mu.Unlock()
			return err
		case err == nil && n > 0:
			// More records may be waiting: keep draining without sleeping.
			continue
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(r.poll):
		}
	}
}

// transientError marks a fetch failure worth retrying (network flaps, a
// primary mid-restart) as opposed to an apply failure or a refused offset
// that forked state.
type transientError struct{ err error }

func (t transientError) Error() string { return t.err.Error() }
func (t transientError) Unwrap() error { return t.err }

func isTransient(err error) bool {
	_, ok := err.(transientError)
	return ok
}

// catchUp fetches and applies one page of the log, returning how many
// records were applied.
func (r *Replica) catchUp(ctx context.Context) (int, error) {
	from := r.applied.Load()
	url := fmt.Sprintf("%s/v1/log?from=%d&max=%d", r.primary, from, defaultLogPage)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, transientError{err}
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, transientError{err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		err := fmt.Errorf("cluster: primary log returned %s: %s", resp.Status, body)
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			return 0, err
		}
		return 0, transientError{err}
	}
	var page logResponse
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		return 0, transientError{fmt.Errorf("cluster: decoding log page: %w", err)}
	}
	r.target.Store(int64(page.End))
	for i, raw := range page.Records {
		var rec logRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return i, fmt.Errorf("cluster: decoding log record %d: %w", from+int64(i), err)
		}
		if _, err := r.bank.ObserveLabeled(rec.Rows); err != nil {
			return i, fmt.Errorf("cluster: applying log record %d: %w", from+int64(i), err)
		}
		r.applied.Add(1)
	}
	if r.applied.Load() >= r.target.Load() {
		r.caughtUp.Store(true)
	}
	return len(page.Records), nil
}
