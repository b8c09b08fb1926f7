package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pka"
	"pka/internal/cluster"
	"pka/internal/replog"
	"pka/internal/server"
)

// cmdServe runs the knowledge-base query server:
//
//	pka serve -kb kb.json [-addr :8080] [-max-batch N]
//	pka serve -data data.csv [-sparse] [-screen] [-max-order N] ...
//	pka serve -data data.csv -log observe.log            # replicated primary
//	pka serve -replica-of http://primary:8080            # read replica
//
// With -kb the model is loaded from a saved file and served read-only.
// With -data the model is discovered from the CSV at startup and served
// with streaming ingest enabled: POST /v1/observe folds new observation
// rows into the model (incremental refit, atomic engine swap) while
// queries keep flowing. SIGINT/SIGTERM trigger a graceful shutdown.
//
// The replication modes compose the same server:
//
//   - -log turns the ingest server into a replicated primary: every applied
//     observe batch is appended to the CRC-framed log and served to
//     replicas via GET /v1/log and GET /v1/snapshot. On restart the log is
//     replayed over the freshly discovered seed, so the primary resumes at
//     its exact pre-crash version (the seed discovery is deterministic —
//     keep -data pointed at the same CSV).
//   - -replica-of boots from the primary's snapshot, tails its log, and
//     serves reads that are bit-identical to the primary at the applied
//     offset; writes answer 501. GET /readyz reports catch-up lag.
func cmdServe(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	cfg := serveConfig{}
	fs.StringVar(&cfg.kbPath, "kb", "", "knowledge base to serve read-only: JSON or PKAS binary snapshot, auto-detected by magic bytes")
	fs.StringVar(&cfg.dataPath, "data", "", "observation CSV: discover at startup and serve with streaming ingest")
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.IntVar(&cfg.maxBatch, "max-batch", 0, "max queries per batch request (0 = default)")
	fs.IntVar(&cfg.maxObserve, "max-observe", 0, "max rows per observe request (0 = default)")
	fs.Int64Var(&cfg.cacheBytes, "cache-bytes", 32<<20, "serving-cache capacity in bytes per tier (0 disables, negative unbounded)")
	fs.IntVar(&cfg.workers, "workers", 0, "with -data: worker goroutines for the significance scans, at startup discovery and on every /v1/observe refit (0 = all cores, 1 = serial)")
	fs.IntVar(&cfg.maxCard, "max-card", 64, "with -data: reject CSV columns with more distinct values than this")
	fs.IntVar(&cfg.maxOrder, "max-order", 0, "with -data: highest attribute-family order to scan (0 = all)")
	fs.BoolVar(&cfg.sparse, "sparse", false, "with -data: wide-schema mode (sparse tabulation, factored engine)")
	fs.BoolVar(&cfg.screen, "screen", false, "with -data: gate order >= 2 scans on a pairwise association screen")
	fs.Float64Var(&cfg.screenAlpha, "screen-alpha", 0, "with -data: screen p-value threshold (0 = Bonferroni)")
	fs.BoolVar(&cfg.screenCI, "screen-ci", false, "with -data: refine -screen with conditional-independence triple tests")
	fs.Float64Var(&cfg.screenCIAlpha, "screen-ci-alpha", 0, "with -data: independence p-value for -screen-ci (0 = 0.05)")
	fs.StringVar(&cfg.logPath, "log", "", "with -data: replicated-primary mode — append applied observe batches to this log and serve /v1/log + /v1/snapshot for replicas")
	fs.StringVar(&cfg.replicaOf, "replica-of", "", "read-replica mode: boot from this primary's snapshot and follow its observe log")
	fs.DurationVar(&cfg.poll, "poll", 200*time.Millisecond, "with -replica-of: log tail poll interval")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	return runServe(ctx, w, cfg, nil)
}

// serveConfig carries cmdServe's flags so tests can drive runServe
// directly.
type serveConfig struct {
	kbPath, dataPath  string
	addr              string
	maxBatch          int
	maxObserve        int
	cacheBytes        int64
	workers           int
	maxCard, maxOrder int
	sparse            bool
	screen            bool
	screenAlpha       float64
	screenCI          bool
	screenCIAlpha     float64

	// Replication modes.
	logPath   string
	replicaOf string
	poll      time.Duration
}

func (c serveConfig) serverOptions() server.Options {
	return server.Options{
		MaxBatch:       c.maxBatch,
		MaxObserveRows: c.maxObserve,
		CacheBytes:     c.cacheBytes,
	}
}

// runServe is cmdServe minus flag and signal handling, so tests can drive
// it with their own context and capture the bound address.
func runServe(ctx context.Context, w io.Writer, cfg serveConfig, ready func(net.Addr)) error {
	sources := 0
	for _, s := range []string{cfg.kbPath, cfg.dataPath, cfg.replicaOf} {
		if s != "" {
			sources++
		}
	}
	if sources != 1 {
		return fmt.Errorf("serve: exactly one of -kb (read-only), -data (streaming ingest), or -replica-of (follower) is required")
	}
	if cfg.logPath != "" && cfg.dataPath == "" {
		return fmt.Errorf("serve: -log (replicated primary) needs -data for the seed model")
	}
	if cfg.replicaOf != "" {
		return runServeReplica(ctx, w, cfg, ready)
	}

	var model pka.Querier
	source := cfg.kbPath
	mode := "read-only"
	if cfg.dataPath != "" {
		source = cfg.dataPath
		mode = "streaming ingest"
		opts := pka.Options{
			MaxOrder:      cfg.maxOrder,
			ScreenPairs:   cfg.screen,
			ScreenAlpha:   cfg.screenAlpha,
			ScreenCI:      cfg.screenCI,
			ScreenCIAlpha: cfg.screenCIAlpha,
			Workers:       cfg.workers,
		}
		codes, err := scanCSVFile(cfg.dataPath, cfg.maxCard)
		if err == nil {
			model, err = discoverCodes(codes, cfg.sparse, 0, opts)
		}
		if err != nil {
			return fmt.Errorf("serve: discovering from %s: %w", cfg.dataPath, err)
		}
	} else {
		var err error
		model, err = loadKB(cfg.kbPath)
		if err != nil {
			return err
		}
	}
	if ce, ok := model.(interface{ EnableCache(capacityBytes int64) }); ok {
		ce.EnableCache(cfg.cacheBytes)
	}
	handler := server.NewWithOptions(model, cfg.serverOptions())
	if cfg.logPath != "" {
		// Replicated primary: replay the log over the deterministic seed
		// (a restart resumes exactly where it stopped), then route every
		// observe through the apply+append critical section.
		bank, ok := model.(cluster.Bank)
		if !ok {
			return fmt.Errorf("serve: -log needs an ingest-capable model")
		}
		lg, err := replog.Open(cfg.logPath)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		defer lg.Close()
		if _, err := cluster.Replay(lg, bank, 0); err != nil {
			return fmt.Errorf("serve: replaying %s: %w", cfg.logPath, err)
		}
		p, err := cluster.NewPrimary(bank, lg)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		handler = p.Handler(server.NewWithOptions(p, cfg.serverOptions()))
		mode = fmt.Sprintf("primary, log %s at offset %d", cfg.logPath, lg.Next())
	}
	info := model.(interface{ Info() pka.Info }).Info()
	announce := func(a net.Addr) {
		fmt.Fprintf(w, "serving %s (%d attributes, %d constraints, %s) on %s\n",
			source, info.Attributes, info.Constraints, mode, a)
		if ready != nil {
			ready(a)
		}
	}
	if err := server.ListenAndServe(ctx, cfg.addr, handler, announce); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	fmt.Fprintln(w, "server stopped")
	return nil
}

// runServeReplica boots from the primary's snapshot, follows its log in
// the background, and serves reads.
func runServeReplica(ctx context.Context, w io.Writer, cfg serveConfig, ready func(net.Addr)) error {
	load := func(r io.Reader) (cluster.Bank, error) {
		m, err := pka.LoadModelSnapshot(r)
		if err != nil {
			return nil, err
		}
		m.EnableCache(cfg.cacheBytes)
		return m, nil
	}
	rep, err := cluster.BootReplica(ctx, strings.TrimRight(cfg.replicaOf, "/"), load, cfg.poll, http.DefaultClient)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	go func() {
		if err := rep.Follow(ctx); err != nil {
			// The replica keeps serving its last consistent state but
			// reports unready; surface the fault for the operator.
			fmt.Fprintf(w, "replica: log stream broken: %v\n", err)
		}
	}()
	announce := func(a net.Addr) {
		fmt.Fprintf(w, "serving replica of %s (boot version %d, read-only) on %s\n",
			cfg.replicaOf, rep.Version(), a)
		if ready != nil {
			ready(a)
		}
	}
	if err := server.ListenAndServe(ctx, cfg.addr, server.NewWithOptions(rep, cfg.serverOptions()), announce); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	fmt.Fprintln(w, "server stopped")
	return nil
}
