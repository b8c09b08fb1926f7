// Command bench is pka's end-to-end benchmark. It builds ./cmd/pka, makes
// every input from -seed, drives the real program as a subprocess (pka
// discover, pka snapshot, pka serve), checks what the program produced, and
// prints every metric with its unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// From the repository root:
//
//	bash bench/run.sh --workload serve_dense_zipf --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh --workload all --trace 1
//
// From bench/:
//
//	go run . -workload acquire_dense -out res.jsonl
//	go run . -compare base.jsonl new.jsonl
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with -trace 1 the run also repeats the workload in-process with spans
// around every layer call and reports the per-layer metrics instead. See
// README.md for the workloads, the metrics and their bounds.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceOut string
	out      string
	quick    bool
	root     string
	buildDir string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 25, "length of the measured phase of one run, in seconds")
	fs.IntVar(&cfg.trace, "trace", 0, "1 repeats the workload in-process with layer spans and reports the per-layer metrics")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "Chrome trace-event JSON written by -trace 1 (default <build-dir>/trace-<workload>.json)")
	fs.StringVar(&cfg.out, "out", "", "append each full result record as one JSON line to this file")
	fs.BoolVar(&cfg.quick, "quick", false, "small inputs and short phases (the test configuration)")
	fs.StringVar(&cfg.root, "root", "", "repository root (default: the nearest directory upwards holding module pka)")
	fs.StringVar(&cfg.buildDir, "build-dir", "", "where pka is built and inputs are written (default <root>/.bench_build)")
	compare := fs.Bool("compare", false, "compare two -out files: -compare base.jsonl new.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := resolveRoot(&cfg); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		if err := compareFiles(stdout, cfg.root, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if cfg.trace != 0 && cfg.trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadNames()
	}
	for _, name := range names {
		if _, ok := workloadByName(name); !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q (want %s, or all)\n", name, strings.Join(workloadNames(), ", "))
			return 2
		}
	}
	pkaBin, err := buildPka(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, name := range names {
		res, err := runWorkload(cfg, pkaBin, name, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		if cfg.out != "" {
			if err := appendJSONLine(cfg.out, res); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		if err := printResultLine(stdout, res, cfg.trace == 1); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return 0
}

// resolveRoot fills in the repository root and build directory.
func resolveRoot(cfg *config) error {
	if cfg.root == "" {
		dir, err := os.Getwd()
		if err != nil {
			return err
		}
		for {
			if isPkaRoot(dir) {
				cfg.root = dir
				break
			}
			parent := filepath.Dir(dir)
			if parent == dir {
				return errors.New("no parent directory holds module pka; pass -root")
			}
			dir = parent
		}
	}
	root, err := filepath.Abs(cfg.root)
	if err != nil {
		return err
	}
	cfg.root = root
	if !isPkaRoot(root) {
		return fmt.Errorf("%s does not hold module pka", root)
	}
	if cfg.buildDir == "" {
		cfg.buildDir = filepath.Join(root, ".bench_build")
	}
	return nil
}

// isPkaRoot reports whether dir's go.mod declares module pka.
func isPkaRoot(dir string) bool {
	f, err := os.Open(filepath.Join(dir, "go.mod"))
	if err != nil {
		return false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) == 2 && fields[0] == "module" {
			return fields[1] == "pka"
		}
	}
	return false
}

// buildPka compiles ./cmd/pka into the build directory. The build is not
// part of any measurement.
func buildPka(cfg config) (string, error) {
	bin := filepath.Join(cfg.buildDir, "bin", "pka")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/pka")
	cmd.Dir = cfg.root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("building ./cmd/pka: %v\n%s", err, out)
	}
	return bin, nil
}

// environment records where and how a result was measured.
type environment struct {
	Go         string  `json:"go"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick"`
	Trace      bool    `json:"trace"`
	GitHead    string  `json:"git_head,omitempty"`
	// Ladder and LatencyLimitMs are the serving workload's fixed rate
	// ladder and the p99 limit a ladder step must meet.
	Ladder         []float64 `json:"ladder_qps"`
	LatencyLimitMs float64   `json:"latency_limit_ms"`
}

func newEnvironment(cfg config, sz sizes) environment {
	return environment{
		Go:             runtime.Version(),
		NumCPU:         runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		Seed:           cfg.seed,
		Seconds:        cfg.seconds,
		Quick:          cfg.quick,
		Trace:          cfg.trace == 1,
		GitHead:        gitHead(cfg.root),
		Ladder:         sz.ladder,
		LatencyLimitMs: latencyLimitMs,
	}
}

// gitHead returns the checked-out commit, or "" outside a git work tree.
func gitHead(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return ""
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// metric is one reported number. Timings carry the quartiles and the
// sample count they were taken from.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	P25   float64 `json:"p25,omitempty"`
	P75   float64 `json:"p75,omitempty"`
}

// check is one output check.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is the full record of one workload run, the line -out appends.
type result struct {
	Workload  string            `json:"workload"`
	Env       environment       `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Steps     []step            `json:"steps,omitempty"`
	Checks    []check           `json:"checks"`
	Layers    []layerTime       `json:"layers,omitempty"`
	// Digest identifies what the program answered after the workload's
	// writes; equal seeds must give equal digests.
	Digest string `json:"digest,omitempty"`
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// ops counts attempted and failed operations.
func (r *result) ops(attempted, failed int) {
	r.Attempted += attempted
	r.Failed += failed
}

func (r *result) e2e(name string, m metric) { r.EndToEnd[name] = m }

func (r *result) layer(name string, value float64, unit string) {
	r.PerLayer[name] = metric{Value: value, Unit: unit}
}

// printResultLine writes the contract line: the run's verdict plus the
// end-to-end metrics, or the per-layer metrics of a traced run.
func printResultLine(w io.Writer, res *result, traced bool) error {
	src := res.EndToEnd
	if traced {
		src = res.PerLayer
	}
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]valueUnit, len(src))
	for name, m := range src {
		metrics[name] = valueUnit{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return fmt.Errorf("encoding result line: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func appendJSONLine(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints the human-readable summary of a finished run.
func report(w io.Writer, res *result) {
	fmt.Fprintf(w, "== %s (seed %d, %d attempted, %d failed)\n", res.Workload, res.Env.Seed, res.Attempted, res.Failed)
	printMetrics(w, "end-to-end", res.EndToEnd)
	if len(res.PerLayer) > 0 {
		printMetrics(w, "per-layer", res.PerLayer)
	}
	for _, s := range res.Steps {
		loop := fmt.Sprintf("late p99 %6.3f ms  pass %v", s.LateP99Ms, s.Pass)
		if s.Closed {
			loop = "closed loop"
		}
		fmt.Fprintf(w, "  step %-7s %5.0f/s  sent %6d  failed %3d  p50 %6.3f  p90 %6.3f  p99 %6.3f  batch p50 %6.3f p99 %6.3f ms  wire hits %5.1f%%  %s\n",
			s.Name, s.Rate, s.Sent, s.Failed, s.P50Ms, s.P90Ms, s.P99Ms, s.BatchP50Ms, s.BatchP99Ms, 100*s.wireHitRatio(), loop)
	}
	if len(res.Layers) > 0 {
		fmt.Fprintln(w, "  layer self time (span total minus time covered by child spans):")
		for _, l := range res.Layers {
			fmt.Fprintf(w, "    %-28s %6d spans  total %10.3f ms  self %10.3f ms\n", l.Name, l.Count, l.TotalMs, l.SelfMs)
		}
	}
	for _, c := range res.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %-22s %s\n", status, c.Name, c.Detail)
	}
	fmt.Fprintf(w, "  correct: %v\n", res.Correct)
}

func printMetrics(w io.Writer, title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %s:\n", title)
	for _, n := range names {
		m := ms[n]
		if m.N > 0 {
			fmt.Fprintf(w, "    %-30s %14.6g %-6s (n=%d, p25 %.6g, p75 %.6g)\n", n, m.Value, m.Unit, m.N, m.P25, m.P75)
		} else {
			fmt.Fprintf(w, "    %-30s %14.6g %s\n", n, m.Value, m.Unit)
		}
	}
}
