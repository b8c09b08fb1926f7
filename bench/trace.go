package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of the layer; the program itself is not instrumented.
type span struct {
	ID, Parent int // Parent 0 marks a root span
	Name       string
	Start, End time.Duration // since the tracer's origin
	RID        int           // request id on serving spans, 0 elsewhere
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced and traced in-process repetitions share code.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent, rid int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: time.Since(t.origin), RID: rid})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.origin)
}

// span runs fn inside a span and returns how long it took; the duration is
// measured whether or not spans are recorded.
func (t *tracer) span(name string, parent int, fn func() error) (time.Duration, error) {
	start := time.Now()
	id := t.begin(name, parent, 0)
	err := fn()
	t.end(id)
	return time.Since(start), err
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	// SelfMs is the spans' duration minus the part of it their child spans
	// cover.
	SelfMs float64 `json:"self_ms"`
}

// covered returns how much of span s its children's intervals cover.
func covered(s span, children []span) time.Duration {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var total time.Duration
	cur, curEnd := s.Start, s.Start
	for _, c := range children {
		start, end := max(c.Start, s.Start), min(c.End, s.End)
		if end <= start {
			continue
		}
		if start > curEnd {
			total += curEnd - cur
			cur = start
		}
		curEnd = max(curEnd, end)
	}
	return total + curEnd - cur
}

// summarize returns per-name self times and the smallest share of a root
// span that its children cover.
func (t *tracer) summarize() ([]layerTime, float64) {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*layerTime{}
	var names []string
	minCoverage := 1.0
	for _, s := range t.spans {
		dur := s.End - s.Start
		cov := covered(s, children[s.ID])
		l := byName[s.Name]
		if l == nil {
			l = &layerTime{Name: s.Name}
			byName[s.Name] = l
			names = append(names, s.Name)
		}
		l.Count++
		l.TotalMs += ms(dur)
		l.SelfMs += ms(dur - cov)
		if s.Parent == 0 && dur > 0 {
			minCoverage = min(minCoverage, float64(cov)/float64(dur))
		}
	}
	out := make([]layerTime, len(names))
	for i, n := range names {
		out[i] = *byName[n]
	}
	return out, minCoverage
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		args := map[string]int{"id": s.ID, "parent": s.Parent}
		if s.RID != 0 {
			args["rid"] = s.RID
		}
		events[i] = event{
			Name: s.Name, Cat: "pka", Ph: "X",
			Ts: us(s.Start), Dur: us(s.End - s.Start),
			Pid: 1, Tid: 1, Args: args,
		}
	}
	data, err := json.Marshal(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{events, "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// finishTrace records the traced run's layer summary, checks that child
// spans cover the root spans, and writes the trace file.
func (r *runner) finishTrace() error {
	layers, coverage := r.tr.summarize()
	r.res.Layers = layers
	r.res.layer("trace.root_coverage", coverage, "ratio")
	r.res.check("trace_coverage", coverage >= 0.9, "children cover %.1f%% of the root span", 100*coverage)
	path := r.cfg.traceOut
	if path == "" {
		path = filepath.Join(r.cfg.buildDir, "trace-"+r.res.Workload+".json")
	} else if r.cfg.workload == "all" {
		path = fmt.Sprintf("%s.%s.json", path, r.res.Workload)
	}
	if err := r.tr.writeChrome(path); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	r.logf("trace written to %s (%d spans)", path, len(r.tr.spans))
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
