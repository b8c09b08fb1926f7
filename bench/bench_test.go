package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestQuickRun runs every workload once in the -quick configuration with
// tracing on and checks what BENCHMARK.json promises: every end-to-end and
// per-layer metric is emitted with its unit, the output checks pass, the
// trace files parse, and no layer's self time is negative.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds pka and runs every workload")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := readSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "results.jsonl")
	tracePrefix := filepath.Join(dir, "trace")
	var stdout, stderr bytes.Buffer
	start := time.Now()
	code := run([]string{
		"-quick", "-seconds", "2", "-workload", "all", "-trace", "1",
		"-root", root, "-build-dir", dir, "-out", out, "-trace-out", tracePrefix,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s\nstdout: %s", code, stderr.String(), stdout.String())
	}
	t.Logf("quick run of every workload took %s", time.Since(start).Round(time.Millisecond))

	results, err := readResults(out)
	if err != nil {
		t.Fatal(err)
	}
	layerUnits := map[string]string{}
	for _, m := range sp.PerLayer {
		layerUnits[m.Name] = m.Unit
	}
	for _, w := range sp.Workloads {
		rs := results[w.Name]
		if len(rs) != 1 {
			t.Errorf("%s: %d result records, want 1", w.Name, len(rs))
			continue
		}
		res := rs[0]
		for _, c := range res.Checks {
			if !c.OK {
				t.Errorf("%s: check %s failed: %s", w.Name, c.Name, c.Detail)
			}
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s: correct %v, attempted %d, failed %d", w.Name, res.Correct, res.Attempted, res.Failed)
		}
		for _, m := range sp.EndToEnd {
			got, ok := res.EndToEnd[m.Name]
			if !ok || got.Unit != m.Unit || !(got.Value > 0) {
				t.Errorf("%s: end-to-end %s = %+v, want a positive value in %s", w.Name, m.Name, got, m.Unit)
			}
		}
		for name, unit := range layerUnits {
			if got, ok := res.PerLayer[name]; !ok || got.Unit != unit {
				t.Errorf("%s: per-layer %s = %+v, want unit %s", w.Name, name, got, unit)
			}
		}
		for name := range res.PerLayer {
			if _, ok := layerUnits[name]; !ok {
				t.Errorf("%s: per-layer %s is not listed in BENCHMARK.json", w.Name, name)
			}
		}
		for _, l := range res.Layers {
			if l.SelfMs < 0 {
				t.Errorf("%s: layer %s has negative self time %g ms", w.Name, l.Name, l.SelfMs)
			}
		}
		data, err := os.ReadFile(tracePrefix + "." + w.Name + ".json")
		if err != nil {
			t.Errorf("%s: %v", w.Name, err)
			continue
		}
		var trace struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Ph   string  `json:"ph"`
				Dur  float64 `json:"dur"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &trace); err != nil || len(trace.TraceEvents) == 0 {
			t.Errorf("%s: trace does not parse or is empty: %v", w.Name, err)
		}
	}

	// The last line is the contract line of the last workload: the traced
	// run reports exactly the per-layer metrics.
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    *int `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !last.Correct || last.Attempted < 1 || last.Failed == nil || len(last.Metrics) != len(layerUnits) {
		t.Errorf("last line: correct %v, attempted %d, %d metrics (want %d)", last.Correct, last.Attempted, len(last.Metrics), len(layerUnits))
	}
	for name, m := range last.Metrics {
		if m.Value == nil || m.Unit != layerUnits[name] {
			t.Errorf("last line: metric %s = %+v", name, m)
		}
	}
}

func TestCoveredMergesOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	parent := span{ID: 1, Start: 0, End: 100 * ms}
	children := []span{
		{Parent: 1, Start: 50 * ms, End: 70 * ms},
		{Parent: 1, Start: 10 * ms, End: 30 * ms},
		{Parent: 1, Start: 20 * ms, End: 40 * ms},  // overlaps the previous child
		{Parent: 1, Start: 90 * ms, End: 120 * ms}, // clipped to the parent
	}
	if got, want := covered(parent, children), 60*ms; got != want {
		t.Errorf("covered = %v, want %v", got, want)
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, b := range base {
			out[i] = b * f
		}
		return out
	}
	// Seed-exact values that differ a lot between seeds, as holdout_nats
	// does: pairing must still see a 0.2% change against a 0.1% bound.
	exact := []float64{5.40, 5.44, 5.38, 5.47, 5.35, 5.42, 5.39, 5.45, 5.36, 5.41}
	exactWorse := make([]float64, len(exact))
	for i, v := range exact {
		exactWorse[i] = v * 1.002
	}
	for _, tc := range []struct {
		name      string
		base, cur []float64
		better    string
		bound     float64
		want      string
	}{
		{"same", base, base, "lower", 0.1, "no worse"},
		{"slower", base, scaled(1.2), "lower", 0.1, "worse"},
		{"faster", base, scaled(0.8), "lower", 0.1, "better"},
		{"faster in too few pairs", base[:5], scaled(0.8)[:5], "lower", 0.1, "no worse"},
		{"noisy", base, []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, "lower", 0.1, "unresolved"},
		{"higher is better", base, scaled(1.2), "higher", 0.1, "better"},
		{"higher is better, lower", base, scaled(0.8), "higher", 0.1, "worse"},
		{"seed-exact, unchanged", exact, exact, "lower", 0.001, "no worse"},
		{"seed-exact, worse", exact, exactWorse, "lower", 0.001, "worse"},
	} {
		if got := judge(tc.base, tc.cur, tc.better, tc.bound).verdict; got != tc.want {
			t.Errorf("%s: verdict = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestPairRunsBySeed(t *testing.T) {
	run := func(seed int64, v float64) result {
		return result{Env: environment{Seed: seed}, EndToEnd: map[string]metric{"m": {Value: v}}}
	}
	base := []result{run(1, 10), run(2, 20), run(1, 11), run(3, 30)}
	cur := []result{run(2, 21), run(1, 12), run(4, 40), run(1, 13)}
	pairs, unpaired := pairRuns(base, cur)
	var got [][2]float64
	for _, p := range pairs {
		got = append(got, [2]float64{p[0].EndToEnd["m"].Value, p[1].EndToEnd["m"].Value})
	}
	want := [][2]float64{{10, 12}, {11, 13}, {20, 21}}
	if fmt.Sprint(got) != fmt.Sprint(want) || unpaired != 2 {
		t.Errorf("pairs %v, %d unpaired; want %v, 2 unpaired", got, unpaired, want)
	}
}
