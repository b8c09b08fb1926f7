package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// spec is the part of BENCHMARK.json the comparison reads.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// readResults reads the result records an -out file accumulated, grouped
// by workload.
func readResults(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out, sc.Err()
}

// compareFiles prints one row per workload and end-to-end metric: each
// side's median and quartiles over its runs, the median paired change, how
// many pairs the new side won, and a verdict against the metric's bound in
// BENCHMARK.json. Runs are paired by seed.
func compareFiles(w io.Writer, root, basePath, newPath string) error {
	sp, err := readSpec(root)
	if err != nil {
		return err
	}
	base, err := readResults(basePath)
	if err != nil {
		return err
	}
	cur, err := readResults(newPath)
	if err != nil {
		return err
	}
	var names []string
	for name := range base {
		if _, ok := cur[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("%s and %s share no workload", basePath, newPath)
	}
	fmt.Fprintf(w, "%-18s %-14s %30s %30s %8s %6s %6s  %s\n", "workload", "metric", "base median [p25, p75] (n)", "new median [p25, p75] (n)", "change", "wins", "bound", "verdict")
	for _, name := range names {
		pairs, unpaired := pairRuns(base[name], cur[name])
		if len(pairs) == 0 {
			fmt.Fprintf(w, "%-18s no base and new runs share a seed\n", name)
			continue
		}
		for _, m := range sp.EndToEnd {
			var b, c []float64
			for _, p := range pairs {
				bm, ok1 := p[0].EndToEnd[m.Name]
				cm, ok2 := p[1].EndToEnd[m.Name]
				if ok1 && ok2 {
					b, c = append(b, bm.Value), append(c, cm.Value)
				}
			}
			if len(b) == 0 {
				fmt.Fprintf(w, "%-18s %-14s missing on one side\n", name, m.Name)
				continue
			}
			v := judge(b, c, m.Better, m.Bound)
			fmt.Fprintf(w, "%-18s %-14s %30s %30s %+7.2f%% %6s %5.1f%%  %s\n", name, m.Name,
				describe(b, m.Unit), describe(c, m.Unit), 100*v.change, fmt.Sprintf("%d/%d", v.wins, len(b)), 100*m.Bound, v.verdict)
		}
		var bs, cs []result
		for _, p := range pairs {
			bs, cs = append(bs, p[0]), append(cs, p[1])
		}
		bf, cf := failedShare(bs), failedShare(cs)
		fmt.Fprintf(w, "%-18s %-14s %29.4f%% %29.4f%% %+7.4f pp\n", name, "failed share", 100*bf, 100*cf, 100*(cf-bf))
		if unpaired > 0 {
			fmt.Fprintf(w, "%-18s %d runs without a partner of the same seed left out\n", name, unpaired)
		}
	}
	return nil
}

// pairRuns pairs base and new runs of one workload by seed: the k-th base
// run of a seed with the k-th new run of that seed. It returns the pairs,
// ordered by seed, and the number of runs left without a partner.
func pairRuns(base, cur []result) ([][2]result, int) {
	bySeed := map[int64][]result{}
	for _, r := range cur {
		bySeed[r.Env.Seed] = append(bySeed[r.Env.Seed], r)
	}
	var pairs [][2]result
	for _, b := range base {
		if c := bySeed[b.Env.Seed]; len(c) > 0 {
			pairs = append(pairs, [2]result{b, c[0]})
			bySeed[b.Env.Seed] = c[1:]
		}
	}
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i][0].Env.Seed < pairs[j][0].Env.Seed })
	return pairs, len(base) + len(cur) - 2*len(pairs)
}

func describe(v []float64, unit string) string {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return fmt.Sprintf("%.4g %s [%.4g, %.4g] (%d)", quantile(s, 0.5), unit, quantile(s, 0.25), quantile(s, 0.75), len(s))
}

// judgement is the comparison of one metric over paired runs.
type judgement struct {
	change  float64 // median paired change as a share of the base run; positive is worse
	wins    int     // pairs in which the new run is strictly better
	verdict string
}

// judge compares paired runs: base[i] and cur[i] share a seed. Each pair's
// change is a share of its base run, signed so that positive is worse. The
// verdict is
//   - better: at least ten pairs, the new run wins at least nine tenths of
//     them (ties count for neither side), and the medians differ by more
//     than the base runs' own interquartile distance;
//   - unresolved: the paired changes spread wider than the bound, between
//     their quartiles, and not every new run beats every base run;
//   - worse: the median paired change is worse than the bound;
//   - no worse: otherwise.
//
// Pairing takes the seed's own effect out: a metric that is exact for a
// seed, such as holdout_nats, changes by exactly 0 between two runs of
// the same code.
func judge(base, cur []float64, better string, bound float64) judgement {
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	var j judgement
	changes := make([]float64, len(base))
	for i := range base {
		changes[i] = sign * (cur[i] - base[i]) / math.Abs(base[i])
		if changes[i] < 0 {
			j.wins++
		}
	}
	j.change = median(changes)
	sb, sc := append([]float64(nil), base...), append([]float64(nil), cur...)
	sort.Float64s(sb)
	sort.Float64s(sc)
	baseIQR := quantile(sb, 0.75) - quantile(sb, 0.25)
	medianGain := sign * (quantile(sb, 0.5) - quantile(sc, 0.5)) // positive: new is better
	worstNew, bestBase := sc[len(sc)-1], sb[0]
	if sign < 0 {
		worstNew, bestBase = sc[0], sb[len(sb)-1]
	}
	allBetter := sign*(worstNew-bestBase) < 0
	q := append([]float64(nil), changes...)
	sort.Float64s(q)
	switch {
	case len(base) >= 10 && 10*j.wins >= 9*len(base) && medianGain > baseIQR:
		j.verdict = "better"
	case quantile(q, 0.75)-quantile(q, 0.25) > bound && !allBetter:
		j.verdict = "unresolved"
	case j.change > bound:
		j.verdict = "worse"
	default:
		j.verdict = "no worse"
	}
	return j
}

func failedShare(rs []result) float64 {
	var attempted, failed int
	for _, r := range rs {
		attempted += r.Attempted
		failed += r.Failed
	}
	return ratio(float64(failed), float64(attempted))
}
