package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pka"
)

// runLoadgen is `pka bench -serve <url>`: a self-contained HTTP load
// generator for any pka serving process — standalone, primary, or replica.
// It reads the target's schema, synthesizes a rotating
// workload of every query kind, and fires it over conns connections for
// the duration, then reports throughput and latency percentiles.
func runLoadgen(w io.Writer, url string, conns int, duration time.Duration) error {
	if conns < 1 {
		return fmt.Errorf("bench: -conns must be >= 1, got %d", conns)
	}
	if duration <= 0 {
		return fmt.Errorf("bench: -duration must be positive, got %s", duration)
	}
	url = strings.TrimRight(url, "/")
	client := &http.Client{Timeout: 30 * time.Second}

	resp, err := client.Get(url + "/v1/schema")
	if err != nil {
		return fmt.Errorf("bench: fetching %s/v1/schema: %w", url, err)
	}
	var schema struct {
		Attributes []struct {
			Name   string   `json:"name"`
			Values []string `json:"values"`
		} `json:"attributes"`
	}
	decErr := json.NewDecoder(resp.Body).Decode(&schema)
	resp.Body.Close()
	if decErr != nil {
		return fmt.Errorf("bench: decoding schema: %w", decErr)
	}
	if len(schema.Attributes) == 0 {
		return fmt.Errorf("bench: %s serves an empty schema", url)
	}

	bodies, err := loadgenWorkload(schema.Attributes)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "loadgen: %s, %d attributes, %d query workload, %d conns, %s\n",
		url, len(schema.Attributes), len(bodies), conns, duration)

	deadline := time.Now().Add(duration)
	var errs atomic.Int64
	lats := make([][]time.Duration, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Per-connection client: its own keep-alive connection, like a
			// distinct downstream caller.
			cl := &http.Client{Timeout: 30 * time.Second}
			for i := c; time.Now().Before(deadline); i++ {
				body := bodies[i%len(bodies)]
				t0 := time.Now()
				resp, err := cl.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
				if err != nil {
					errs.Add(1)
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs.Add(1)
					continue
				}
				lats[c] = append(lats[c], time.Since(t0))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	if len(all) == 0 {
		return fmt.Errorf("bench: no request succeeded against %s (%d errors)", url, errs.Load())
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) time.Duration {
		i := int(p * float64(len(all)-1))
		return all[i]
	}
	fmt.Fprintf(w, "requests %d  errors %d  %.0f req/s\n",
		len(all), errs.Load(), float64(len(all))/elapsed.Seconds())
	fmt.Fprintf(w, "latency p50 %s  p90 %s  p99 %s  max %s\n",
		pct(0.50).Round(time.Microsecond), pct(0.90).Round(time.Microsecond),
		pct(0.99).Round(time.Microsecond), all[len(all)-1].Round(time.Microsecond))
	return nil
}

// loadgenWorkload builds one marshaled query per kind per schema slot:
// joints, conditionals, distributions, most-likely, lift, and one MPE —
// the same surface the correctness tests sweep, here as a steady-state
// traffic mix.
func loadgenWorkload(attrs []struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}) ([][]byte, error) {
	n := len(attrs)
	var queries []pka.Query
	for i := 0; i < n && i < 16; i++ {
		a, b := attrs[i], attrs[(i+1)%n]
		queries = append(queries,
			pka.Query{Kind: pka.QueryProbability, Target: []pka.Assignment{{Attr: a.Name, Value: a.Values[0]}}},
			pka.Query{Kind: pka.QueryConditional,
				Target: []pka.Assignment{{Attr: b.Name, Value: b.Values[len(b.Values)-1]}},
				Given:  []pka.Assignment{{Attr: a.Name, Value: a.Values[0]}}},
			pka.Query{Kind: pka.QueryDistribution, Attr: a.Name,
				Given: []pka.Assignment{{Attr: b.Name, Value: b.Values[0]}}},
			pka.Query{Kind: pka.QueryMostLikely, Attr: b.Name,
				Given: []pka.Assignment{{Attr: a.Name, Value: a.Values[len(a.Values)-1]}}},
			pka.Query{Kind: pka.QueryLift,
				Target: []pka.Assignment{{Attr: a.Name, Value: a.Values[0]}},
				Given:  []pka.Assignment{{Attr: b.Name, Value: b.Values[0]}}},
		)
	}
	queries = append(queries, pka.Query{Kind: pka.QueryMPE,
		Given: []pka.Assignment{{Attr: attrs[0].Name, Value: attrs[0].Values[0]}}})
	bodies := make([][]byte, len(queries))
	for i, q := range queries {
		b, err := json.Marshal(q)
		if err != nil {
			return nil, fmt.Errorf("bench: encoding workload: %w", err)
		}
		bodies[i] = b
	}
	return bodies, nil
}
