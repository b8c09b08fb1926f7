package pka

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// wideStreamSchema is a 16-binary-attribute schema: wide enough that the
// model fits and serves through the factored engine and the association
// screen gates discovery, the regime every parallel path engages in.
func wideStreamSchema(t testing.TB) *Schema {
	t.Helper()
	attrs := make([]Attribute, 16)
	for i := range attrs {
		attrs[i] = Attribute{Name: fmt.Sprintf("W%d", i), Values: []string{"0", "1"}}
	}
	s, err := NewSchema(attrs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// wideStreamRows draws rows with two planted couplings.
func wideStreamRows(rng *rand.Rand, n int) []Record {
	rows := make([]Record, n)
	for i := range rows {
		cell := make(Record, 16)
		for j := range cell {
			cell[j] = rng.Intn(2)
		}
		if rng.Float64() < 0.8 {
			cell[15] = cell[0]
		}
		if rng.Float64() < 0.6 {
			cell[8] = cell[1]
		}
		rows[i] = cell
	}
	return rows
}

// TestParallelFitScreenServeRaceHammer is the -race hammer of a live
// model: one wide streaming model concurrently (a) folding in observation
// batches — each Update runs the association screen, the incremental
// factored refit and the parallel significance re-scan — (b) serving HTTP
// batch queries, whose queries fan out over the batch's workers, (c)
// answering direct AnswerBatch calls, and (d) reading the discovery record
// (Screen, Findings, Fit).
// Every served probability must stay in range and no request may fail;
// the race detector guards the rest.
func TestParallelFitScreenServeRaceHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	schema := wideStreamSchema(t)
	model, err := DiscoverSparse(
		sparseOf(t, schema, wideStreamRows(rng, 4000)), schema,
		Options{MaxOrder: 2, ScreenPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(model))
	defer srv.Close()

	var queries []Query
	for g := 0; g < 6; g++ {
		given := []Assignment{{Attr: "W0", Value: fmt.Sprint(g % 2)}, {Attr: "W1", Value: fmt.Sprint((g / 2) % 2)}}
		queries = append(queries,
			Query{Kind: QueryConditional, Target: []Assignment{{Attr: "W15", Value: "1"}}, Given: given},
			Query{Kind: QueryDistribution, Attr: "W8", Given: given},
			Query{Kind: QueryMPE, Given: given},
		)
	}
	batchBody, err := json.Marshal(struct {
		Queries []Query `json:"queries"`
	}{queries})
	if err != nil {
		t.Fatal(err)
	}

	const (
		updaters     = 1
		httpQueriers = 3
		directs      = 2
		readers      = 1
		iterations   = 6
	)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	fail := func(msg string) {
		select {
		case errs <- msg:
		default:
		}
	}
	for u := 0; u < updaters; u++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			upRng := rand.New(rand.NewSource(72))
			for i := 0; i < iterations; i++ {
				if _, err := model.Update(wideStreamRows(upRng, 50)); err != nil {
					fail("update: " + err.Error())
					return
				}
			}
		}()
	}
	for g := 0; g < httpQueriers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations*3; i++ {
				resp, err := http.Post(srv.URL+"/v1/query/batch", "application/json", bytes.NewReader(batchBody))
				if err != nil {
					fail("http batch: " + err.Error())
					return
				}
				var body struct {
					Results []QueryResult `json:"results"`
				}
				err = json.NewDecoder(resp.Body).Decode(&body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					fail(fmt.Sprintf("http batch: %v status %d", err, resp.StatusCode))
					return
				}
				if len(body.Results) != len(queries) {
					fail(fmt.Sprintf("http batch: %d results for %d queries", len(body.Results), len(queries)))
					return
				}
				for qi, r := range body.Results {
					if r.Error != "" {
						fail(fmt.Sprintf("http batch query %d: %s", qi, r.Error))
						return
					}
					if r.Probability < 0 || r.Probability > 1 {
						fail(fmt.Sprintf("http batch query %d: probability %g", qi, r.Probability))
						return
					}
				}
			}
		}()
	}
	for d := 0; d < directs; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations*3; i++ {
				results, err := AnswerBatch(model, queries)
				if err != nil {
					fail("direct batch: " + err.Error())
					return
				}
				for qi, r := range results {
					if r.Error != "" {
						fail(fmt.Sprintf("direct batch query %d: %s", qi, r.Error))
						return
					}
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations*4; i++ {
				if rep := model.Screen(); rep != nil && rep.PairsTotal != 120 {
					fail(fmt.Sprintf("screen surveyed %d pairs, want C(16,2)=120", rep.PairsTotal))
					return
				}
				_ = model.Findings()
				_ = model.Fit()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}
