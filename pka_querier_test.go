package pka_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"pka"
	"pka/internal/contingency"
	"pka/internal/paperdata"
)

// loadedModel saves the discovered model and loads it back, the deployment
// path every parity test compares against.
func loadedModel(t testing.TB, m *pka.Model) *pka.QueryModel {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := pka.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestModelQueryModelParity: the whole Querier surface (plus the metadata
// and validation accessors QueryModel used to lack — Lift, LogLoss on dense
// and sparse counts,
// Info, NumConstraints, Entropy) answers identically through Model and
// through a save/load round trip, because both run the same shared core.
func TestModelQueryModelParity(t *testing.T) {
	m, err := pka.Discover(paperdata.Records(), pka.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := loadedModel(t, m)
	smoker := pka.Assignment{Attr: "SMOKING", Value: "Smoker"}
	cancer := pka.Assignment{Attr: "CANCER", Value: "Yes"}

	mp, err1 := m.Probability(smoker, cancer)
	qp, err2 := q.Probability(smoker, cancer)
	if err1 != nil || err2 != nil || mp != qp {
		t.Errorf("Probability parity: %x vs %x (%v, %v)", mp, qp, err1, err2)
	}
	ml, err1 := m.Lift(cancer, smoker)
	ql, err2 := q.Lift(cancer, smoker)
	if err1 != nil || err2 != nil || ml != ql {
		t.Errorf("Lift parity: %x vs %x (%v, %v)", ml, ql, err1, err2)
	}
	table, err := paperdata.Records().Tabulate()
	if err != nil {
		t.Fatal(err)
	}
	mll, err1 := m.LogLoss(table)
	qll, err2 := q.LogLoss(table)
	if err1 != nil || err2 != nil || mll != qll {
		t.Errorf("LogLoss parity: %x vs %x (%v, %v)", mll, qll, err1, err2)
	}
	sparse, err := contingency.FromDense(table)
	if err != nil {
		t.Fatal(err)
	}
	msl, err1 := m.LogLoss(sparse)
	qsl, err2 := q.LogLoss(sparse)
	if err1 != nil || err2 != nil || msl != qsl {
		t.Errorf("sparse LogLoss parity: %x vs %x (%v, %v)", msl, qsl, err1, err2)
	}
	if mi, qi := m.Info(), q.Info(); mi != qi {
		t.Errorf("Info parity: %+v vs %+v", mi, qi)
	}
	if m.NumConstraints() != q.NumConstraints() {
		t.Errorf("NumConstraints parity: %d vs %d", m.NumConstraints(), q.NumConstraints())
	}
	me, err1 := m.Entropy()
	qe, err2 := q.Entropy()
	if err1 != nil || err2 != nil || me != qe {
		t.Errorf("Entropy parity: %x vs %x (%v, %v)", me, qe, err1, err2)
	}
	if m.Explain() != q.Explain() {
		t.Error("Explain drifted between Model and QueryModel")
	}
	// Model keeps the discovery digest; QueryModel reports the stored
	// metadata — both must answer Summary.
	if !strings.Contains(m.Summary(), "N=") {
		t.Errorf("Model.Summary lost the discovery digest: %q", m.Summary())
	}
	if s := q.Summary(); !strings.Contains(s, "constraints") {
		t.Errorf("QueryModel.Summary = %q", s)
	}
	// A QueryModel can re-save; the file must load back identically.
	q2 := loadedModel(t, m)
	var first, second bytes.Buffer
	if err := q.Save(&first); err != nil {
		t.Fatal(err)
	}
	if err := q2.Save(&second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Error("QueryModel.Save not stable")
	}
}

// mixedQueries is a batch with shared evidence sets, repeated queries,
// every kind, and one failing entry.
func mixedQueries() []pka.Query {
	smoker := []pka.Assignment{{Attr: "SMOKING", Value: "Smoker"}}
	both := []pka.Assignment{{Attr: "SMOKING", Value: "Smoker"}, {Attr: "FAMILY HISTORY", Value: "Yes"}}
	return []pka.Query{
		{Kind: pka.QueryProbability, Target: []pka.Assignment{{Attr: "CANCER", Value: "Yes"}}},
		{Kind: pka.QueryConditional, Target: []pka.Assignment{{Attr: "CANCER", Value: "Yes"}}, Given: smoker},
		{Kind: pka.QueryConditional, Target: []pka.Assignment{{Attr: "CANCER", Value: "No"}}, Given: smoker},
		{Kind: pka.QueryConditional, Target: []pka.Assignment{{Attr: "CANCER", Value: "Yes"}}, Given: both},
		{Kind: pka.QueryConditional, Target: []pka.Assignment{{Attr: "FAMILY HISTORY", Value: "Yes"}}, Given: smoker},
		{Kind: pka.QueryDistribution, Attr: "CANCER", Given: smoker},
		{Kind: pka.QueryMostLikely, Attr: "CANCER", Given: both},
		{Kind: pka.QueryLift, Target: []pka.Assignment{{Attr: "CANCER", Value: "Yes"}}, Given: smoker},
		{Kind: pka.QueryMPE, Given: smoker},
		{Kind: pka.QueryConditional, Target: []pka.Assignment{{Attr: "CANCER", Value: "Maybe"}}, Given: smoker},
		{Kind: pka.QueryConditional, Target: []pka.Assignment{{Attr: "CANCER", Value: "Yes"}}, Given: smoker},
	}
}

// TestAnswerBatchBitIdenticalToAnswer: batched execution returns the same
// bits as one Answer per query, for both Model and QueryModel.
func TestAnswerBatchBitIdenticalToAnswer(t *testing.T) {
	m, err := pka.Discover(paperdata.Records(), pka.Options{})
	if err != nil {
		t.Fatal(err)
	}
	queries := mixedQueries()
	for name, querier := range map[string]pka.Querier{"model": m, "querymodel": loadedModel(t, m)} {
		batch, err := pka.AnswerBatch(querier, queries)
		if err != nil {
			t.Fatal(err)
		}
		for i, qu := range queries {
			want, werr := pka.Answer(querier, qu)
			if werr != nil {
				if batch[i].Error != werr.Error() {
					t.Errorf("%s: query %d error %q, want %q", name, i, batch[i].Error, werr)
				}
				continue
			}
			got := batch[i]
			if got.Probability != want.Probability || got.Lift != want.Lift ||
				got.Value != want.Value || got.Error != "" {
				t.Errorf("%s: query %d = %+v, want %+v", name, i, got, want)
			}
			for v, p := range want.Distribution {
				if got.Distribution[v] != p {
					t.Errorf("%s: query %d dist[%s] = %x, want %x", name, i, v, got.Distribution[v], p)
				}
			}
			for j := range want.Assignments {
				if got.Assignments[j] != want.Assignments[j] {
					t.Errorf("%s: query %d assignment %d = %v, want %v", name, i, j, got.Assignments[j], want.Assignments[j])
				}
			}
		}
	}
}

// TestServedModelConcurrentMixedQueries is the serving-layer race hammer:
// one model behind pka.NewServer, hit by many goroutines mixing HTTP
// single queries, HTTP batches, and direct Answer/AnswerBatch calls (run
// with -race). Answers must stay deterministic throughout.
func TestServedModelConcurrentMixedQueries(t *testing.T) {
	m, err := pka.Discover(paperdata.Records(), pka.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(pka.NewServer(m))
	defer srv.Close()

	queries := mixedQueries()
	want, err := pka.AnswerBatch(m, queries)
	if err != nil {
		t.Fatal(err)
	}
	single := queries[1]
	wantSingle, err := pka.Answer(m, single)
	if err != nil {
		t.Fatal(err)
	}
	singleBody, err := json.Marshal(single)
	if err != nil {
		t.Fatal(err)
	}
	batchBody, err := json.Marshal(struct {
		Queries []pka.Query `json:"queries"`
	}{queries})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	fail := func(msg string) {
		select {
		case errs <- msg:
		default:
		}
	}
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				switch (g + i) % 4 {
				case 0: // HTTP single query
					resp, err := http.Post(srv.URL+"/v1/query", "application/json", bytes.NewReader(singleBody))
					if err != nil {
						fail(err.Error())
						return
					}
					var res pka.QueryResult
					err = json.NewDecoder(resp.Body).Decode(&res)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK || res.Probability != wantSingle.Probability {
						fail(fmt.Sprintf("HTTP single diverged: %d %+v (%v)", resp.StatusCode, res, err))
						return
					}
				case 1: // HTTP batch
					resp, err := http.Post(srv.URL+"/v1/query/batch", "application/json", bytes.NewReader(batchBody))
					if err != nil {
						fail(err.Error())
						return
					}
					var res struct {
						Results []pka.QueryResult `json:"results"`
					}
					err = json.NewDecoder(resp.Body).Decode(&res)
					resp.Body.Close()
					if err != nil || len(res.Results) != len(want) {
						fail(fmt.Sprintf("HTTP batch diverged: %v (%v)", res, err))
						return
					}
					for j := range want {
						if res.Results[j].Probability != want[j].Probability || res.Results[j].Error != want[j].Error {
							fail(fmt.Sprintf("HTTP batch slot %d diverged", j))
							return
						}
					}
				case 2: // direct batch
					got, err := pka.AnswerBatch(m, queries)
					if err != nil {
						fail(err.Error())
						return
					}
					for j := range want {
						if got[j].Probability != want[j].Probability {
							fail(fmt.Sprintf("direct batch slot %d diverged", j))
							return
						}
					}
				default: // direct single
					got, err := pka.Answer(m, single)
					if err != nil || got.Probability != wantSingle.Probability {
						fail("direct single diverged")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

// BenchmarkAnswerSequential and BenchmarkAnswerBatch compare one
// AnswerBatch against N independent Answer calls over a workload of 32
// single-target conditionals sharing two evidence sets — the regime the
// batch path exists for.
func benchQueries() []pka.Query {
	smoker := []pka.Assignment{{Attr: "SMOKING", Value: "Smoker"}}
	both := []pka.Assignment{{Attr: "SMOKING", Value: "Non smoker"}, {Attr: "FAMILY HISTORY", Value: "Yes"}}
	out := make([]pka.Query, 0, 32)
	for i := 0; i < 16; i++ {
		v := []string{"Yes", "No"}[i%2]
		out = append(out,
			pka.Query{Kind: pka.QueryConditional, Target: []pka.Assignment{{Attr: "CANCER", Value: v}}, Given: smoker},
			pka.Query{Kind: pka.QueryConditional, Target: []pka.Assignment{{Attr: "CANCER", Value: v}}, Given: both},
		)
	}
	return out
}

func benchModel(b *testing.B) *pka.Model {
	b.Helper()
	m, err := pka.Discover(paperdata.Records(), pka.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkAnswerSequential(b *testing.B) {
	m := benchModel(b)
	queries := benchQueries()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, qu := range queries {
			if _, err := pka.Answer(m, qu); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkAnswerBatch(b *testing.B) {
	m := benchModel(b)
	queries := benchQueries()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pka.AnswerBatch(m, queries); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnswerBatchParallel serves one batch of 128 queries over 16
// distinct evidence sets (conditionals, distributions, and MPE completions
// per set) — the server's /v1/query/batch hot path. The model has no engine
// cache, so each batch starts from a fresh memo and its first query per
// evidence set misses. The queries fan out over GOMAXPROCS workers; run
// with -cpu 1,2 to read the scaling. On a 2-CPU host the fan-out took
// 0.90 ms/op at -cpu 2 against 1.47 ms/op for an in-order loop (medians
// of 10 alternating runs), which is why query.AnswerBatch keeps it.
func BenchmarkAnswerBatchParallel(b *testing.B) {
	schema, err := pka.NewSchema([]pka.Attribute{
		{Name: "A0", Values: []string{"a", "b", "c"}},
		{Name: "A1", Values: []string{"a", "b", "c"}},
		{Name: "A2", Values: []string{"a", "b", "c"}},
		{Name: "A3", Values: []string{"a", "b", "c"}},
		{Name: "A4", Values: []string{"a", "b", "c"}},
		{Name: "A5", Values: []string{"a", "b", "c"}},
		{Name: "A6", Values: []string{"a", "b", "c"}},
		{Name: "A7", Values: []string{"a", "b", "c"}},
	})
	if err != nil {
		b.Fatal(err)
	}
	labels := []string{"a", "b", "c"}
	data := pka.NewDataset(schema)
	rng := rand.New(rand.NewSource(17))
	row := make([]string, 8)
	for n := 0; n < 6000; n++ {
		for i := range row {
			row[i] = labels[rng.Intn(3)]
		}
		if rng.Float64() < 0.6 {
			row[1] = row[0]
		}
		if rng.Float64() < 0.5 {
			row[5] = row[4]
		}
		if err := data.AppendLabeled(row); err != nil {
			b.Fatal(err)
		}
	}
	m, err := pka.Discover(data, pka.Options{MaxOrder: 2})
	if err != nil {
		b.Fatal(err)
	}
	var queries []pka.Query
	// Base-3 digits of g over three evidence attributes: 27 possible
	// combos, so g = 0..15 yields 16 genuinely distinct evidence sets.
	for g := 0; g < 16; g++ {
		given := []pka.Assignment{
			{Attr: "A0", Value: labels[g%3]},
			{Attr: "A4", Value: labels[(g/3)%3]},
			{Attr: "A6", Value: labels[(g/9)%3]},
		}
		for v := 0; v < 3; v++ {
			queries = append(queries,
				pka.Query{Kind: pka.QueryConditional, Target: []pka.Assignment{{Attr: "A1", Value: labels[v]}}, Given: given},
				pka.Query{Kind: pka.QueryConditional, Target: []pka.Assignment{{Attr: "A5", Value: labels[v]}}, Given: given},
			)
		}
		queries = append(queries,
			pka.Query{Kind: pka.QueryDistribution, Attr: "A2", Given: given},
			pka.Query{Kind: pka.QueryMPE, Given: given},
		)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := pka.AnswerBatch(m, queries)
		if err != nil {
			b.Fatal(err)
		}
		for qi, r := range results {
			if r.Error != "" {
				b.Fatalf("query %d failed: %s", qi, r.Error)
			}
		}
	}
}
