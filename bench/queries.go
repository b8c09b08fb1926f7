package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"pka"
)

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("encoding %T: %v", v, err))
	}
	return b
}

// assignments draws one value for each schema position, in ascending
// position order (the order a client that follows the schema would send).
func assignments(rng *rand.Rand, s *pka.Schema, positions []int) []pka.Assignment {
	ps := append([]int(nil), positions...)
	sort.Ints(ps)
	out := make([]pka.Assignment, len(ps))
	for i, p := range ps {
		a := s.Attr(p)
		out[i] = pka.Assignment{Attr: a.Name, Value: a.Values[rng.Intn(len(a.Values))]}
	}
	return out
}

var singleKinds = []pka.QueryKind{
	pka.QueryProbability, pka.QueryConditional, pka.QueryDistribution,
	pka.QueryMostLikely, pka.QueryLift, pka.QueryMPE,
}

// randomQuery draws one query of the kind with 1-3 evidence attributes
// (1-3 targets for a probability query, which takes no evidence).
func randomQuery(rng *rand.Rand, s *pka.Schema, kind pka.QueryKind) pka.Query {
	perm := rng.Perm(s.R())
	k := 1 + rng.Intn(min(3, s.R()-1))
	q := pka.Query{Kind: kind}
	switch kind {
	case pka.QueryProbability:
		q.Target = assignments(rng, s, perm[:k])
	case pka.QueryConditional, pka.QueryLift:
		q.Target = assignments(rng, s, perm[:1])
		q.Given = assignments(rng, s, perm[1:1+k])
	case pka.QueryDistribution, pka.QueryMostLikely:
		q.Attr = s.Attr(perm[0]).Name
		q.Given = assignments(rng, s, perm[1:1+k])
	case pka.QueryMPE:
		q.Given = assignments(rng, s, perm[:k])
	}
	return q
}

// queryPool draws n distinct single queries of all six kinds. A kind whose
// distinct queries run out (small schemas have few MPE evidence sets) is
// redrawn as another kind.
func queryPool(rng *rand.Rand, s *pka.Schema, n int) ([]pka.Query, [][]byte, error) {
	seen := make(map[string]bool, n)
	queries := make([]pka.Query, 0, n)
	bodies := make([][]byte, 0, n)
	for attempts := 0; len(queries) < n; attempts++ {
		if attempts > 100*n {
			return nil, nil, fmt.Errorf("only %d distinct queries found, want %d", len(queries), n)
		}
		q := randomQuery(rng, s, singleKinds[rng.Intn(len(singleKinds))])
		b := mustJSON(q)
		if seen[string(b)] {
			continue
		}
		seen[string(b)] = true
		queries = append(queries, q)
		bodies = append(bodies, b)
	}
	return queries, bodies, nil
}

// batchBodies draws n /v1/query/batch bodies of 16 queries over 2 evidence
// groups: 8 conditional, distribution, most-likely or lift queries share
// each group's evidence.
func batchBodies(rng *rand.Rand, s *pka.Schema, n int) [][]byte {
	kinds := []pka.QueryKind{pka.QueryConditional, pka.QueryDistribution, pka.QueryMostLikely, pka.QueryLift}
	out := make([][]byte, n)
	for i := range out {
		var qs []pka.Query
		for g := 0; g < 2; g++ {
			given := randomQuery(rng, s, pka.QueryMPE).Given
			for j := 0; j < 8; j++ {
				q := randomQuery(rng, s, kinds[rng.Intn(len(kinds))])
				q.Given = given
				if conflicts(q, given) {
					j--
					continue
				}
				qs = append(qs, q)
			}
		}
		out[i] = mustJSON(struct {
			Queries []pka.Query `json:"queries"`
		}{qs})
	}
	return out
}

// conflicts reports whether the query's target or attribute is also
// pinned by the evidence.
func conflicts(q pka.Query, given []pka.Assignment) bool {
	for _, g := range given {
		if g.Attr == q.Attr {
			return true
		}
		for _, t := range q.Target {
			if t.Attr == g.Attr {
				return true
			}
		}
	}
	return false
}

// jointQueries turns rows of value labels into probability queries of the
// full assignment: the served probability of each held-out row.
func jointQueries(s *pka.Schema, rows [][]string) []pka.Query {
	out := make([]pka.Query, len(rows))
	for i, row := range rows {
		target := make([]pka.Assignment, len(row))
		for j, v := range row {
			target[j] = pka.Assignment{Attr: s.Attr(j).Name, Value: v}
		}
		out[i] = pka.Query{Kind: pka.QueryProbability, Target: target}
	}
	return out
}
