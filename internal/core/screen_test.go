package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pka/internal/assoc"
	"pka/internal/contingency"
	"pka/internal/stats"
	"pka/internal/synth"
)

// referenceScreen is the pair screen computed from the report statistics:
// a pair passes when its assoc.ScorePairs p-value is at most alpha.
func referenceScreen(t *testing.T, table contingency.Counts, alpha float64) ([][]bool, *ScreenReport) {
	t.Helper()
	pairs, err := assoc.ScorePairs(table)
	if err != nil {
		t.Fatalf("ScorePairs: %v", err)
	}
	if alpha == 0 {
		alpha = 0.05 / float64(len(pairs))
	}
	r := table.R()
	adj := make([][]bool, r)
	for i := range adj {
		adj[i] = make([]bool, r)
	}
	rep := &ScreenReport{Alpha: alpha, PairsTotal: len(pairs)}
	for _, p := range pairs {
		if p.PValue <= alpha {
			adj[p.I][p.J] = true
			adj[p.J][p.I] = true
			rep.PairsKept++
		}
	}
	return adj, rep
}

// randomDense fills a dense table over r attributes of cardinality 2-4
// with n rows in which attribute 1 copies attribute 0 and attribute 2
// copies attribute 1 with probability 0.3 each.
func randomDense(t *testing.T, r, n int, rng *rand.Rand) *contingency.Table {
	t.Helper()
	cards := make([]int, r)
	for i := range cards {
		cards[i] = 2 + rng.Intn(3)
	}
	tab := contingency.MustNew(nil, cards)
	cell := make([]int, r)
	for k := 0; k < n; k++ {
		for i := range cell {
			cell[i] = rng.Intn(cards[i])
		}
		for i := 1; i < 3; i++ {
			if rng.Float64() < 0.3 {
				cell[i] = cell[i-1] % cards[i]
			}
		}
		if err := tab.Add(1, cell...); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// TestBuildScreenMatchesPValues: the G²-only screen keeps the pairs the
// report p-values keep and writes the same report, with and without the
// CI pass, on random dense tables, a sparse table read through
// projections and an 80-attribute table read through the pair-count
// ledger — also at alphas equal to some pair's p-value.
func TestBuildScreenMatchesPValues(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	tables := map[string]contingency.Counts{}
	for k := 0; k < 4; k++ {
		tables[fmt.Sprintf("dense%d", k)] = randomDense(t, 4+k, 300+400*k, rng)
	}
	tables["sparse"] = ciChainTable(t, 900, 4)
	narrow, err := synth.WidePairs(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tables["sparse20"], err = narrow.SampleSparse(stats.NewRNG(5), 600); err != nil {
		t.Fatal(err)
	}
	wide, err := synth.WidePairs(40, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tables["ledger80"], err = wide.SampleSparse(stats.NewRNG(7), 2000); err != nil {
		t.Fatal(err)
	}
	var kept, dropped, triples int
	for name, table := range tables {
		pairs, err := assoc.ScorePairs(table)
		if err != nil {
			t.Fatal(err)
		}
		alphas := []float64{0, 0.05}
		for k := 0; k < len(pairs); k += 1 + len(pairs)/8 {
			alphas = append(alphas, pairs[k].PValue)
		}
		for _, alpha := range alphas {
			for _, ci := range []bool{false, true} {
				wantAdj, wantRep := referenceScreen(t, table, alpha)
				adj, rep, err := buildScreen(table, alpha)
				if err != nil {
					t.Fatalf("%s: buildScreen: %v", name, err)
				}
				if ci {
					if err := applyCIScreen(table, wantAdj, 0, wantRep); err != nil {
						t.Fatal(err)
					}
					if err := applyCIScreen(table, adj, 0, rep); err != nil {
						t.Fatal(err)
					}
				}
				if !reflect.DeepEqual(adj, wantAdj) {
					t.Errorf("%s alpha %g ci %v: adjacency differs from the p-value screen", name, alpha, ci)
				}
				if *rep != *wantRep {
					t.Errorf("%s alpha %g ci %v: report %+v, p-value screen %+v", name, alpha, ci, *rep, *wantRep)
				}
				kept += rep.PairsKept
				dropped += rep.PairsTotal - rep.PairsKept
				triples += rep.CITriplesTested
			}
		}
	}
	if kept == 0 || dropped == 0 || triples == 0 {
		t.Errorf("the tables keep %d pairs, drop %d and run %d CI tests: each must be nonzero", kept, dropped, triples)
	}
}
