package pka_test

import (
	"fmt"
	"log"

	"pka"
	"pka/internal/paperdata"
)

// ExampleDiscover runs the full acquisition procedure on the memo's
// smoking/cancer survey and prints the discovery summary's first line.
func ExampleDiscover() {
	data := paperdata.Records() // 3428 survey records
	model, err := pka.Discover(data, pka.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("findings: %d\n", len(model.Findings()))
	first := model.Findings()[0]
	fmt.Printf("most significant: order %d, m2-m1 = %.2f\n",
		first.Order, first.Test.Delta)
	// Output:
	// findings: 3
	// most significant: order 2, m2-m1 = -11.57
}

// ExampleModel_Conditional answers the memo's IF-THEN query
// P(CANCER | SMOKING) from the stored formula.
func ExampleModel_Conditional() {
	model, err := pka.DiscoverTable(paperdata.Table(), paperdata.Schema(), pka.Options{})
	if err != nil {
		log.Fatal(err)
	}
	p, err := model.Conditional(
		[]pka.Assignment{{Attr: "CANCER", Value: "Yes"}},
		[]pka.Assignment{{Attr: "SMOKING", Value: "Smoker"}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("P(cancer | smoker) = %.3f\n", p)
	// Output:
	// P(cancer | smoker) = 0.186
}

// ExampleModel_Rules extracts the memo's IF-THEN rule form.
func ExampleModel_Rules() {
	model, err := pka.DiscoverTable(paperdata.Table(), paperdata.Schema(), pka.Options{})
	if err != nil {
		log.Fatal(err)
	}
	rules, err := model.Rules(pka.RuleOptions{MinLiftDistance: 0.3, MaxRules: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rules[0])
	// Output:
	// IF SMOKING=Smoker THEN CANCER=Yes (p=0.186, support=0.070, lift=1.47)
}

// ExampleModel_MostProbableExplanation finds the most likely world state
// consistent with evidence.
func ExampleModel_MostProbableExplanation() {
	model, err := pka.DiscoverTable(paperdata.Table(), paperdata.Schema(), pka.Options{})
	if err != nil {
		log.Fatal(err)
	}
	exp, err := model.MostProbableExplanation(
		pka.Assignment{Attr: "CANCER", Value: "Yes"})
	if err != nil {
		log.Fatal(err)
	}
	for _, a := range exp.Assignments {
		fmt.Println(a)
	}
	// Output:
	// SMOKING=Smoker
	// CANCER=Yes
	// FAMILY HISTORY=Yes
}

// ExampleAnswer routes a first-class Query value through the unified
// Querier API — the same form the HTTP server and `pka query -json` use.
func ExampleAnswer() {
	model, err := pka.DiscoverTable(paperdata.Table(), paperdata.Schema(), pka.Options{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := pka.Answer(model, pka.Query{
		Kind:   pka.QueryConditional,
		Target: []pka.Assignment{{Attr: "CANCER", Value: "Yes"}},
		Given:  []pka.Assignment{{Attr: "SMOKING", Value: "Smoker"}},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("P(cancer | smoker) = %.3f\n", res.Probability)
	// Output:
	// P(cancer | smoker) = 0.186
}

// ExampleAnswerBatch answers three queries on one evidence set in one
// batch: the evidence is priced once and shared through the engine memo,
// and every answer is bit-identical to per-query Answer.
func ExampleAnswerBatch() {
	model, err := pka.DiscoverTable(paperdata.Table(), paperdata.Schema(), pka.Options{})
	if err != nil {
		log.Fatal(err)
	}
	smoker := []pka.Assignment{{Attr: "SMOKING", Value: "Smoker"}}
	results, err := pka.AnswerBatch(model, []pka.Query{
		{Kind: pka.QueryConditional, Target: []pka.Assignment{{Attr: "CANCER", Value: "Yes"}}, Given: smoker},
		{Kind: pka.QueryConditional, Target: []pka.Assignment{{Attr: "CANCER", Value: "No"}}, Given: smoker},
		{Kind: pka.QueryMostLikely, Attr: "FAMILY HISTORY", Given: smoker},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("P(cancer | smoker)    = %.3f\n", results[0].Probability)
	fmt.Printf("P(no cancer | smoker) = %.3f\n", results[1].Probability)
	fmt.Printf("likely family history = %s\n", results[2].Value)
	// Output:
	// P(cancer | smoker)    = 0.186
	// P(no cancer | smoker) = 0.814
	// likely family history = No
}

// ExampleAssociations surveys pairwise associations before modeling.
func ExampleAssociations() {
	pairs, err := pka.Associations(paperdata.Table())
	if err != nil {
		log.Fatal(err)
	}
	names := paperdata.Schema().Names()
	top := pairs[0]
	fmt.Printf("strongest pair: %s × %s\n", names[top.I], names[top.J])
	// Output:
	// strongest pair: SMOKING × FAMILY HISTORY
}
