// Analysis: the statistician's workflow around discovery — survey the
// pairwise associations first (the memo's "clues for discovering more
// causal explanations"), run acquisition, check goodness of fit, and
// validate generalization on held-out data.
//
// Run with:
//
//	go run ./examples/analysis
package main

import (
	"fmt"
	"log"

	"pka"
	"pka/internal/dataset"
	"pka/internal/stats"
	"pka/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("analysis: ")

	truth, err := synth.Telemetry()
	if err != nil {
		log.Fatal(err)
	}
	full, err := truth.SampleTable(stats.NewRNG(2025), 12000)
	if err != nil {
		log.Fatal(err)
	}
	rng := stats.NewRNG(2026)
	train, holdout, err := dataset.TrainTestSplit(full, 0.25, rng.Float64)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("telemetry frames: %d train, %d held out\n\n", train.Total(), holdout.Total())

	// Step 1: association survey before any modeling.
	pairs, err := pka.Associations(train)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("pairwise association survey (strongest first):")
	fmt.Print(pka.RenderAssociations(truth.Schema().Names(), pairs))

	// Step 2: discovery.
	model, err := pka.DiscoverTable(train, truth.Schema(), pka.Options{MaxOrder: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(model.Summary())

	// Step 3: goodness of fit on the training data.
	fit := model.Fit()
	fmt.Printf("\ngoodness of fit: G² = %.1f at %d df (p = %.3f)\n", fit.G2, fit.DF, fit.PValue)
	if fit.PValue < 0.05 {
		fmt.Println("  -> model rejected; consider raising MaxOrder")
	} else {
		fmt.Println("  -> model accepted at the 5% level")
	}

	// Step 4: held-out validation.
	loss, err := model.LogLoss(holdout)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nheld-out log loss: %.4f nats/sample\n", loss)

	// Step 5: ship the strongest rules with confidence intervals.
	scored, err := model.RulesWithIntervals(pka.RuleOptions{MinLiftDistance: 0.3, MaxRules: 6})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nstrongest rules with 95% intervals:")
	for i, s := range scored {
		fmt.Printf("%3d. %s\n", i+1, s)
	}
}
