package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"pka"
	"pka/internal/contingency"
)

// cmdAnalyze prints the pairwise association survey of a CSV dataset — the
// pre-discovery view an analyst uses to decide where to look.
//
//	pka analyze -in data.csv
func cmdAnalyze(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	in := fs.String("in", "", "input CSV file")
	maxCard := fs.Int("max-card", 64, "reject CSV columns with more distinct values than this")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("analyze: -in is required")
	}
	codes, err := scanCSVFile(*in, *maxCard)
	if err != nil {
		return err
	}
	table, err := codes.Table()
	if err != nil {
		return err
	}
	pairs, err := pka.Associations(table)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "pairwise associations over %d samples:\n\n", table.Total())
	fmt.Fprint(w, pka.RenderAssociations(codes.Schema().Names(), pairs))
	return nil
}

// cmdValidate scores a saved knowledge base against fresh data.
//
//	pka validate -kb kb.json -in holdout.csv
func cmdValidate(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("validate", flag.ContinueOnError)
	kbPath := fs.String("kb", "", "knowledge base: JSON from 'pka discover -out' or PKAS binary from 'pka snapshot'")
	in := fs.String("in", "", "validation CSV file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("validate: -in is required")
	}
	model, err := loadKB(*kbPath)
	if err != nil {
		return err
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	// A schema whose joint space no dense table holds (the wide, factored
	// regime) is tabulated sparse; LogLoss scores only occupied cells either
	// way, and every other schema keeps the dense table and its summation
	// order.
	var table pka.Counts
	if contingency.DenseFits(model.Schema().Cards()) {
		table, err = pka.TabulateCSV(f, model.Schema())
	} else {
		table, err = pka.TabulateCSVSparse(f, model.Schema())
	}
	if err != nil {
		return err
	}
	loss, err := model.LogLoss(table)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "validation: %d samples\n", table.Total())
	if math.IsInf(loss, 1) {
		fmt.Fprintln(w, "log loss: +Inf — the data occupies cells the model rules out")
		return nil
	}
	fmt.Fprintf(w, "log loss: %.4f nats/sample (%.4f bits/sample)\n",
		loss, loss/math.Ln2)
	return nil
}
