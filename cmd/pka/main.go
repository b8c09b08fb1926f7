// Command pka is the command-line front end to the probabilistic knowledge
// acquisition library: point it at CSV observation data and it discovers
// the significant correlations, builds a queryable knowledge base, and
// extracts IF-THEN rules.
//
// Subcommands:
//
//	pka discover -in data.csv -out kb.json [-max-order N] [-prior P] [-sparse] [-screen]
//	pka rules    -kb kb.json [-min-prob P] [-min-lift D] [-top K]
//	pka query    -kb kb.json -target "ATTR=value" [-given "A=v,B=w"] [-json]
//	pka explain  -kb kb.json [-given "A=v,B=w"] [-dot]
//	pka serve    -kb kb.json|kb.pkas [-addr :8080]
//	pka snapshot -in kb.json -out kb.pkas [-format binary|json]
//	pka tables   -in data.csv [-rows ATTR] [-cols ATTR]
//	pka analyze  -in data.csv
//	pka validate -kb kb.json -in holdout.csv
//	pka simulate -scenario survey [-n N] [-seed S] [-out data.csv]
//
// All probability output derives from the stored product formula; no raw
// data is needed after discovery.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pka"
)

// subcommands is the one list of pka's subcommands: dispatch and both
// usage errors read it, in this order.
var subcommands = []struct {
	name string
	run  func(w io.Writer, args []string) error
}{
	{"discover", cmdDiscover},
	{"rules", cmdRules},
	{"query", cmdQuery},
	{"explain", cmdExplain},
	{"serve", cmdServe},
	{"snapshot", cmdSnapshot},
	{"tables", cmdTables},
	{"analyze", cmdAnalyze},
	{"validate", cmdValidate},
	{"simulate", cmdSimulate},
}

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pka:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	if len(args) > 0 {
		for _, c := range subcommands {
			if c.name == args[0] {
				return c.run(w, args[1:])
			}
		}
	}
	names := make([]string, len(subcommands))
	for i, c := range subcommands {
		names[i] = c.name
	}
	if len(args) == 0 {
		return fmt.Errorf("usage: pka <%s> [flags]", strings.Join(names, "|"))
	}
	return fmt.Errorf("unknown subcommand %q (want %s)", args[0], strings.Join(names, ", "))
}

// cmdExplain prints either the stored formula of a knowledge base or the
// most probable explanation of evidence.
//
//	pka explain -kb kb.json                      # the formula
//	pka explain -kb kb.json -given "A=x,B=y"     # MPE completion
func cmdExplain(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	kbPath := fs.String("kb", "", "knowledge base: JSON from 'pka discover -out' or PKAS binary from 'pka snapshot'")
	given := fs.String("given", "", "evidence; if set, print the most probable explanation")
	dot := fs.Bool("dot", false, "emit the dependency structure as Graphviz instead")
	if err := fs.Parse(args); err != nil {
		return err
	}
	model, err := loadKB(*kbPath)
	if err != nil {
		return err
	}
	if *dot {
		fmt.Fprint(w, model.DependencyDOT())
		return nil
	}
	if *given == "" {
		fmt.Fprint(w, model.Explain())
		return nil
	}
	assigns, err := parseAssignments(*given)
	if err != nil {
		return err
	}
	exp, err := model.MostProbableExplanation(assigns...)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "most probable explanation (p = %.6f):\n", exp.Probability)
	for _, a := range exp.Assignments {
		fmt.Fprintf(w, "  %s\n", a)
	}
	return nil
}

func cmdDiscover(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("discover", flag.ContinueOnError)
	in := fs.String("in", "", "input CSV file (header row = attribute names)")
	out := fs.String("out", "", "output knowledge-base JSON file (default: stdout summary only)")
	maxOrder := fs.Int("max-order", 0, "highest attribute-family order to scan (0 = all)")
	prior := fs.Float64("prior", 0, "p(H2') prior (0 = the memo's 0.5)")
	maxCard := fs.Int("max-card", 64, "reject CSV columns with more distinct values than this")
	cvFolds := fs.Int("cv", 0, "select max-order by k-fold cross-validation (0 = off)")
	cvSeed := fs.Int64("cv-seed", 1, "fold-assignment seed for -cv")
	scan := fs.Bool("scan", false, "print the first significance scan (a Table 1 for your data)")
	mergeRare := fs.Int64("merge-rare", 0, "collapse values seen fewer than this many times into 'other' (0 = off)")
	sparse := fs.Bool("sparse", false, "wide-schema mode: tabulate into a sparse table and discover without materializing the joint space")
	screen := fs.Bool("screen", false, "gate order >= 2 scans on a pairwise association screen (recommended with -sparse)")
	screenAlpha := fs.Float64("screen-alpha", 0, "pairwise G² p-value threshold for -screen (0 = Bonferroni 0.05/pairs)")
	screenCI := fs.Bool("screen-ci", false, "refine -screen with conditional-independence triple tests (prunes pairs a common neighbor explains)")
	screenCIAlpha := fs.Float64("screen-ci-alpha", 0, "p-value above which a conditional test counts as independent for -screen-ci (0 = 0.05)")
	maxConstraints := fs.Int("max-constraints", 0, "stop after accepting this many order >= 2 constraints (0 = no cap)")
	workers := fs.Int("workers", 0, "worker goroutines for scans, screening, and block solves (0 = all cores, 1 = serial)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("discover: -in is required")
	}
	if *sparse && *cvFolds > 0 {
		return fmt.Errorf("discover: -cv needs the dense path; drop -sparse or -cv")
	}
	if *sparse && *mergeRare > 0 {
		return fmt.Errorf("discover: -merge-rare needs the dense path; drop -sparse or -merge-rare")
	}
	codes, err := scanCSVFile(*in, *maxCard)
	if err != nil {
		return err
	}
	if *cvFolds > 0 {
		table, err := codes.Table()
		if err != nil {
			return err
		}
		limit := *maxOrder
		if limit == 0 {
			limit = codes.Schema().R()
		}
		scores, best, err := pka.SelectMaxOrder(table, limit, *cvFolds, *cvSeed)
		if err != nil {
			return err
		}
		for _, s := range scores {
			fmt.Fprintf(w, "cv: order %d -> %.4f nats/sample (avg %.1f constraints)\n",
				s.MaxOrder, s.MeanLoss, s.MeanFindings)
		}
		fmt.Fprintf(w, "cv: selected max-order %d\n\n", best)
		*maxOrder = best
	}
	opts := pka.Options{
		MaxOrder:       *maxOrder,
		PriorH2:        *prior,
		RecordScans:    *scan,
		ScreenPairs:    *screen,
		ScreenAlpha:    *screenAlpha,
		ScreenCI:       *screenCI,
		ScreenCIAlpha:  *screenCIAlpha,
		MaxConstraints: *maxConstraints,
		Workers:        *workers,
	}
	model, err := discoverCodes(codes, *sparse, *mergeRare, opts)
	if err != nil {
		return err
	}
	if rep := model.Screen(); rep != nil {
		fmt.Fprintf(w, "screen: %d of %d attribute pairs passed (alpha %.3g)\n",
			rep.PairsKept, rep.PairsTotal, rep.Alpha)
		if rep.CIAlpha != 0 {
			fmt.Fprintf(w, "screen-ci: %d conditional tests dropped %d pairs (alpha %.3g)\n",
				rep.CITriplesTested, rep.CIEdgesDropped, rep.CIAlpha)
		}
		fmt.Fprintln(w)
	}
	if *scan {
		if err := printFirstScan(w, model); err != nil {
			return err
		}
	}
	fmt.Fprint(w, model.Summary())
	fmt.Fprintln(w)
	fmt.Fprint(w, model.Explain())
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fmt.Errorf("discover: %w", err)
		}
		defer f.Close()
		if err := model.Save(f); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nknowledge base written to %s\n", *out)
	}
	return nil
}

// scanCSVFile reads a CSV file in one pass: the schema is inferred and
// every row coded at once, so no command reads its input twice.
func scanCSVFile(path string, maxCard int) (*pka.CSVCodes, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return pka.ScanCSV(f, maxCard)
}

// discoverCodes runs acquisition on a scanned CSV: on a sparse table
// (-sparse, the wide-schema path that never allocates the dense joint
// space), on records when rare values are merged first, or on the dense
// table. Nothing keeps the codes, so their buffer is garbage before
// discovery begins.
func discoverCodes(codes *pka.CSVCodes, sparse bool, mergeRare int64, opts pka.Options) (*pka.Model, error) {
	schema := codes.Schema()
	switch {
	case sparse:
		table, err := codes.Sparse()
		if err != nil {
			return nil, err
		}
		return pka.DiscoverSparse(table, schema, opts)
	case mergeRare > 0:
		data, err := pka.MergeRareValues(codes.Dataset(), mergeRare)
		if err != nil {
			return nil, err
		}
		return pka.Discover(data, opts)
	default:
		table, err := codes.Table()
		if err != nil {
			return nil, err
		}
		return pka.DiscoverTable(table, schema, opts)
	}
}

func cmdRules(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("rules", flag.ContinueOnError)
	kbPath := fs.String("kb", "", "knowledge base: JSON from 'pka discover -out' or PKAS binary from 'pka snapshot'")
	minProb := fs.Float64("min-prob", 0, "minimum rule probability")
	minLift := fs.Float64("min-lift", 0, "minimum |lift-1| distance from independence")
	top := fs.Int("top", 0, "keep only the strongest K rules (0 = all)")
	withCI := fs.Bool("ci", false, "attach 95% Wilson confidence intervals (needs -n)")
	n := fs.Int64("n", 0, "discovery sample count, for -ci")
	if err := fs.Parse(args); err != nil {
		return err
	}
	model, err := loadKB(*kbPath)
	if err != nil {
		return err
	}
	rs, err := model.Rules(pka.RuleOptions{
		MinProbability:  *minProb,
		MinLiftDistance: *minLift,
		MaxRules:        *top,
	})
	if err != nil {
		return err
	}
	if len(rs) == 0 {
		fmt.Fprintln(w, "no rules pass the filters")
		return nil
	}
	if *withCI {
		if *n <= 0 {
			return fmt.Errorf("rules: -ci needs -n (the discovery sample count)")
		}
		scored, err := pka.RulesWithIntervals(rs, *n)
		if err != nil {
			return err
		}
		for i, s := range scored {
			fmt.Fprintf(w, "%3d. %s\n", i+1, s)
		}
		return nil
	}
	for i, r := range rs {
		fmt.Fprintf(w, "%3d. %s\n", i+1, r)
	}
	return nil
}

func cmdQuery(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	kbPath := fs.String("kb", "", "knowledge base: JSON from 'pka discover -out' or PKAS binary from 'pka snapshot'")
	target := fs.String("target", "", `target assignments, e.g. "CANCER=Yes"`)
	given := fs.String("given", "", `evidence assignments, e.g. "SMOKING=Smoker,FAMILY HISTORY=Yes"`)
	dist := fs.String("dist", "", "print the full distribution of this attribute instead")
	asJSON := fs.Bool("json", false, "emit machine-readable output (the server's query wire format)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	model, err := loadKB(*kbPath)
	if err != nil {
		return err
	}
	givenAssigns, err := parseAssignments(*given)
	if err != nil {
		return err
	}
	if *asJSON {
		q := pka.Query{Kind: pka.QueryConditional, Given: givenAssigns}
		if *dist != "" {
			q.Kind, q.Attr = pka.QueryDistribution, *dist
		} else {
			if *target == "" {
				return fmt.Errorf("query: -target or -dist is required")
			}
			if q.Target, err = parseAssignments(*target); err != nil {
				return err
			}
		}
		res, err := pka.Answer(model, q)
		if err != nil {
			return err
		}
		return pka.EncodeQueryResult(w, res)
	}
	if *dist != "" {
		d, err := model.Distribution(*dist, givenAssigns...)
		if err != nil {
			return err
		}
		attr, _, err := model.Schema().AttrByName(*dist)
		if err != nil {
			return err
		}
		for _, v := range attr.Values {
			fmt.Fprintf(w, "P(%s=%s%s) = %.6f\n", *dist, v, givenSuffix(*given), d[v])
		}
		return nil
	}
	if *target == "" {
		return fmt.Errorf("query: -target or -dist is required")
	}
	targetAssigns, err := parseAssignments(*target)
	if err != nil {
		return err
	}
	p, err := model.Conditional(targetAssigns, givenAssigns)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "P(%s%s) = %.6f\n", *target, givenSuffix(*given), p)
	return nil
}

func givenSuffix(given string) string {
	if given == "" {
		return ""
	}
	return " | " + given
}

func cmdTables(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("tables", flag.ContinueOnError)
	in := fs.String("in", "", "input CSV file")
	rows := fs.String("rows", "", "row attribute (default: the first attribute -cols does not name)")
	cols := fs.String("cols", "", "column attribute (default: the first attribute -rows does not take)")
	maxCard := fs.Int("max-card", 64, "reject CSV columns with more distinct values than this")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("tables: -in is required")
	}
	codes, err := scanCSVFile(*in, *maxCard)
	if err != nil {
		return err
	}
	schema := codes.Schema()
	table, err := codes.Table()
	if err != nil {
		return err
	}
	if schema.R() < 2 {
		return fmt.Errorf("tables: need at least 2 attributes")
	}
	rowAxis, colAxis := -1, -1
	if *rows != "" {
		if rowAxis, err = schema.Position(*rows); err != nil {
			return err
		}
	}
	if *cols != "" {
		if colAxis, err = schema.Position(*cols); err != nil {
			return err
		}
	}
	if rowAxis >= 0 && rowAxis == colAxis {
		return fmt.Errorf("tables: -rows and -cols both name %q", *rows)
	}
	// An unnamed axis takes the first attribute in schema order that the
	// other flag did not.
	if rowAxis < 0 {
		rowAxis = firstAxisExcept(colAxis)
	}
	if colAxis < 0 {
		colAxis = firstAxisExcept(rowAxis)
	}
	return table.RenderSlices(w, rowAxis, colAxis, true)
}

// firstAxisExcept returns 0, or 1 when taken is 0.
func firstAxisExcept(taken int) int {
	if taken == 0 {
		return 1
	}
	return 0
}

// loadKB opens a saved knowledge base in either on-disk format — JSON or
// PKAS binary snapshot — sniffing the magic bytes to dispatch.
func loadKB(path string) (*pka.QueryModel, error) {
	if path == "" {
		return nil, fmt.Errorf("-kb is required")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return pka.LoadAny(f)
}

// parseAssignments parses "A=x,B=y" into assignments; attribute names may
// contain spaces (only the comma splits pairs).
func parseAssignments(s string) ([]pka.Assignment, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]pka.Assignment, 0, len(parts))
	for _, part := range parts {
		eq := strings.IndexByte(part, '=')
		if eq < 0 {
			return nil, fmt.Errorf("bad assignment %q (want ATTR=value)", part)
		}
		attr := strings.TrimSpace(part[:eq])
		val := strings.TrimSpace(part[eq+1:])
		if attr == "" || val == "" {
			return nil, fmt.Errorf("bad assignment %q (want ATTR=value)", part)
		}
		out = append(out, pka.Assignment{Attr: attr, Value: val})
	}
	return out, nil
}
