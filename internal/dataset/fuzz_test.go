package dataset

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"pka/internal/contingency"
)

// FuzzCSVIngest feeds arbitrary bytes through the full ingest pipeline:
// schema inference must never panic, and whenever it succeeds, reading and
// tabulating with the inferred schema must also succeed and agree on the
// record count.
func FuzzCSVIngest(f *testing.F) {
	f.Add("A,B\nx,y\n")
	f.Add("SMOKING,CANCER\nSmoker,Yes\nNon smoker,No\n")
	f.Add("a\n\n")
	f.Add("h1,h2,h3\n1,2,3\n4,5,6\n")
	f.Add(",\n,\n")
	f.Add("x,x\na,b\n") // duplicate header
	f.Add("A;B\n1;2\n") // no commas at all
	f.Add("A,B\n\"q,uo\",z\n")
	f.Fuzz(func(t *testing.T, data string) {
		schema, err := InferSchema(strings.NewReader(data), 64)
		if err != nil {
			return // malformed input is allowed to error, not panic
		}
		d, err := ReadCSV(strings.NewReader(data), schema)
		if err != nil {
			t.Fatalf("InferSchema accepted but ReadCSV failed: %v\ninput: %q", err, data)
		}
		tab, err := TabulateCSV(strings.NewReader(data), schema)
		if err != nil {
			t.Fatalf("InferSchema accepted but TabulateCSV failed: %v\ninput: %q", err, data)
		}
		if tab.Total() != int64(d.Len()) {
			t.Fatalf("record count mismatch: tabulated %d, read %d\ninput: %q",
				tab.Total(), d.Len(), data)
		}
	})
}

// FuzzCSVOnePass holds the one-pass scanner to the two-pass encoding/csv
// reference (oracle_test.go) on arbitrary bytes: the inferred schema, the
// dense and sparse counts, the records, and every error's text must match,
// both for an inferred schema and for a fixed one that exercises header
// matching, unknown labels and the OtherValue fallback.
func FuzzCSVOnePass(f *testing.F) {
	f.Add("A,B\nx,y\nx,z\nw,y\n")
	f.Add("\"A\",B\nx,y\n")                                        // a quote on the first line
	f.Add("A,B\nx,y\n\"x\",z\nw,y\nw\n")                           // a quote mid-file, then a short row
	f.Add("A,B\nx,y\n\"x\ny\",z\nw,y\n")                           // a quoted field spanning lines
	f.Add("A,B\r\nx,y\r\nx,z\r\n")                                 // CRLF line endings
	f.Add("A,B\nx\ry,z\nx,y\r")                                    // a bare \r inside a field, and before EOF
	f.Add("A,B\n\nx,y\n\r\n  \n , \nx,y\n")                        // blank and whitespace-only lines
	f.Add("A,B\n\u00a0x,y\u3000\n\u0085x,y\n")                     // Unicode spaces
	f.Add("\ufeffA,B\nx,y\nx,z\n")                                 // a byte-order mark
	f.Add("A,B\n" + strings.Repeat("x,y\n", 3) + distinctRows(70)) // a row past maxCard
	f.Add("A,A\nx,y\n")                                            // a duplicate header
	f.Add("B,A\nq,y\np,x\n")                                       // fixed-schema columns reordered, unknown B
	f.Add("A,B,C\nx,p,1\nz,p,2\n")                                 // an unknown A label with no fallback
	f.Fuzz(func(t *testing.T, data string) {
		checkOnePass(t, data, 64)
	})
}

// distinctRows returns n rows whose first column never repeats.
func distinctRows(n int) string {
	var b strings.Builder
	for i := range n {
		fmt.Fprintf(&b, "v%d,y\n", i)
	}
	return b.String()
}

// fixedSchema is the given schema FuzzCSVOnePass codes every input against.
var fixedSchema = MustSchema([]Attribute{
	{Name: "A", Values: []string{"x", "y"}},
	{Name: "B", Values: []string{"p", "y", OtherValue}},
})

// checkOnePass compares every CSV entry point on data with the two-pass
// reference.
func checkOnePass(t *testing.T, data string, maxCard int) {
	t.Helper()
	want, werr := twoPassInferSchema(data, maxCard)
	codes, err := ScanCSV(strings.NewReader(data), maxCard)
	sameErr(t, "ScanCSV", data, err, werr)
	inferred, err := InferSchema(strings.NewReader(data), maxCard)
	sameErr(t, "InferSchema", data, err, werr)
	if werr == nil {
		if !codes.Schema().Equal(want) || !inferred.Equal(want) {
			t.Fatalf("schema differs\ninput: %q\ngot:\n%swant:\n%s", data, codes.Schema().Describe(), want.Describe())
		}
		if codes.Len() > 0 && smallJoint(want) {
			wt, werr := twoPassTabulateCSV(data, want)
			got, err := codes.Table()
			sameErr(t, "Codes.Table", data, err, werr)
			if err == nil && !got.Equal(wt) {
				t.Fatalf("Codes.Table differs\ninput: %q", data)
			}
		}
		ws, werr := twoPassTabulateCSVSparse(data, want)
		got, err := codes.Sparse()
		sameErr(t, "Codes.Sparse", data, err, werr)
		if err == nil {
			sameSparse(t, "Codes.Sparse", data, got, ws)
		}
		wd, _ := twoPassReadCSV(data, want)
		sameRecords(t, "Codes.Dataset", data, codes.Dataset(), wd)
		checkGivenSchema(t, data, want)
	}
	checkGivenSchema(t, data, fixedSchema)
}

// checkGivenSchema compares the fixed-schema entry points with the
// two-pass reference.
func checkGivenSchema(t *testing.T, data string, schema *Schema) {
	t.Helper()
	if smallJoint(schema) {
		wt, werr := twoPassTabulateCSV(data, schema)
		got, err := TabulateCSV(strings.NewReader(data), schema)
		sameErr(t, "TabulateCSV", data, err, werr)
		if err == nil && !got.Equal(wt) {
			t.Fatalf("TabulateCSV differs\ninput: %q", data)
		}
	}
	ws, werr := twoPassTabulateCSVSparse(data, schema)
	gs, err := TabulateCSVSparse(strings.NewReader(data), schema)
	sameErr(t, "TabulateCSVSparse", data, err, werr)
	if err == nil {
		sameSparse(t, "TabulateCSVSparse", data, gs, ws)
	}
	wd, werr := twoPassReadCSV(data, schema)
	gd, err := ReadCSV(strings.NewReader(data), schema)
	sameErr(t, "ReadCSV", data, err, werr)
	if err == nil {
		sameRecords(t, "ReadCSV", data, gd, wd)
	}
}

// smallJoint reports whether the schema's dense joint is small enough to
// allocate on every fuzz input.
func smallJoint(s *Schema) bool {
	n := 1
	for _, c := range s.Cards() {
		if n *= c; n > 1<<12 {
			return false
		}
	}
	return true
}

func sameErr(t *testing.T, what, data string, got, want error) {
	t.Helper()
	switch {
	case got == nil && want == nil:
	case got == nil || want == nil:
		t.Fatalf("%s: error %v, reference %v\ninput: %q", what, got, want, data)
	case got.Error() != want.Error():
		t.Fatalf("%s: error text differs\n got: %s\nwant: %s\ninput: %q", what, got, want, data)
	}
}

func sameSparse(t *testing.T, what, data string, got, want *contingency.Sparse) {
	t.Helper()
	type cellCount struct {
		cell  string
		count int64
	}
	list := func(s *contingency.Sparse) []cellCount {
		var out []cellCount
		s.EachCellSorted(func(cell []int, c int64) {
			out = append(out, cellCount{fmt.Sprint(cell), c})
		})
		return out
	}
	if got.Total() != want.Total() || !slices.Equal(list(got), list(want)) {
		t.Fatalf("%s: sparse counts differ\ninput: %q", what, data)
	}
}

func sameRecords(t *testing.T, what, data string, got, want *Dataset) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d records, reference %d\ninput: %q", what, got.Len(), want.Len(), data)
	}
	for i := range got.Len() {
		if !slices.Equal(got.Record(i), want.Record(i)) {
			t.Fatalf("%s: record %d = %v, reference %v\ninput: %q", what, i, got.Record(i), want.Record(i), data)
		}
	}
}
