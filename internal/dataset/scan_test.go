package dataset

import (
	"fmt"
	"strings"
	"testing"
)

// TestScanCSVMatchesTwoPass runs the differential check on inputs the fuzz
// seeds do not reach: wide codes, lines longer than the read buffer, and
// enough rows to span several sparse chunks.
func TestScanCSVMatchesTwoPass(t *testing.T) {
	var wide strings.Builder
	wide.WriteString("ID,B\n")
	for i := range 600 {
		fmt.Fprintf(&wide, "id%03d,%d\n", (i*7)%300, i%3)
	}
	long := "A,B\n" + strings.Repeat("x", 3*scanBufSize) + ",y\nx,y\n"
	var many strings.Builder
	many.WriteString("A,B,C\n")
	for i := range 2*tabulateChunkRows + 17 {
		fmt.Fprintf(&many, "a%d,b%d,c%d\n", i%2, i%3, i%5)
	}
	for name, data := range map[string]string{
		"over 256 labels": wide.String(),
		"long line":       long,
		"several chunks":  many.String(),
	} {
		t.Run(name, func(t *testing.T) {
			checkOnePass(t, data, 0)
		})
	}
	c, err := ScanCSV(strings.NewReader(wide.String()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.wide == nil || c.narrow != nil {
		t.Error("a 300-label column did not widen the codes")
	}
}

// TestCSVRowErrorsAroundQuotes pins the row and line numbers of errors
// raised before and after the first quoted line hands the stream to
// encoding/csv: both readers must count lines the same way.
func TestCSVRowErrorsAroundQuotes(t *testing.T) {
	cases := []struct {
		name, data, want string
	}{
		{"short row before a quote", "A,B\nx,y\n\nx\n\"x\",y\n",
			"dataset: reading CSV row 3: record on line 4: wrong number of fields"},
		{"short row after a quote", "A,B\nx,y\n\"x\",y\n\nx\n",
			"dataset: reading CSV row 4: record on line 5: wrong number of fields"},
		{"long row after a multi-line field", "A,B\n\"x\ny\",y\nx,y,z\n",
			"dataset: reading CSV row 3: record on line 4: wrong number of fields"},
		{"bad quote after a CRLF line", "A,B\r\nx,y\r\nx,y\"\r\n",
			"dataset: reading CSV row 3: parse error on line 3, column 4: bare \" in non-quoted-field"},
		{"unterminated quote", "A,B\nx,y\n\nx,\"y\nz\n",
			"dataset: reading CSV row 3: record on line 4; parse error on line 5, column 3: extraneous or missing \" in quoted-field"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := InferSchema(strings.NewReader(c.data), 0)
			if err == nil || err.Error() != c.want {
				t.Errorf("InferSchema error = %v, want %s", err, c.want)
			}
			checkOnePass(t, c.data, 0)
		})
	}

	schema := MustSchema([]Attribute{
		{Name: "A", Values: []string{"x"}},
		{Name: "B", Values: []string{"y"}},
	})
	for _, c := range []struct{ name, data, want string }{
		{"before a quote", "A,B\nx,y\nz,y\n\"x\",y\n",
			"dataset: CSV row 3: attribute \"A\" has no value \"z\" and no \"other\" fallback"},
		{"after a quote", "A,B\n\"x\",y\n\nx,y\nz,y\n",
			"dataset: CSV row 4: attribute \"A\" has no value \"z\" and no \"other\" fallback"},
	} {
		t.Run("unknown label "+c.name, func(t *testing.T) {
			_, err := TabulateCSV(strings.NewReader(c.data), schema)
			if err == nil || err.Error() != c.want {
				t.Errorf("TabulateCSV error = %v, want %s", err, c.want)
			}
			_, err = ReadCSV(strings.NewReader(c.data), schema)
			wantRead := strings.Replace(c.want, ": attribute", ": dataset: attribute", 1)
			if err == nil || err.Error() != wantRead {
				t.Errorf("ReadCSV error = %v, want %s", err, wantRead)
			}
			checkGivenSchema(t, c.data, schema)
		})
	}
}

// TestCSVByteOrderMark checks that every entry point drops a leading
// byte-order mark instead of folding it into the first attribute's name.
func TestCSVByteOrderMark(t *testing.T) {
	const data = "\ufeffA,B\r\nx,y\r\nx,z\r\nw,y\r\n"
	names := func(s *Schema) string { return strings.Join(s.Names(), ",") }
	s, err := InferSchema(strings.NewReader(data), 0)
	if err != nil || names(s) != "A,B" {
		t.Fatalf("InferSchema: %v, attributes %q", err, names(s))
	}
	c, err := ScanCSV(strings.NewReader(data), 0)
	if err != nil || names(c.Schema()) != "A,B" || c.Len() != 3 {
		t.Fatalf("ScanCSV: %v", err)
	}
	if d, err := ReadCSV(strings.NewReader(data), s); err != nil || d.Len() != 3 {
		t.Errorf("ReadCSV: %v", err)
	}
	if tab, err := TabulateCSV(strings.NewReader(data), s); err != nil || tab.Total() != 3 {
		t.Errorf("TabulateCSV: %v", err)
	}
	if sp, err := TabulateCSVSparse(strings.NewReader(data), s); err != nil || sp.Total() != 3 {
		t.Errorf("TabulateCSVSparse: %v", err)
	}
	// Only one mark, and only at the start of the stream, is dropped.
	if s, err := InferSchema(strings.NewReader("\ufeff"+data), 0); err != nil || s.Attr(0).Name != "\ufeffA" {
		t.Errorf("a second mark was dropped too: %v", err)
	}
}

// TestScanCSVAllocsPerRow checks that ingest cost in allocations does not
// grow with the row count on unquoted input: ten times the rows may add a
// few buffer doublings, never an allocation per row.
func TestScanCSVAllocsPerRow(t *testing.T) {
	body := func(n int) string {
		var b strings.Builder
		b.WriteString("SMOKING, CANCER ,FAMILY HISTORY\r\n")
		rows := []string{"Smoker,Yes,Yes", "Non smoker, No,No", "Non smoker married to a smoker,No ,Yes"}
		for i := range n {
			b.WriteString(rows[i%len(rows)])
			b.WriteString("\r\n")
		}
		return b.String()
	}
	small, large := body(2000), body(20000)
	schema := memoSchema(t)
	for _, c := range []struct {
		name  string
		slack float64
		run   func(data string) error
	}{
		{"ScanCSV+Table", 5, func(data string) error {
			c, err := ScanCSV(strings.NewReader(data), 64)
			if err == nil {
				_, err = c.Table()
			}
			return err
		}},
		{"InferSchema", 0, func(data string) error {
			_, err := InferSchema(strings.NewReader(data), 64)
			return err
		}},
		{"TabulateCSV", 0, func(data string) error {
			_, err := TabulateCSV(strings.NewReader(data), schema)
			return err
		}},
	} {
		allocs := func(data string) float64 {
			return testing.AllocsPerRun(3, func() {
				if err := c.run(data); err != nil {
					t.Fatal(err)
				}
			})
		}
		a, b := allocs(small), allocs(large)
		if b > a+c.slack {
			t.Errorf("%s: %.0f allocations for 2,000 rows but %.0f for 20,000", c.name, a, b)
		}
	}
}
