package kb

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"pka/internal/snapshot"
)

// TestLoadInvalidFormat drives malformed JSON-path inputs through Load
// and checks each fails with the named ErrInvalidFormat, so callers can
// branch with errors.Is instead of matching message text.
func TestLoadInvalidFormat(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"empty", ""},
		{"truncated json", "{"},
		{"not json", "this is not a knowledge base"},
		{"binary garbage", "\x00\x01\x02\x03\x04"},
		{"wrong version", `{"version": 99, "attributes": [], "model": {}}`},
		{"missing version", `{"attributes": [], "model": {}}`},
		{"bad schema", `{"version": 1, "attributes": [{"name": "", "values": ["a"]}], "model": {}}`},
		{"bad model", `{"version": 1, "attributes": [{"name": "A", "values": ["a", "b"]}], "model": "nope"}`},
		{"schema and model disagree", `{"version":1,"attributes":[{"name":"A","values":["x","y"]}],"model":{"names":["A"],"cards":[3],"a0":1}}`},
		// Hostile positions and coefficients in an otherwise valid
		// two-attribute document: positions outside the schema must not
		// reach the VarSet constructor, and a negative coefficient would
		// answer negative probabilities.
		{"negative constraint position", twoAttrKB("[-1]", "[0]", "[1,1]")},
		{"constraint position past MaxVars", twoAttrKB("[70000]", "[0]", "[1,1]")},
		{"negative family position", twoAttrKB("[0]", "[-3]", "[1,1]")},
		{"negative coefficient", twoAttrKB("[0]", "[0]", "[-5,1]")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(strings.NewReader(tc.input))
			if !errors.Is(err, ErrInvalidFormat) {
				t.Errorf("got %v, want errors.Is(err, ErrInvalidFormat)", err)
			}
		})
	}
}

// twoAttrKB renders a knowledge base over attributes A and B with one
// constraint family and one coefficient family, their positions and
// coefficients spliced in as JSON. twoAttrKB("[0]", "[0]", "[1,1]") loads.
func twoAttrKB(family, vars, coeffs string) string {
	return `{"version":1,"attributes":[{"name":"A","values":["x","y"]},{"name":"B","values":["p","q"]}],` +
		`"model":{"names":["A","B"],"cards":[2,2],"a0":0.25,` +
		`"constraints":[{"family":` + family + `,"values":[0],"target":0.5}],` +
		`"families":[{"vars":` + vars + `,"coeffs":` + coeffs + `}]}}`
}

// TestBinaryRoundTrip checks SaveBinary/LoadBinary preserve the engine:
// the restored KB explains and answers like the original, and the binary
// path surfaces the snapshot package's named errors rather than
// ErrInvalidFormat.
func TestBinaryRoundTrip(t *testing.T) {
	k := memoKB(t)
	var buf bytes.Buffer
	if err := k.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	k2, err := LoadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !k2.Schema().Equal(k.Schema()) {
		t.Error("restored schema differs")
	}
	p1, err := k.Probability(Assignment{Attr: "CANCER", Value: "Yes"})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := k2.Probability(Assignment{Attr: "CANCER", Value: "Yes"})
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Errorf("restored probability %v differs from live %v", p2, p1)
	}

	if _, err := LoadBinary(strings.NewReader("not a snapshot")); !errors.Is(err, snapshot.ErrBadMagic) {
		t.Errorf("binary-path error = %v, want snapshot.ErrBadMagic", err)
	}
}

// TestLoadAnyDispatch checks the format sniffing: JSON and PKAS inputs
// both load through LoadAny, and each format's own named error survives
// the dispatch.
func TestLoadAnyDispatch(t *testing.T) {
	k := memoKB(t)
	var jsonBuf, binBuf bytes.Buffer
	if err := k.Save(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	if err := k.SaveBinary(&binBuf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAny(bytes.NewReader(jsonBuf.Bytes())); err != nil {
		t.Errorf("LoadAny(json): %v", err)
	}
	if _, err := LoadAny(bytes.NewReader(binBuf.Bytes())); err != nil {
		t.Errorf("LoadAny(binary): %v", err)
	}
	if _, err := LoadAny(strings.NewReader("{garbage")); !errors.Is(err, ErrInvalidFormat) {
		t.Errorf("LoadAny(bad json) = %v, want ErrInvalidFormat", err)
	}
	if _, err := LoadAny(bytes.NewReader(append([]byte(snapshot.Magic), 0x00))); !errors.Is(err, snapshot.ErrTruncated) {
		t.Errorf("LoadAny(truncated snapshot) = %v, want snapshot.ErrTruncated", err)
	}
}

// TestTwoAttrKBLoads pins the baseline the hostile documents in
// TestLoadInvalidFormat are spliced from: unmodified, it loads and answers
// P(A=x) = 0.5.
func TestTwoAttrKBLoads(t *testing.T) {
	k, err := Load(strings.NewReader(twoAttrKB("[0]", "[0]", "[1,1]")))
	if err != nil {
		t.Fatal(err)
	}
	if p, err := k.Probability(Assignment{Attr: "A", Value: "x"}); err != nil || p != 0.5 {
		t.Fatalf("P(A=x) = %v, %v; want 0.5", p, err)
	}
}
