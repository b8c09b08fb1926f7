package pka_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"pka"
	"pka/internal/kb"
	"pka/internal/snapshot"
)

// FuzzLoadJSON drives pka.LoadAny — what `pka serve -kb` and `pka query
// -kb` call on an untrusted file — with arbitrary bytes. It must never
// panic. A JSON input that fails must fail with kb.ErrInvalidFormat; an
// input that sniffs as a PKAS snapshot takes the binary path, whose own
// contract FuzzLoadSnapshot holds, and may fail with any error. A model
// that loads must answer one Probability (never a negative one) and
// re-save to bytes that load and re-save to the same bytes.
func FuzzLoadJSON(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join(golden7Dir, "*.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no golden7 JSON seeds: %v", err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// A two-attribute document, as loadable and with hostile positions or
	// a negative coefficient spliced in.
	twoAttr := func(family, vars, coeffs string) []byte {
		return []byte(`{"version":1,"attributes":[{"name":"A","values":["x","y"]},{"name":"B","values":["p","q"]}],` +
			`"model":{"names":["A","B"],"cards":[2,2],"a0":0.25,` +
			`"constraints":[{"family":` + family + `,"values":[0],"target":0.5}],` +
			`"families":[{"vars":` + vars + `,"coeffs":` + coeffs + `}]}}`)
	}
	f.Add(twoAttr("[0]", "[0]", "[1,1]"))
	f.Add(twoAttr("[-1]", "[0]", "[1,1]"))
	f.Add(twoAttr("[70000]", "[0]", "[1,1]"))
	f.Add(twoAttr("[0]", "[-3]", "[1,1]"))
	f.Add(twoAttr("[0]", "[0]", "[-5,1]"))
	f.Fuzz(func(t *testing.T, data []byte) {
		qm, err := pka.LoadAny(bytes.NewReader(data))
		if err != nil {
			if !snapshot.IsSnapshot(data) && !errors.Is(err, kb.ErrInvalidFormat) {
				t.Fatalf("JSON load failed without ErrInvalidFormat: %v", err)
			}
			return
		}
		a := qm.Schema().Attr(0)
		if p, err := qm.Probability(pka.Assignment{Attr: a.Name, Value: a.Values[0]}); err == nil && p < 0 {
			t.Fatalf("P(%s=%s) = %g", a.Name, a.Values[0], p)
		}
		var first, second bytes.Buffer
		if err := qm.Save(&first); err != nil {
			t.Fatalf("re-saving a loaded model: %v", err)
		}
		again, err := pka.LoadAny(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-saved model does not load: %v\n%s", err, first.Bytes())
		}
		if err := again.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save is not stable across a load:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
