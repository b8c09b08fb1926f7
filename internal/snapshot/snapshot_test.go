package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pka/internal/contingency"
	"pka/internal/wire"
)

// seal wraps framed sections in a valid header and checksum, so the
// section decoders see the bytes as they stand.
func seal(version uint16, sections map[byte][]byte) []byte {
	var payload wire.Writer
	for _, id := range []byte{secSchema, secModel, secCounts, secOptions} {
		if body, ok := sections[id]; ok {
			section(&payload, id, func(b *wire.Writer) { b.Raw(body) })
		}
	}
	out := make([]byte, headerLen, headerLen+payload.Len()+4)
	copy(out, Magic)
	binary.LittleEndian.PutUint16(out[4:6], version)
	binary.LittleEndian.PutUint64(out[8:16], uint64(payload.Len()))
	out = append(out, payload.Bytes()...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, castagnoli))
}

// sectionsOf splits a valid snapshot file into its section bodies.
func sectionsOf(t testing.TB, data []byte) map[byte][]byte {
	t.Helper()
	out := make(map[byte][]byte)
	payload := data[headerLen : len(data)-4]
	for off := 0; off < len(payload); {
		id := payload[off]
		n := int(binary.LittleEndian.Uint64(payload[off+1 : off+9]))
		off += 9
		out[id] = payload[off : off+n]
		off += n
	}
	return out
}

// goldenSections loads the committed golden snapshots' sections: a
// factored model with sparse counts, cached projections and options, and a
// query-only one, both written as version 1. The full snapshot's 57 KB
// counts section is left out — seeds that large make the fuzzer spend its
// time minimizing — and small counts sections stand in for it.
func goldenSections(t testing.TB) []map[byte][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "golden7", "*.pkas"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden snapshots: %v", err)
	}
	var out []map[byte][]byte
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Read(bytes.NewReader(data)); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		secs := sectionsOf(t, data)
		version := binary.LittleEndian.Uint16(data[4:6])
		if got := seal(version, secs); !bytes.Equal(got, data) {
			t.Fatalf("%s: re-sealing its sections changed the bytes", p)
		}
		if _, ok := secs[secCounts]; ok {
			secs[secCounts] = smallCounts(t, true)
		}
		out = append(out, secs)
	}
	return out
}

// smallCounts is a counts section: a three-attribute sparse table with
// two cached projections, or a two-attribute dense table.
func smallCounts(t testing.TB, sparse bool) []byte {
	t.Helper()
	var c contingency.Counts
	if sparse {
		s, err := contingency.NewSparse(nil, []int{2, 3, 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, vs := range []contingency.VarSet{contingency.NewVarSet(0, 1), contingency.NewVarSet(2)} {
			if _, err := s.Marginalize(vs); err != nil {
				t.Fatal(err)
			}
		}
		c = s
	} else {
		d, err := contingency.New(nil, []int{2, 2})
		if err != nil {
			t.Fatal(err)
		}
		c = d
	}
	if err := c.ApplyBatch([]contingency.CellDelta{
		{Cell: []int{1, 1, 0}[:c.R()], Delta: 3},
	}); err != nil {
		t.Fatal(err)
	}
	var w wire.Writer
	contingency.EncodeCounts(&w, c)
	return w.Bytes()
}

// twoAttrSchema is a schema section over attributes A and B, two values
// each.
func twoAttrSchema() []byte {
	var w wire.Writer
	w.Int(2)
	for _, name := range []string{"A", "B"} {
		w.String(name)
		w.Int(2)
		w.String("x")
		w.String("y")
	}
	return w.Bytes()
}

// modelSection is a dense-mode model section over the given cards with one
// family over {0, 1} and one constraint on it, of target 0.5.
func modelSection(cards []int, vars []int, coeffs []float64, values []int) []byte {
	return modelSectionTarget(cards, vars, coeffs, values, 0.5)
}

// modelSectionTarget is modelSection with the constraint's target given.
func modelSectionTarget(cards []int, vars []int, coeffs []float64, values []int, target float64) []byte {
	var w wire.Writer
	w.Int(len(cards))
	for i := range cards {
		w.String(string(rune('A' + i)))
	}
	w.Ints(cards)
	w.Float64(0.25)
	w.Int(1)
	w.Ints([]int{0, 1})
	w.Ints(values)
	w.Float64(target)
	w.Int(1)
	w.Ints(vars)
	w.Floats(coeffs)
	w.Byte(0)
	return w.Bytes()
}

// overflowModel is a model section whose family size wraps: 4 cells
// claimed over cards 2^62+1 and 4, with a constraint value that indexes
// far past them.
func overflowModel() []byte {
	return modelSection([]int{1<<62 + 1, 4}, []int{0, 1}, []float64{1, 1, 1, 1}, []int{1000, 3})
}

// nanTargetModel is a well-formed model section but for its constraint
// target, which is NaN.
func nanTargetModel() []byte {
	return modelSectionTarget([]int{2, 2}, []int{0, 1}, []float64{1, 1, 1, 1}, []int{0, 0}, math.NaN())
}

// wrappedProjectionCounts is a sparse counts section whose one cached
// projection holds a count that reads as -1 beside 5: it sums to the
// table's total of 4 but disagrees with the table's one cell.
func wrappedProjectionCounts() []byte {
	var w wire.Writer
	w.Byte(2) // the sparse counts kind
	w.Int(2)
	w.String("A")
	w.String("B")
	w.Ints([]int{2, 2})
	w.Int(1)
	w.Uint64(0)
	w.Uvarint(4)
	w.Int(1)
	w.Ints([]int{0})
	w.Uvarint(math.MaxUint64)
	w.Uvarint(5)
	return w.Bytes()
}

// TestReadRejectsCorruptSections: structurally sound files — valid header,
// valid checksum — whose section contents are hostile fail with an error,
// never a panic and never a load.
func TestReadRejectsCorruptSections(t *testing.T) {
	schema := twoAttrSchema()
	cases := map[string][]byte{
		"family size overflows":  overflowModel(),
		"family members descend": modelSection([]int{2, 3}, []int{1, 0}, []float64{1, 1, 1, 1, 1, 1}, []int{0, 0}),
		"family members repeat":  modelSection([]int{2, 2}, []int{0, 0, 1}, []float64{1, 1, 1, 1}, []int{0, 0}),
		"too few coefficients":   modelSection([]int{2, 2}, []int{0, 1}, []float64{1, 1, 1}, []int{0, 0}),
		"negative coefficient":   modelSection([]int{2, 2}, []int{0, 1}, []float64{1, -1, 1, 1}, []int{0, 0}),
		"value out of range":     modelSection([]int{2, 2}, []int{0, 1}, []float64{1, 1, 1, 1}, []int{0, 2}),
		"NaN coefficient":        modelSection([]int{2, 2}, []int{0, 1}, []float64{1, math.NaN(), 1, 1}, []int{0, 0}),
		"NaN target":             nanTargetModel(),
	}
	if _, err := Read(bytes.NewReader(seal(FormatVersion, map[byte][]byte{
		secSchema: schema,
		secModel:  modelSection([]int{2, 2}, []int{0, 1}, []float64{1, 1, 1, 1}, []int{0, 0}),
	}))); err != nil {
		t.Fatalf("the well-formed variant does not load: %v", err)
	}
	for name, model := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := Read(bytes.NewReader(seal(FormatVersion, map[byte][]byte{secSchema: schema, secModel: model})))
			if err == nil {
				t.Fatal("loaded")
			}
			checkSectionError(t, err)
		})
	}
}

// checkSectionError holds Read's error contract for a file whose framing
// is sound: the failure is a validation error from a section decoder, so
// it is never a container-level sentinel and always names the snapshot
// layer.
func checkSectionError(t *testing.T, err error) {
	t.Helper()
	for _, sentinel := range []error{ErrBadMagic, ErrUnsupportedVersion, ErrChecksum} {
		if errors.Is(err, sentinel) {
			t.Fatalf("sound framing failed at the container level: %v", err)
		}
	}
	if !strings.HasPrefix(err.Error(), "snapshot: ") {
		t.Fatalf("error does not name the snapshot layer: %v", err)
	}
}

// FuzzSnapshotSections feeds fuzzed schema, model, counts and options
// section bytes to Read inside a valid header and checksum. Whole-file
// mutation (FuzzLoadSnapshot at the module root) almost always dies at the
// checksum; this target reaches the section decoders. Read must not panic,
// and must fail only with a section-level error. An empty input leaves its
// section out.
func FuzzSnapshotSections(f *testing.F) {
	for _, secs := range goldenSections(f) {
		for _, v1 := range []bool{false, true} {
			f.Add(v1, secs[secSchema], secs[secModel], secs[secCounts], secs[secOptions])
		}
	}
	f.Add(false, twoAttrSchema(), overflowModel(), smallCounts(f, false), []byte(nil))
	f.Add(false, twoAttrSchema(), nanTargetModel(), []byte(nil), []byte(nil))
	f.Add(false, twoAttrSchema(), modelSection([]int{2, 2}, []int{0, 1}, []float64{1, 1, 1, 1}, []int{0, 0}),
		wrappedProjectionCounts(), []byte(nil))
	f.Fuzz(func(t *testing.T, v1 bool, schema, model, counts, options []byte) {
		version := uint16(FormatVersion)
		if v1 {
			version = 1
		}
		secs := make(map[byte][]byte)
		for id, body := range map[byte][]byte{secSchema: schema, secModel: model, secCounts: counts, secOptions: options} {
			if len(body) > 0 {
				secs[id] = body
			}
		}
		s, err := Read(bytes.NewReader(seal(version, secs)))
		if err != nil {
			checkSectionError(t, err)
			return
		}
		if s.Schema == nil || s.Model == nil {
			t.Fatal("loaded without a schema or a model")
		}
	})
}
