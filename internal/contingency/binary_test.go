package contingency

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"pka/internal/wire"
)

func encodedTable(t *testing.T) (*Table, []byte) {
	t.Helper()
	tab := MustNew([]string{"A", "B"}, []int{3, 2})
	for i, c := range []int64{5, 0, 12, 7, 0, 3} {
		if err := tab.Set(c, i/2, i%2); err != nil {
			t.Fatal(err)
		}
	}
	var w wire.Writer
	EncodeTable(&w, tab)
	return tab, w.Bytes()
}

func encodedSparse(t *testing.T) (*Sparse, []byte) {
	t.Helper()
	s, err := NewSparse([]string{"A", "B", "C"}, []int{2, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range [][]int{{0, 0, 0}, {1, 2, 1}, {0, 1, 1}, {1, 2, 1}, {0, 0, 0}} {
		if err := s.Observe(cell...); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the projection cache so it travels.
	if _, err := s.Marginalize(NewVarSet(0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Marginalize(NewVarSet(2)); err != nil {
		t.Fatal(err)
	}
	var w wire.Writer
	EncodeSparse(&w, s)
	return s, w.Bytes()
}

func TestTableBinaryRoundTrip(t *testing.T) {
	tab, data := encodedTable(t)
	got, err := DecodeTable(wire.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got.Total() != tab.Total() || got.R() != tab.R() {
		t.Fatalf("round trip lost shape or total: %d/%d vs %d/%d",
			got.R(), got.Total(), tab.R(), tab.Total())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			a, _ := tab.At(i, j)
			b, _ := got.At(i, j)
			if a != b {
				t.Errorf("cell (%d,%d): %d != %d", i, j, b, a)
			}
		}
	}
	// Canonical: re-encoding the decoded table reproduces the bytes.
	var w2 wire.Writer
	EncodeTable(&w2, got)
	if !bytes.Equal(data, w2.Bytes()) {
		t.Error("dense re-encode is not byte-identical")
	}
}

func TestSparseBinaryRoundTrip(t *testing.T) {
	s, data := encodedSparse(t)
	got, err := DecodeSparse(wire.NewReader(data), 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Total() != s.Total() {
		t.Fatalf("round trip total %d != %d", got.Total(), s.Total())
	}
	c1, err := s.MarginalCount(NewVarSet(0, 1), []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := got.MarginalCount(NewVarSet(0, 1), []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Errorf("marginal count %d != %d", c2, c1)
	}
	// The projection cache travels: the restored table re-encodes
	// byte-identically, cache included.
	var w2 wire.Writer
	EncodeSparse(&w2, got)
	if !bytes.Equal(data, w2.Bytes()) {
		t.Error("sparse re-encode is not byte-identical")
	}
}

// TestEncodeSparseOneWordLayout pins the bytes of a one-word sparse table:
// shape, each cell as one packed word and its count in ascending key order,
// then the cached projections. One-word schemas share the two-word key
// codec, whose second word is zero, so keys, their order and these bytes
// are those of the single-word packing.
func TestEncodeSparseOneWordLayout(t *testing.T) {
	s, err := NewSparse([]string{"A", "B"}, []int{3, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range [][]int{{2, 1}, {0, 0}, {1, 1}, {2, 1}, {1, 0}} {
		if err := s.Observe(cell...); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Marginalize(NewVarSet(1)); err != nil {
		t.Fatal(err)
	}
	var w wire.Writer
	EncodeSparse(&w, s)
	const want = "0201410142020302040000000000000000010100000000000000010500000000000000010600000000000000020101010203"
	if got := hex.EncodeToString(w.Bytes()); got != want {
		t.Errorf("one-word sparse bytes\n got %s\nwant %s", got, want)
	}
}

// TestDecodeSparseRejectsCorrupt drives structurally corrupt sparse
// payloads through the decoder; each must fail loudly instead of
// producing an inconsistent table.
func TestDecodeSparseRejectsCorrupt(t *testing.T) {
	shape := func(w *wire.Writer) {
		w.Int(2)
		w.String("A")
		w.String("B")
		w.Ints([]int{2, 2})
	}
	cases := []struct {
		name  string
		build func(w *wire.Writer)
		want  string
	}{
		{"keys not ascending", func(w *wire.Writer) {
			shape(w)
			w.Int(2)
			w.Uint64(3)
			w.Uvarint(1)
			w.Uint64(1)
			w.Uvarint(1)
			w.Int(0)
		}, "not strictly ascending"},
		{"key out of range", func(w *wire.Writer) {
			shape(w)
			w.Int(1)
			w.Uint64(1 << 40) // bits beyond the 2x2 packing
			w.Uvarint(1)
			w.Int(0)
		}, "valid cell"},
		{"zero count", func(w *wire.Writer) {
			shape(w)
			w.Int(1)
			w.Uint64(0)
			w.Uvarint(0)
			w.Int(0)
		}, "non-positive count"},
		{"projection total mismatch", func(w *wire.Writer) {
			shape(w)
			w.Int(1)
			w.Uint64(0)
			w.Uvarint(4)
			w.Int(1)
			w.Ints([]int{0})
			w.Uvarint(1) // projection sums to 3, table totals 4
			w.Uvarint(2)
		}, "total"},
		{"projection beyond axes", func(w *wire.Writer) {
			shape(w)
			w.Int(0)
			w.Int(1)
			w.Ints([]int{5})
			w.Uvarint(0)
			w.Uvarint(0)
		}, "axes"},
		{"truncated cells", func(w *wire.Writer) {
			shape(w)
			w.Int(3)
			w.Uint64(0)
			w.Uvarint(1)
		}, "truncated"},
		{"projection count wraps", func(w *wire.Writer) {
			shape(w)
			w.Int(1)
			w.Uint64(0)
			w.Uvarint(4)
			w.Int(1)
			w.Ints([]int{0})
			w.Uvarint(math.MaxUint64) // reads as -1; -1 + 5 sums to the total
			w.Uvarint(5)
		}, "diverged"},
		{"projection disagrees with cells", func(w *wire.Writer) {
			shape(w)
			w.Int(1)
			w.Uint64(0)
			w.Uvarint(4)
			w.Int(1)
			w.Ints([]int{0})
			w.Uvarint(1) // sums to 4, but the one cell has A=0
			w.Uvarint(3)
		}, "diverged"},
		{"cell total overflows", func(w *wire.Writer) {
			shape(w)
			w.Int(2)
			w.Uint64(0)
			w.Uvarint(math.MaxInt64)
			w.Uint64(1)
			w.Uvarint(math.MaxInt64)
			w.Int(0)
		}, "overflow"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var w wire.Writer
			tc.build(&w)
			_, err := DecodeSparse(wire.NewReader(w.Bytes()), 2)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestDecodeTableRejectsOverflow: dense counts whose sum passes int64 are
// rejected, including a sum that wraps back to a positive total.
func TestDecodeTableRejectsOverflow(t *testing.T) {
	for name, counts := range map[string][]uint64{
		"wraps negative":    {math.MaxInt64, 1, 0},
		"wraps positive":    {math.MaxInt64, math.MaxInt64, 3},
		"count above int64": {math.MaxUint64, 1, 1},
	} {
		var w wire.Writer
		w.Int(1)
		w.String("A")
		w.Ints([]int{3})
		for _, c := range counts {
			w.Uvarint(c)
		}
		if _, err := DecodeTable(wire.NewReader(w.Bytes())); err == nil || !strings.Contains(err.Error(), "overflow") {
			t.Errorf("%s: got %v, want an overflow error", name, err)
		}
	}
}

// TestDecodeTableBoundsShapeByPayload: a dense shape claiming more cells
// than the payload has bytes is rejected as truncated before the table is
// allocated, so a few corrupt bytes cannot cost a 128 MiB count array.
func TestDecodeTableBoundsShapeByPayload(t *testing.T) {
	var w wire.Writer
	w.Int(2)
	w.String("A")
	w.String("B")
	w.Ints([]int{1 << 12, 1 << 12})
	w.Uvarint(7)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeTable(wire.NewReader(w.Bytes()))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, wire.ErrTruncated) {
		t.Fatalf("got %v, want wire.ErrTruncated", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("rejecting the shape allocated %d bytes", grew)
	}
}
