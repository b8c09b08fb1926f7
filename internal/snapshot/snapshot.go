package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"pka/internal/contingency"
	"pka/internal/core"
	"pka/internal/dataset"
	"pka/internal/maxent"
	"pka/internal/wire"
)

// Magic is the 4-byte file signature every PKAS snapshot starts with.
const Magic = "PKAS"

// FormatVersion is the current container version. Version 2 lifted the
// 64-bit schema ceiling: constraint families and cached-projection
// families travel as member lists and sparse cell keys as multi-word
// packings, so any schema width round-trips. Readers accept every version
// back to minFormatVersion and reject higher versions with
// ErrUnsupportedVersion rather than guessing at a layout.
const FormatVersion = 2

// minFormatVersion is the oldest version Read still decodes. Version-1
// snapshots (single-word families and keys) load transparently; writes
// always produce the current version.
const minFormatVersion = 1

// headerLen is the fixed container header size: magic, version, flags,
// payload length.
const headerLen = 16

// Named failures a loader can test with errors.Is. Anything else coming
// out of Read is a validation failure inside a structurally sound file.
var (
	ErrBadMagic           = errors.New("snapshot: not a PKAS snapshot (bad magic)")
	ErrUnsupportedVersion = errors.New("snapshot: unsupported format version")
	ErrChecksum           = errors.New("snapshot: checksum mismatch (corrupt or truncated file)")
	ErrTruncated          = wire.ErrTruncated
)

// Section IDs.
const (
	secSchema  = 1
	secModel   = 2
	secCounts  = 3
	secOptions = 4
)

// castagnoli is the CRC-32C table shared by writer and reader.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Snapshot is the in-memory form of one PKAS file. Schema and Model are
// required; Counts and Options travel only in full snapshots saved from an
// updatable model (a query-only snapshot serves without them). Options
// carries the discovery knobs an updatable model refits with; only the
// fields encodeOptions writes travel.
type Snapshot struct {
	Schema  *dataset.Schema
	Model   *maxent.Model
	Counts  contingency.Counts
	Options *core.Options
}

// IsSnapshot reports whether prefix starts with the PKAS magic — the
// format sniff loaders use to dispatch between binary and JSON.
func IsSnapshot(prefix []byte) bool {
	return len(prefix) >= len(Magic) && string(prefix[:len(Magic)]) == Magic
}

// section appends one framed section built by fill.
func section(w *wire.Writer, id byte, fill func(*wire.Writer)) {
	var body wire.Writer
	fill(&body)
	w.Byte(id)
	w.Uint64(uint64(body.Len()))
	w.Raw(body.Bytes())
}

// Write serializes the snapshot to w in the PKAS container format.
func Write(w io.Writer, s *Snapshot) error {
	if s.Schema == nil || s.Model == nil {
		return fmt.Errorf("snapshot: schema and model are required")
	}
	st, err := s.Model.Export()
	if err != nil {
		return fmt.Errorf("snapshot: exporting model: %w", err)
	}
	var payload wire.Writer
	section(&payload, secSchema, func(b *wire.Writer) { encodeSchema(b, s.Schema) })
	section(&payload, secModel, func(b *wire.Writer) { encodeModel(b, st) })
	if s.Counts != nil {
		section(&payload, secCounts, func(b *wire.Writer) { contingency.EncodeCounts(b, s.Counts) })
	}
	if s.Options != nil {
		section(&payload, secOptions, func(b *wire.Writer) { encodeOptions(b, s.Options) })
	}

	var hdr [headerLen]byte
	copy(hdr[:4], Magic)
	binary.LittleEndian.PutUint16(hdr[4:6], FormatVersion)
	binary.LittleEndian.PutUint16(hdr[6:8], 0) // flags, reserved
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(payload.Len()))

	sum := crc32.New(castagnoli)
	sum.Write(hdr[:])
	sum.Write(payload.Bytes())
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], sum.Sum32())

	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("snapshot: writing header: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("snapshot: writing payload: %w", err)
	}
	if _, err := w.Write(trailer[:]); err != nil {
		return fmt.Errorf("snapshot: writing checksum: %w", err)
	}
	return nil
}

// Read deserializes a PKAS snapshot, verifying magic, version, and
// checksum before decoding, and restoring the model's compiled engine
// directly from the stored coefficients — no solve, no block summation.
// The header is read and validated first, so bad magic or a version skew
// fail before the payload is pulled in, and the payload buffer is sized
// from the header's length field instead of grown by doubling.
func Read(r io.Reader) (*Snapshot, error) {
	var hdr [headerLen]byte
	n, err := io.ReadFull(r, hdr[:])
	if err != nil && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("snapshot: reading input: %w", err)
	}
	if n < len(Magic) || !IsSnapshot(hdr[:n]) {
		return nil, ErrBadMagic
	}
	if n < headerLen {
		return nil, fmt.Errorf("%w: %d-byte input is shorter than the fixed framing", ErrTruncated, n)
	}
	version := int(binary.LittleEndian.Uint16(hdr[4:6]))
	if version < minFormatVersion || version > FormatVersion {
		return nil, fmt.Errorf("%w: file has version %d, this build reads versions %d through %d",
			ErrUnsupportedVersion, version, minFormatVersion, FormatVersion)
	}
	if flags := binary.LittleEndian.Uint16(hdr[6:8]); flags != 0 {
		return nil, fmt.Errorf("snapshot: unsupported flags %#x", flags)
	}
	payloadLen := binary.LittleEndian.Uint64(hdr[8:16])
	// Ordinary payloads are read in one exact-size allocation — no buffer
	// doubling, no copy. The declared length is trusted for sizing only up
	// to a cap, so a corrupt header cannot force a giant allocation; larger
	// claims fall back to growing a buffer organically, which fails with
	// ErrTruncated when the file cannot actually back them.
	var data []byte
	if payloadLen <= 1<<24 {
		data = make([]byte, headerLen+int(payloadLen)+4)
		copy(data, hdr[:])
		n, err := io.ReadFull(r, data[headerLen:])
		if err != nil && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("snapshot: reading input: %w", err)
		}
		if n < int(payloadLen)+4 {
			carried := n - 4 // the 4-byte checksum trailer is not payload
			if carried < 0 {
				carried = 0
			}
			return nil, fmt.Errorf("%w: header says %d payload bytes, file carries %d",
				ErrTruncated, payloadLen, carried)
		}
		var extra [1]byte
		if m, _ := io.ReadFull(r, extra[:]); m > 0 {
			return nil, fmt.Errorf("%w: header says %d payload bytes, file carries more",
				ErrTruncated, payloadLen)
		}
	} else {
		buf := bytes.NewBuffer(make([]byte, 0, headerLen+1<<24))
		buf.Write(hdr[:])
		if payloadLen <= uint64(math.MaxInt64-headerLen-5) {
			if _, err := io.Copy(buf, io.LimitReader(r, int64(payloadLen)+5)); err != nil {
				return nil, fmt.Errorf("snapshot: reading input: %w", err)
			}
		}
		data = buf.Bytes()
		if payloadLen != uint64(len(data)-headerLen-4) {
			return nil, fmt.Errorf("%w: header says %d payload bytes, file carries %d",
				ErrTruncated, payloadLen, len(data)-headerLen-4)
		}
	}
	stored := binary.LittleEndian.Uint32(data[len(data)-4:])
	if actual := crc32.Checksum(data[:len(data)-4], castagnoli); actual != stored {
		return nil, fmt.Errorf("%w: stored %#08x, computed %#08x", ErrChecksum, stored, actual)
	}

	s := &Snapshot{}
	payload := data[headerLen : len(data)-4]
	for off := 0; off < len(payload); {
		if len(payload)-off < 9 {
			return nil, fmt.Errorf("%w: dangling section frame", ErrTruncated)
		}
		id := payload[off]
		n := binary.LittleEndian.Uint64(payload[off+1 : off+9])
		off += 9
		if n > uint64(len(payload)-off) {
			return nil, fmt.Errorf("%w: section %d claims %d bytes, %d remain", ErrTruncated, id, n, len(payload)-off)
		}
		body := wire.NewReader(payload[off : off+int(n)])
		off += int(n)
		switch id {
		case secSchema:
			if s.Schema, err = decodeSchema(body); err != nil {
				return nil, err
			}
		case secModel:
			if s.Model, err = decodeModel(body, version); err != nil {
				return nil, err
			}
		case secCounts:
			if s.Counts, err = contingency.DecodeCounts(body, version); err != nil {
				return nil, fmt.Errorf("snapshot: %w", err)
			}
		case secOptions:
			if s.Options, err = decodeOptions(body, version); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("snapshot: unknown section ID %d", id)
		}
		if body.Remaining() != 0 {
			return nil, fmt.Errorf("snapshot: section %d has %d trailing bytes", id, body.Remaining())
		}
	}
	if s.Schema == nil {
		return nil, fmt.Errorf("snapshot: missing schema section")
	}
	if s.Model == nil {
		return nil, fmt.Errorf("snapshot: missing model section")
	}
	return s, nil
}

// encodeSchema writes section 1: attributes with their value labels.
func encodeSchema(w *wire.Writer, sc *dataset.Schema) {
	w.Int(sc.R())
	for i := 0; i < sc.R(); i++ {
		a := sc.Attr(i)
		w.String(a.Name)
		w.Int(len(a.Values))
		for _, v := range a.Values {
			w.String(v)
		}
	}
}

// decodeSchema reads section 1 and revalidates through NewSchema.
func decodeSchema(r *wire.Reader) (*dataset.Schema, error) {
	n := r.Int()
	if r.Err() != nil || n <= 0 || n > contingency.MaxVars {
		return nil, fmt.Errorf("snapshot: decoding schema: %w", firstErr(r.Err()))
	}
	attrs := make([]dataset.Attribute, n)
	// Value-label slices are carved from chunked backing arrays — one
	// allocation per chunk instead of one per attribute.
	var labels []string
	for i := range attrs {
		attrs[i].Name = r.String()
		nv := r.Int()
		if r.Err() != nil || nv <= 0 || nv > r.Remaining()+1 {
			return nil, fmt.Errorf("snapshot: decoding schema: %w", firstErr(r.Err()))
		}
		if len(labels) < nv {
			size := 64
			if nv > size {
				size = nv
			}
			labels = make([]string, size)
		}
		attrs[i].Values = labels[:nv:nv]
		labels = labels[nv:]
		for j := range attrs[i].Values {
			attrs[i].Values[j] = r.String()
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("snapshot: decoding schema: %w", err)
	}
	sc, err := dataset.NewSchema(attrs)
	if err != nil {
		return nil, fmt.Errorf("snapshot: decoding schema: %w", err)
	}
	return sc, nil
}

// encodeModel writes section 2 from the exported model state.
func encodeModel(w *wire.Writer, st *maxent.ModelState) {
	w.Int(len(st.Names))
	for _, n := range st.Names {
		w.String(n)
	}
	w.Ints(st.Cards)
	w.Float64(st.A0)
	w.Int(len(st.Constraints))
	for _, c := range st.Constraints {
		// v2: the family travels as its member list, valid at any width.
		w.Ints(c.Family.Members())
		w.Ints(c.Values)
		w.Float64(c.Target)
	}
	w.Int(len(st.Families))
	for _, f := range st.Families {
		w.Ints(f.Vars)
		w.Floats(f.Coeffs)
	}
	if !st.Factored {
		w.Byte(0)
		return
	}
	w.Byte(1)
	w.Int(len(st.Blocks))
	for _, b := range st.Blocks {
		w.Ints(b.Vars)
		if b.HasA0 {
			w.Byte(1)
			w.Float64(b.A0)
		} else {
			w.Byte(0)
		}
		w.Float64(b.Sum)
	}
}

// decodeModel reads section 2 and rebuilds the fitted model, compiled
// engine included, through maxent.RestoreModel. The many per-constraint
// and per-family slices come out of shared arenas: restore is the
// cold-start hot path, where hundreds of tiny allocations dominate.
func decodeModel(r *wire.Reader, version int) (*maxent.Model, error) {
	var ints wire.IntArena
	var floats wire.FloatArena
	st := &maxent.ModelState{}
	nn := r.Int()
	if r.Err() != nil || nn <= 0 || nn > contingency.MaxVars {
		return nil, fmt.Errorf("snapshot: decoding model: %w", firstErr(r.Err()))
	}
	st.Names = make([]string, nn)
	for i := range st.Names {
		st.Names[i] = r.String()
	}
	st.Cards = r.Ints()
	st.A0 = r.Float64()
	ncons, ok := modelCount(r)
	if !ok {
		return nil, fmt.Errorf("snapshot: decoding model: %w", firstErr(r.Err()))
	}
	st.Constraints = make([]maxent.Constraint, ncons)
	for i := range st.Constraints {
		var fam contingency.VarSet
		if version == 1 {
			fam = contingency.VarSetFromMask(r.Uvarint())
		} else {
			var err error
			if fam, err = varSetFromMembers(r.IntsArena(&ints)); err != nil {
				return nil, fmt.Errorf("snapshot: decoding model: %w", err)
			}
		}
		vals := r.IntsArena(&ints)
		target := r.Float64()
		if r.Err() != nil {
			return nil, fmt.Errorf("snapshot: decoding model: %w", r.Err())
		}
		st.Constraints[i] = maxent.Constraint{
			Family: fam,
			Values: vals,
			Target: target,
		}
	}
	nfams, ok := modelCount(r)
	if !ok {
		return nil, fmt.Errorf("snapshot: decoding model: %w", firstErr(r.Err()))
	}
	st.Families = make([]maxent.FamilyState, nfams)
	for i := range st.Families {
		st.Families[i] = maxent.FamilyState{Vars: r.IntsArena(&ints), Coeffs: r.FloatsArena(&floats)}
	}
	switch mode := r.Byte(); mode {
	case 0:
	case 1:
		st.Factored = true
		nblocks, ok := modelCount(r)
		if !ok {
			return nil, fmt.Errorf("snapshot: decoding model: %w", firstErr(r.Err()))
		}
		st.Blocks = make([]maxent.BlockState, nblocks)
		for i := range st.Blocks {
			b := maxent.BlockState{Vars: r.IntsArena(&ints)}
			if r.Byte() == 1 {
				b.A0, b.HasA0 = r.Float64(), true
			}
			b.Sum = r.Float64()
			st.Blocks[i] = b
		}
	default:
		if r.Err() == nil {
			return nil, fmt.Errorf("snapshot: decoding model: unknown engine mode %d", mode)
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("snapshot: decoding model: %w", err)
	}
	m, err := maxent.RestoreModel(st)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return m, nil
}

// varSetFromMembers rebuilds a family from its decoded member list,
// rejecting out-of-range positions (NewVarSet would panic, and decoders
// must fail on corrupt data instead).
func varSetFromMembers(members []int) (contingency.VarSet, error) {
	var vs contingency.VarSet
	for _, p := range members {
		if p < 0 || p >= contingency.MaxVars {
			return contingency.VarSet{}, fmt.Errorf("family member %d out of range", p)
		}
		vs = vs.Add(p)
	}
	return vs, nil
}

// modelCount reads a structure count and bounds it by the remaining bytes
// (every counted element occupies at least one byte).
func modelCount(r *wire.Reader) (int, bool) {
	n := r.Int()
	if r.Err() != nil || n < 0 || n > r.Remaining() {
		return 0, false
	}
	return n, true
}

// encodeOptions writes section 4.
func encodeOptions(w *wire.Writer, o *core.Options) {
	w.Int(o.MaxOrder)
	w.Float64(o.MML.PriorH2)
	w.Int(o.MaxConstraints)
	var flags byte
	if o.RecordScans {
		flags |= 1
	}
	if o.MML.IncludeForced {
		flags |= 2
	}
	if o.ScreenPairs {
		flags |= 4
	}
	if o.ScreenCI {
		flags |= 8
	}
	w.Byte(flags)
	w.Float64(o.ScreenAlpha)
	w.Int(o.Workers)
	// v2 appends the conditional-independence screen knob.
	w.Float64(o.ScreenCIAlpha)
}

// decodeOptions reads section 4.
func decodeOptions(r *wire.Reader, version int) (*core.Options, error) {
	o := &core.Options{}
	o.MaxOrder = r.Int()
	o.MML.PriorH2 = r.Float64()
	o.MaxConstraints = r.Int()
	flags := r.Byte()
	o.RecordScans = flags&1 != 0
	o.MML.IncludeForced = flags&2 != 0
	o.ScreenPairs = flags&4 != 0
	o.ScreenCI = flags&8 != 0
	o.ScreenAlpha = r.Float64()
	o.Workers = r.Int()
	if version >= 2 {
		o.ScreenCIAlpha = r.Float64()
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("snapshot: decoding options: %w", err)
	}
	return o, nil
}

// firstErr substitutes ErrTruncated for a nil reader error at a validation
// failure, so callers always wrap a real cause.
func firstErr(err error) error {
	if err != nil {
		return err
	}
	return ErrTruncated
}
