package dataset

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"io"
	"unicode/utf8"
)

// csvScanner is the one CSV reader behind every ingest entry point. Records
// read exactly as from csv.Reader{TrimLeadingSpace: true} with
// strings.TrimSpace applied to every field, but unquoted lines — nearly all
// real input — are tokenized here, straight from the bufio.Reader's buffer:
// a field costs a comma search and a trim, never a string. At the first
// line holding a '"', that line and the rest of the stream go to an
// encoding/csv reader, so quoting keeps the standard library's grammar, its
// error text and its line numbers.
//
// One leading UTF-8 byte-order mark is dropped: spreadsheet "CSV UTF-8"
// exports start with one, and it must not become part of the first
// attribute's name.
type csvScanner struct {
	br     *bufio.Reader
	long   []byte   // a line longer than br's buffer, reassembled
	line   int      // physical lines read, numbered as csv.Reader numbers them
	nf     int      // fields per record: the header's count (0 before it)
	fields [][]byte // the current record's trimmed fields; valid until next

	cr     *csv.Reader // non-nil once a quoted line has been seen
	crLine int         // physical lines read before cr took over
	crBuf  []byte      // backing for the fields copied out of cr's record
	crEnds []int
}

// scanBufSize is the read buffer: large enough that every line of a
// realistic data bank is tokenized in place.
const scanBufSize = 64 << 10

var byteOrderMark = []byte("\xef\xbb\xbf")

func newCSVScanner(r io.Reader) *csvScanner {
	return &csvScanner{br: bufio.NewReaderSize(r, scanBufSize)}
}

// header reads the first record and fixes the field count every later
// record must match.
func (s *csvScanner) header() error {
	if err := s.next(); err != nil {
		return err
	}
	s.nf = len(s.fields)
	return nil
}

// next reads the next record into s.fields. It returns io.EOF after the last
// record, a *csv.ParseError for a malformed record, or the underlying read
// error.
func (s *csvScanner) next() error {
	if s.cr != nil {
		return s.nextQuoted()
	}
	for {
		line, err := s.readLine()
		if err != nil {
			return err
		}
		s.line++
		if s.line == 1 {
			line = bytes.TrimPrefix(line, byteOrderMark)
		}
		if bytes.IndexByte(line, '"') >= 0 {
			s.startQuoted(line)
			return s.nextQuoted()
		}
		// csv.Reader normalizes "\r\n" to "\n" and drops a '\r' before EOF;
		// a line left empty is skipped, a whitespace-only one is a record.
		body := line
		if n := len(body); n > 0 && body[n-1] == '\n' {
			body = body[:n-1]
		}
		if n := len(body); n > 0 && body[n-1] == '\r' {
			body = body[:n-1]
		}
		if len(body) == 0 {
			continue
		}
		// Categorical fields are a few bytes long, so a byte loop finds the
		// next comma sooner than a call to bytes.IndexByte would.
		s.fields = s.fields[:0]
		for {
			i := 0
			for i < len(body) && body[i] != ',' {
				i++
			}
			f := body[:i]
			if len(f) == 0 || !plainByte[f[0]] || !plainByte[f[len(f)-1]] {
				f = trimField(f)
			}
			s.fields = append(s.fields, f)
			if i == len(body) {
				break
			}
			body = body[i+1:]
		}
		if s.nf > 0 && len(s.fields) != s.nf {
			return &csv.ParseError{StartLine: s.line, Line: s.line, Column: 1, Err: csv.ErrFieldCount}
		}
		return nil
	}
}

// readLine returns the next physical line, '\n' included when present, or
// io.EOF once the stream is exhausted.
func (s *csvScanner) readLine() ([]byte, error) {
	line, err := s.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		s.long = append(s.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = s.br.ReadSlice('\n')
			s.long = append(s.long, line...)
		}
		line = s.long
	}
	if err == io.EOF && len(line) > 0 {
		err = nil
	}
	return line, err
}

// startQuoted hands line and the rest of the stream to an encoding/csv
// reader that enforces the header's field count.
func (s *csvScanner) startQuoted(line []byte) {
	rest := io.MultiReader(bytes.NewReader(bytes.Clone(line)), s.br)
	s.cr = csv.NewReader(rest)
	s.cr.TrimLeadingSpace = true
	s.cr.ReuseRecord = true
	s.cr.FieldsPerRecord = s.nf
	s.crLine = s.line - 1
}

// nextQuoted reads one record through the encoding/csv fallback, shifting
// its line numbers past the lines tokenized before it.
func (s *csvScanner) nextQuoted() error {
	rec, err := s.cr.Read()
	if err != nil {
		var pe *csv.ParseError
		if errors.As(err, &pe) {
			pe.StartLine += s.crLine
			pe.Line += s.crLine
		}
		return err
	}
	s.crBuf, s.crEnds = s.crBuf[:0], s.crEnds[:0]
	for _, f := range rec {
		s.crBuf = append(s.crBuf, f...)
		s.crEnds = append(s.crEnds, len(s.crBuf))
	}
	s.fields = s.fields[:0]
	start := 0
	for _, end := range s.crEnds {
		s.fields = append(s.fields, bytes.TrimSpace(s.crBuf[start:end]))
		start = end
	}
	return nil
}

// asciiSpace marks the bytes bytes.TrimSpace trims without decoding.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// plainByte marks the ASCII bytes that are not space: a field that starts
// and ends with one is already trimmed.
var plainByte = func() (p [256]bool) {
	for b := range utf8.RuneSelf {
		p[b] = !asciiSpace[b]
	}
	return p
}()

// trimField is bytes.TrimSpace with the ASCII case inlined: only a field
// that still starts or ends with a multi-byte rune after the ASCII trim
// (U+0085 and U+00A0 are spaces too) takes the Unicode path.
func trimField(f []byte) []byte {
	for len(f) > 0 && asciiSpace[f[0]] {
		f = f[1:]
	}
	for len(f) > 0 && asciiSpace[f[len(f)-1]] {
		f = f[:len(f)-1]
	}
	if len(f) > 0 && (f[0] >= utf8.RuneSelf || f[len(f)-1] >= utf8.RuneSelf) {
		return bytes.TrimSpace(f)
	}
	return f
}

// labelIndex maps one column's labels to codes. A label of up to
// maxShortLabel bytes — "yes", "mild", "0" — is packed into one integer
// key and found in a small open-addressed table, where the first probe
// nearly always decides: a lookup costs a multiply and a compare, with no
// data-dependent branch for the CPU to mispredict. Longer labels go
// through a string map. Neither path allocates for a label already seen.
type labelIndex struct {
	labels    []string    // every label, in insertion order
	slots     []labelSlot // the short labels; a power of two, at most half full
	longIndex map[string]int
}

type labelSlot struct {
	key  uint64 // packLabel of the label; 0 marks an empty slot
	code int
}

// maxShortLabel is the longest label packLabel encodes: seven bytes plus
// the length fill one uint64.
const maxShortLabel = 7

// packLabel packs a short label and its length into one nonzero integer,
// uniquely.
func packLabel[T string | []byte](b T) uint64 {
	k := uint64(len(b)+1) << 56
	for i := 0; i < len(b); i++ {
		k |= uint64(b[i]) << (8 * i)
	}
	return k
}

// slotOf is key's home slot in a table of mask+1 slots.
func slotOf(key uint64, mask int) int {
	return int((key*0x9e3779b97f4a7c15)>>40) & mask
}

// find returns the code of label b.
func (x *labelIndex) find(b []byte) (int, bool) {
	if len(b) > maxShortLabel {
		c, ok := x.longIndex[string(b)]
		return c, ok
	}
	k, mask := packLabel(b), len(x.slots)-1
	if mask < 0 {
		return 0, false
	}
	for i := slotOf(k, mask); ; i = (i + 1) & mask {
		switch x.slots[i].key {
		case k:
			return x.slots[i].code, true
		case 0:
			return 0, false
		}
	}
}

// add records that label codes as code.
func (x *labelIndex) add(label string, code int) {
	x.labels = append(x.labels, label)
	if len(label) > maxShortLabel {
		if x.longIndex == nil {
			x.longIndex = make(map[string]int)
		}
		x.longIndex[label] = code
		return
	}
	if 2*len(x.labels) > len(x.slots) {
		old := x.slots
		x.slots = make([]labelSlot, max(16, 2*len(old)))
		for _, sl := range old {
			if sl.key != 0 {
				x.put(sl)
			}
		}
	}
	x.put(labelSlot{packLabel(label), code})
}

// put stores sl in the first free slot from its home.
func (x *labelIndex) put(sl labelSlot) {
	mask := len(x.slots) - 1
	i := slotOf(sl.key, mask)
	for x.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = sl
}
