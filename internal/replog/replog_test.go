package replog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func mustAppend(t testing.TB, l *Log, payload string) uint64 {
	t.Helper()
	off, err := l.Append([]byte(payload))
	if err != nil {
		t.Fatalf("Append(%q): %v", payload, err)
	}
	return off
}

func TestAppendReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "observe.pkal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Next() != 0 {
		t.Fatalf("fresh log Next = %d, want 0", l.Next())
	}
	want := []string{"alpha", "", "gamma-somewhat-longer-payload", `{"rows":[["a","b"]]}`}
	for i, p := range want {
		if off := mustAppend(t, l, p); off != uint64(i) {
			t.Fatalf("record %d assigned offset %d", i, off)
		}
	}
	recs, next, err := l.Read(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if next != uint64(len(want)) {
		t.Fatalf("next = %d, want %d", next, len(want))
	}
	for i, r := range recs {
		if string(r) != want[i] {
			t.Errorf("record %d = %q, want %q", i, r, want[i])
		}
	}
}

func TestReadPaging(t *testing.T) {
	path := filepath.Join(t.TempDir(), "observe.pkal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 10; i++ {
		mustAppend(t, l, fmt.Sprintf("rec-%d", i))
	}
	var got []string
	from := uint64(0)
	for {
		recs, next, err := l.Read(from, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			if next != from {
				t.Fatalf("empty read moved cursor %d -> %d", from, next)
			}
			break
		}
		for _, r := range recs {
			got = append(got, string(r))
		}
		from = next
	}
	if len(got) != 10 || got[0] != "rec-0" || got[9] != "rec-9" {
		t.Fatalf("paged read got %v", got)
	}
	if _, _, err := l.Read(11, 1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("read past end: err = %v, want ErrOutOfRange", err)
	}
}

func TestReopenResumesOffsets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "observe.pkal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, "one")
	mustAppend(t, l, "two")
	l.Close()

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Next() != 2 {
		t.Fatalf("reopened Next = %d, want 2", l2.Next())
	}
	if off := mustAppend(t, l2, "three"); off != 2 {
		t.Fatalf("append after reopen assigned %d, want 2", off)
	}
	recs, _, err := l2.Read(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || string(recs[2]) != "three" {
		t.Fatalf("read after reopen: %q", recs)
	}
}

// writeLog builds a well-formed two-record log on disk and returns its
// bytes for corruption tests.
func writeLog(t testing.TB) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "observe.pkal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, "first-record")
	mustAppend(t, l, "second-record")
	l.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, raw
}

func TestOpenRejectsCorruptPayload(t *testing.T) {
	path, raw := writeLog(t)
	// Flip one byte inside the first record's payload.
	raw[headerLen+frameLen+2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(path)
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt payload: err = %v, want ErrChecksum", err)
	}
}

func TestOpenRejectsTruncatedTail(t *testing.T) {
	path, raw := writeLog(t)
	for _, cut := range []int{1, frameLen - 1, frameLen + 3} {
		if err := os.WriteFile(path, raw[:len(raw)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path); !errors.Is(err, ErrTruncated) {
			t.Fatalf("tail cut by %d: err = %v, want ErrTruncated", cut, err)
		}
	}
}

func TestOpenRejectsBadMagic(t *testing.T) {
	path, raw := writeLog(t)
	copy(raw, "NOPE")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: err = %v, want ErrBadMagic", err)
	}
}

func TestOpenRejectsFutureVersion(t *testing.T) {
	path, raw := writeLog(t)
	raw[4] = 0xee
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("future version: err = %v, want ErrUnsupportedVersion", err)
	}
}

func TestOpenRejectsShortHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "observe.pkal")
	if err := os.WriteFile(path, []byte("PKA"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short header: err = %v, want ErrTruncated", err)
	}
}

func TestReadDetectsLateCorruption(t *testing.T) {
	// Corruption landing after Open's scan (e.g. disk rot while serving) is
	// caught by Read's re-verification.
	path, _ := writeLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, headerLen+frameLen+1); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, _, err := l.Read(0, 10); !errors.Is(err, ErrChecksum) {
		t.Fatalf("late corruption: err = %v, want ErrChecksum", err)
	}
}

func TestConcurrentReadersWithAppender(t *testing.T) {
	path := filepath.Join(t.TempDir(), "observe.pkal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 200
	done := make(chan error, 2)
	go func() {
		for i := 0; i < n; i++ {
			if _, err := l.Append(bytes.Repeat([]byte{byte(i)}, 1+i%17)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	go func() {
		from := uint64(0)
		for from < n {
			recs, next, err := l.Read(from, 7)
			if err != nil {
				done <- err
				return
			}
			for i, r := range recs {
				want := bytes.Repeat([]byte{byte(from) + byte(i)}, 1+(int(from)+i)%17)
				if !bytes.Equal(r, want) {
					done <- fmt.Errorf("record %d mismatch", from+uint64(i))
					return
				}
			}
			from = next
		}
		done <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzReplogOpen writes arbitrary bytes as a log file, opens it and reads
// every record from Base. Each step must either fail with one of the
// package's named errors or succeed, and every payload a read returns must
// be the one framed in the file with a CRC that verifies.
func FuzzReplogOpen(f *testing.F) {
	_, valid := writeLog(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add(valid[:headerLen])
	f.Add(valid[:len(valid)-3])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0x20
	f.Add(flipped)
	named := []error{ErrBadMagic, ErrUnsupportedVersion, ErrChecksum, ErrTruncated, ErrOutOfRange}
	isNamed := func(err error) bool {
		for _, n := range named {
			if errors.Is(err, n) {
				return true
			}
		}
		return false
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.pkal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(path)
		if err != nil {
			if !isNamed(err) {
				t.Fatalf("Open failed with an unnamed error: %v", err)
			}
			return
		}
		defer l.Close()
		payloads, next, err := l.Read(l.Base(), len(data)+1)
		if err != nil {
			if !isNamed(err) {
				t.Fatalf("Read failed with an unnamed error: %v", err)
			}
			return
		}
		if next != l.Base()+uint64(len(payloads)) {
			t.Fatalf("Read returned next %d after %d records from %d", next, len(payloads), l.Base())
		}
		// Walk the frames Open accepted and hold each payload to its
		// framed bytes and CRC.
		pos := headerLen
		for i, p := range payloads {
			n := int(binary.LittleEndian.Uint32(data[pos : pos+4]))
			crc := binary.LittleEndian.Uint32(data[pos+4 : pos+8])
			if !bytes.Equal(p, data[pos+frameLen:pos+frameLen+n]) {
				t.Fatalf("record %d: payload differs from its framed bytes", i)
			}
			if crc32.Checksum(p, castagnoli) != crc {
				t.Fatalf("record %d: CRC does not verify", i)
			}
			pos += frameLen + n
		}
	})
}
