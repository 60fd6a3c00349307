package wal

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"trustmap/wire"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	for lsn := uint64(1); lsn <= 10; lsn++ {
		raw, err := Encode(testBatch(lsn))
		if err != nil {
			t.Fatalf("encode %d: %v", lsn, err)
		}
		buf.Write(raw)
	}
	dec := NewDecoder(&buf)
	for lsn := uint64(1); lsn <= 10; lsn++ {
		b, err := dec.Next()
		if err != nil {
			t.Fatalf("next %d: %v", lsn, err)
		}
		if b.LSN != lsn || len(b.Ops) != 2 {
			t.Fatalf("decoded lsn=%d ops=%d, want lsn=%d ops=2", b.LSN, len(b.Ops), lsn)
		}
	}
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("want io.EOF at clean end, got %v", err)
	}
}

// Encode must produce byte-for-byte the framing Append writes, so the
// stream really is the log's record format.
func TestEncodeMatchesAppendFraming(t *testing.T) {
	dir := t.TempDir()
	b := testBatch(1)
	appendN(t, dir, 1, 1)
	names, err := segments(dir)
	if err != nil || len(names) != 1 {
		t.Fatalf("segments: %v %v", names, err)
	}
	onDisk, err := os.ReadFile(filepath.Join(dir, names[0]))
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	raw, err := Encode(b)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if !bytes.Equal(onDisk[len(magic):], raw) {
		t.Fatalf("Encode framing differs from Append framing")
	}
}

func TestDecoderTornStream(t *testing.T) {
	raw, err := Encode(testBatch(1))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	// Any strict prefix that is not a clean frame boundary must decode as
	// a torn stream, never as EOF or a bogus batch.
	for _, cut := range []int{1, frameHeaderSize - 1, frameHeaderSize, frameHeaderSize + 3, len(raw) - 1} {
		dec := NewDecoder(bytes.NewReader(raw[:cut]))
		if _, err := dec.Next(); !errors.Is(err, ErrTornStream) {
			t.Fatalf("cut at %d: want ErrTornStream, got %v", cut, err)
		}
	}
	// A flipped payload byte (CRC mismatch) is also a tear.
	bad := append([]byte(nil), raw...)
	bad[len(bad)-1] ^= 0xff
	if _, err := NewDecoder(bytes.NewReader(bad)).Next(); !errors.Is(err, ErrTornStream) {
		t.Fatalf("corrupt payload: want ErrTornStream, got %v", err)
	}
}

func tailAll(t *testing.T, dir string, after, upto uint64) ([]wire.OpBatch, error) {
	t.Helper()
	var got []wire.OpBatch
	err := Tail(dir, after, upto, func(b wire.OpBatch) error {
		got = append(got, b)
		return nil
	})
	return got, err
}

func TestTailWindow(t *testing.T) {
	dir := t.TempDir()
	appendN(t, dir, 1, 20)

	got, err := tailAll(t, dir, 5, 17)
	if err != nil {
		t.Fatalf("tail: %v", err)
	}
	if len(got) != 12 || got[0].LSN != 6 || got[len(got)-1].LSN != 17 {
		t.Fatalf("tail window wrong: %d batches, first %d last %d",
			len(got), got[0].LSN, got[len(got)-1].LSN)
	}
	// Empty window is a no-op.
	if got, err := tailAll(t, dir, 20, 20); err != nil || len(got) != 0 {
		t.Fatalf("empty window: got %d batches, err %v", len(got), err)
	}
}

// A torn physical tail beyond the durable watermark is invisible to Tail;
// asking past it is an error.
func TestTailStopsAtTornTail(t *testing.T) {
	dir := t.TempDir()
	appendN(t, dir, 1, 10)
	names, _ := segments(dir)
	path := filepath.Join(dir, names[len(names)-1])
	raw, err := Encode(testBatch(11))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := f.Write(raw[:len(raw)-2]); err != nil {
		t.Fatalf("tear: %v", err)
	}
	f.Close()

	got, err := tailAll(t, dir, 0, 10)
	if err != nil {
		t.Fatalf("tail below watermark must succeed: %v", err)
	}
	if len(got) != 10 {
		t.Fatalf("got %d batches, want 10", len(got))
	}
	if _, err := tailAll(t, dir, 0, 11); err == nil ||
		!strings.Contains(err.Error(), "want 11") {
		t.Fatalf("tail past the tear must fail, got %v", err)
	}
}

func TestTailSpansSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 0, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for lsn := uint64(1); lsn <= 15; lsn++ {
		if err := l.Append(testBatch(lsn)); err != nil {
			t.Fatalf("append: %v", err)
		}
		if lsn%5 == 0 {
			if err := l.Rotate(); err != nil {
				t.Fatalf("rotate: %v", err)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	got, err := tailAll(t, dir, 3, 15)
	if err != nil {
		t.Fatalf("tail: %v", err)
	}
	if len(got) != 12 || got[0].LSN != 4 {
		t.Fatalf("cross-segment tail wrong: %d batches, first %d", len(got), got[0].LSN)
	}
}

func TestOldestAndClear(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := Oldest(dir); ok || err != nil {
		t.Fatalf("empty dir: ok=%v err=%v", ok, err)
	}
	l, err := Open(dir, 0, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for lsn := uint64(1); lsn <= 10; lsn++ {
		if err := l.Append(testBatch(lsn)); err != nil {
			t.Fatalf("append: %v", err)
		}
		if lsn == 5 {
			if err := l.Rotate(); err != nil {
				t.Fatalf("rotate: %v", err)
			}
		}
	}
	if first, ok, _ := Oldest(dir); !ok || first != 1 {
		t.Fatalf("oldest = %d,%v want 1,true", first, ok)
	}
	if _, err := l.Prune(5); err != nil {
		t.Fatalf("prune: %v", err)
	}
	if first, ok, _ := Oldest(dir); !ok || first != 6 {
		t.Fatalf("oldest after prune = %d,%v want 6,true", first, ok)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := Clear(dir); err != nil {
		t.Fatalf("clear: %v", err)
	}
	if _, ok, _ := Oldest(dir); ok {
		t.Fatalf("oldest after clear: want none")
	}
}

// FuzzStreamFrames fuzzes Decoder.Next, which decodes the bytes a replica
// reads off GET /v1/wal — input from outside the process. Arbitrary bytes
// never panic, every error is io.EOF or wraps ErrTornStream, and every
// batch decoded survives Encode -> Decode unchanged.
func FuzzStreamFrames(f *testing.F) {
	var stream []byte
	for lsn := uint64(1); lsn <= 3; lsn++ {
		raw, err := Encode(testBatch(lsn))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		stream = append(stream, raw...)
	}
	f.Add(stream)
	f.Add(stream[:len(stream)-3]) // torn mid-payload
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder(bytes.NewReader(data))
		for {
			b, err := dec.Next()
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrTornStream) {
					t.Fatalf("error is neither io.EOF nor ErrTornStream: %v", err)
				}
				return
			}
			raw, err := Encode(b)
			if err != nil {
				t.Fatalf("encode a decoded batch: %v", err)
			}
			again, err := NewDecoder(bytes.NewReader(raw)).Next()
			if err != nil {
				t.Fatalf("decode Encode output: %v", err)
			}
			// Comparing encodings, not structs: JSON decoding turns an
			// empty list into an empty slice that re-encodes as absent.
			raw2, err := Encode(again)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(raw, raw2) {
				t.Fatalf("round trip changed the batch:\n%s\n%s", raw[frameHeaderSize:], raw2[frameHeaderSize:])
			}
		}
	})
}
