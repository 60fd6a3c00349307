package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"trustmap/wire"
)

// testBatch builds a deterministic batch for an LSN.
func testBatch(lsn uint64) wire.OpBatch {
	return wire.OpBatch{
		Schema: wire.SchemaVersion,
		Epoch:  lsn, // arbitrary but deterministic
		LSN:    lsn,
		Ops: []wire.Op{
			{Op: wire.OpSetTrust, Truster: fmt.Sprintf("u%d", lsn), Trusted: "root", Priority: int(lsn % 7)},
			{Op: wire.OpPutBelief, Object: fmt.Sprintf("o%d", lsn%3), User: fmt.Sprintf("u%d", lsn), Value: "v"},
		},
	}
}

// appendN opens the log in dir and appends batches for LSNs (from, from+n).
func appendN(t *testing.T, dir string, from uint64, n int) {
	t.Helper()
	l, err := Open(dir, 0, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < n; i++ {
		if err := l.Append(testBatch(from + uint64(i))); err != nil {
			t.Fatalf("append %d: %v", from+uint64(i), err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// replayAll recovers the log in dir and collects every batch Open
// hands over with LSN > after.
func replayAll(t *testing.T, dir string, after uint64) []wire.OpBatch {
	t.Helper()
	var got []wire.OpBatch
	l, err := Open(dir, after, func(b wire.OpBatch) error {
		got = append(got, b)
		return nil
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return got
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	appendN(t, dir, 1, 25)

	l, err := Open(dir, 0, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if l.LastLSN() != 25 {
		t.Fatalf("LastLSN = %d, want 25", l.LastLSN())
	}
	if l.Stats().DiscardedBytes != 0 {
		t.Fatalf("clean log discarded %d bytes", l.Stats().DiscardedBytes)
	}
	l.Close()

	got := replayAll(t, dir, 0)
	if len(got) != 25 {
		t.Fatalf("replayed %d batches, want 25", len(got))
	}
	for i, b := range got {
		want := testBatch(uint64(i + 1))
		if b.LSN != want.LSN || len(b.Ops) != len(want.Ops) || b.Ops[0].Truster != want.Ops[0].Truster {
			t.Fatalf("batch %d: got %+v, want %+v", i, b, want)
		}
	}
	if got := replayAll(t, dir, 20); len(got) != 5 || got[0].LSN != 21 {
		t.Fatalf("suffix replay after 20: %d batches, first %v", len(got), got[0].LSN)
	}
	stop := errors.New("stop")
	if _, err := Open(dir, 0, func(wire.OpBatch) error { return stop }); !errors.Is(err, stop) {
		t.Fatalf("open with a failing callback: %v, want its error", err)
	}
}

func TestAppendEnforcesContiguity(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(testBatch(2)); err == nil {
		t.Fatal("append lsn 2 on empty log succeeded, want error")
	}
	if err := l.Append(testBatch(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testBatch(3)); err == nil {
		t.Fatal("append lsn 3 after 1 succeeded, want error")
	}
}

func TestRotateAndPrune(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for lsn := uint64(1); lsn <= 10; lsn++ {
		if err := l.Append(testBatch(lsn)); err != nil {
			t.Fatal(err)
		}
		if lsn%4 == 0 {
			if err := l.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Segments: wal-1 (1-4), wal-5 (5-8), wal-9 (9-10 active).
	if got := l.Stats().Segments; got != 3 {
		t.Fatalf("segments = %d, want 3", got)
	}
	// Watermark 6 only retires wal-1 (wal-5 holds 7-8 too).
	if n, err := l.Prune(6); err != nil || n != 1 {
		t.Fatalf("prune(6) = %d, %v; want 1, nil", n, err)
	}
	// Watermark 10 retires wal-5; the active segment survives.
	if n, err := l.Prune(10); err != nil || n != 1 {
		t.Fatalf("prune(10) = %d, %v; want 1, nil", n, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The pruned log reopens cleanly and replays only the tail.
	l2, err := Open(dir, 0, nil)
	if err != nil {
		t.Fatalf("reopen pruned: %v", err)
	}
	if l2.LastLSN() != 10 {
		t.Fatalf("LastLSN after prune = %d, want 10", l2.LastLSN())
	}
	if err := l2.Append(testBatch(11)); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	if got := replayAll(t, dir, 8); len(got) != 3 || got[0].LSN != 9 {
		t.Fatalf("replay after prune: %d batches from %d", len(got), got[0].LSN)
	}
}

func TestReplaySkipsPrunedPrefix(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, 0, nil)
	for lsn := uint64(1); lsn <= 6; lsn++ {
		if err := l.Append(testBatch(lsn)); err != nil {
			t.Fatal(err)
		}
		if lsn == 3 {
			l.Rotate()
		}
	}
	l.Close()
	if got := replayAll(t, dir, 3); len(got) != 3 || got[0].LSN != 4 {
		t.Fatalf("replay(3): %d batches, first %d", len(got), got[0].LSN)
	}
	if got := replayAll(t, dir, 6); len(got) != 0 {
		t.Fatalf("replay(6): %d batches, want 0", len(got))
	}
}

// TestTornTailEveryTruncationOffset is the ISSUE's corruption acceptance
// test: truncate the log at EVERY byte offset of the tail region and
// assert Open never panics, recovers exactly the batches whose frames
// survived intact, and reports the discarded suffix.
func TestTornTailEveryTruncationOffset(t *testing.T) {
	const keep = 3 // intact prefix batches
	base := t.TempDir()
	ref := filepath.Join(base, "ref")
	appendN(t, ref, 1, keep+2) // 5 batches; offsets beyond batch 3 get cut

	refBytes, err := os.ReadFile(walOnlyFile(t, ref))
	if err != nil {
		t.Fatal(err)
	}
	// Boundary offsets: byte positions where a record ends (including the
	// magic header end), so truncating there loses no frame.
	boundaries := recordBoundaries(t, refBytes)
	if len(boundaries) != keep+2+1 {
		t.Fatalf("found %d boundaries, want %d", len(boundaries), keep+3)
	}
	tailStart := boundaries[keep] // end of batch `keep`

	for off := tailStart; off <= int64(len(refBytes)); off++ {
		dir := filepath.Join(base, fmt.Sprintf("t%06d", off))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segName(1)), refBytes[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, 0, nil)
		if err != nil {
			t.Fatalf("offset %d: open: %v", off, err)
		}
		// How many full batches survive this cut?
		wantLSN := uint64(0)
		for i, b := range boundaries {
			if b <= off {
				wantLSN = uint64(i)
			}
		}
		wantDiscard := uint64(off - boundaries[wantLSN])
		if l.LastLSN() != wantLSN {
			t.Fatalf("offset %d: recovered lsn %d, want %d", off, l.LastLSN(), wantLSN)
		}
		if got := l.Stats().DiscardedBytes; got != wantDiscard {
			t.Fatalf("offset %d: discarded %d bytes, want %d", off, got, wantDiscard)
		}
		// The healed log must accept the next contiguous append...
		if err := l.Append(testBatch(wantLSN + 1)); err != nil {
			t.Fatalf("offset %d: append after heal: %v", off, err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("offset %d: close: %v", off, err)
		}
		// ...and replay the surviving prefix plus the new batch.
		got := replayAll(t, dir, 0)
		if len(got) != int(wantLSN)+1 {
			t.Fatalf("offset %d: replayed %d batches, want %d", off, len(got), wantLSN+1)
		}
	}
}

// TestBitFlipEveryTailByte flips each byte of the last record (frame and
// payload) and asserts Open heals back to the previous batch — a CRC or
// frame check must catch every single-byte corruption of the tail.
func TestBitFlipEveryTailByte(t *testing.T) {
	const keep = 3
	base := t.TempDir()
	ref := filepath.Join(base, "ref")
	appendN(t, ref, 1, keep+1)
	refBytes, err := os.ReadFile(walOnlyFile(t, ref))
	if err != nil {
		t.Fatal(err)
	}
	boundaries := recordBoundaries(t, refBytes)
	tailStart := boundaries[keep]

	for off := tailStart; off < int64(len(refBytes)); off++ {
		for _, bit := range []byte{0x01, 0x80} {
			dir := filepath.Join(base, fmt.Sprintf("f%06d_%02x", off, bit))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			mut := append([]byte(nil), refBytes...)
			mut[off] ^= bit
			if err := os.WriteFile(filepath.Join(dir, segName(1)), mut, 0o644); err != nil {
				t.Fatal(err)
			}
			l, err := Open(dir, 0, nil)
			if err != nil {
				t.Fatalf("flip %d/%#x: open: %v", off, bit, err)
			}
			// Flipping a length byte can make the frame claim a longer
			// payload that still fits... it cannot: the record is last,
			// so a longer length overruns the file (implausible-length
			// heal) and a shorter/equal one breaks the CRC. Either way
			// the last batch must be discarded, never garbled.
			if l.LastLSN() != uint64(keep) {
				t.Fatalf("flip %d/%#x: recovered lsn %d, want %d", off, bit, l.LastLSN(), keep)
			}
			if l.Stats().DiscardedBytes == 0 {
				t.Fatalf("flip %d/%#x: no discarded bytes reported", off, bit)
			}
			l.Close()
		}
	}
}

// TestMidLogCorruptionIsFatal pins the non-self-healing case: a bad CRC
// in a non-tail segment is disk rot and must fail Open with ErrCorrupt,
// not silently truncate acknowledged history.
func TestMidLogCorruptionIsFatal(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, 0, nil)
	for lsn := uint64(1); lsn <= 6; lsn++ {
		if err := l.Append(testBatch(lsn)); err != nil {
			t.Fatal(err)
		}
		if lsn == 3 {
			l.Rotate()
		}
	}
	l.Close()
	// Corrupt a payload byte in the FIRST segment.
	first := filepath.Join(dir, segName(1))
	raw, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(first, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 0, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with mid-log corruption: %v, want ErrCorrupt", err)
	}
}

func TestTornSegmentCreation(t *testing.T) {
	// A crash between segment creation and the magic write leaves a
	// short husk; Open must drop it and keep appending cleanly.
	dir := t.TempDir()
	appendN(t, dir, 1, 2)
	l, _ := Open(dir, 0, nil)
	l.Rotate()
	l.Close()
	if err := os.WriteFile(filepath.Join(dir, segName(3)), []byte("TMW"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, 0, nil)
	if err != nil {
		t.Fatalf("open with husk segment: %v", err)
	}
	if l2.LastLSN() != 2 {
		t.Fatalf("LastLSN = %d, want 2", l2.LastLSN())
	}
	if err := l2.Append(testBatch(3)); err != nil {
		t.Fatalf("append after husk removal: %v", err)
	}
	l2.Close()
	if got := replayAll(t, dir, 0); len(got) != 3 {
		t.Fatalf("replayed %d batches, want 3", len(got))
	}
}

func TestSyncCounters(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, 0, nil)
	for lsn := uint64(1); lsn <= 5; lsn++ {
		if err := l.Append(testBatch(lsn)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil { // clean: must not double-count
		t.Fatal(err)
	}
	s := l.Stats()
	if s.Appends != 5 || s.Syncs != 1 || s.Bytes == 0 {
		t.Fatalf("stats = %+v, want 5 appends, 1 sync", s)
	}
	l.Close()
}

// walOnlyFile returns the single segment file in dir.
func walOnlyFile(t *testing.T, dir string) string {
	t.Helper()
	names, err := segments(dir)
	if err != nil || len(names) != 1 {
		t.Fatalf("segments(%s) = %v, %v; want exactly 1", dir, names, err)
	}
	return filepath.Join(dir, names[0])
}

// recordBoundaries returns the byte offsets in a segment where a record
// (or the magic header) ends: boundaries[i] is the end of record i, with
// boundaries[0] = len(magic).
func recordBoundaries(t *testing.T, raw []byte) []int64 {
	t.Helper()
	boundaries := []int64{int64(len(magic))}
	off := int64(len(magic))
	for off < int64(len(raw)) {
		if int64(len(raw))-off < frameHeaderSize {
			t.Fatalf("reference log has torn tail at %d", off)
		}
		length := int64(raw[off]) | int64(raw[off+1])<<8 | int64(raw[off+2])<<16 | int64(raw[off+3])<<24
		off += frameHeaderSize + length
		boundaries = append(boundaries, off)
	}
	return boundaries
}

// TestTornLengthDoesNotAllocate pins the decoder's size bound: a length
// field larger than the bytes left in the segment is a tear, not an
// allocation request. The last of three frames claims 60 MB (under
// maxRecordSize); Tail and Open must both stop at it having allocated
// well under that, and Open heals it away.
func TestTornLengthDoesNotAllocate(t *testing.T) {
	dir := t.TempDir()
	appendN(t, dir, 1, 3)
	path := walOnlyFile(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	boundaries := recordBoundaries(t, raw)
	binary.LittleEndian.PutUint32(raw[boundaries[2]:], 60<<20)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	const budget = 1 << 20
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	var tailed []wire.OpBatch
	if got := allocated(func() {
		tailed, err = tailAll(t, dir, 0, 2)
	}); got >= budget {
		t.Errorf("Tail over the 60 MB frame allocated %d B, budget %d", got, budget)
	}
	if err != nil || len(tailed) != 2 {
		t.Fatalf("Tail delivered %d batches, err %v; want 2, nil", len(tailed), err)
	}

	var l *Log
	if got := allocated(func() {
		l, err = Open(dir, 0, nil)
	}); got >= budget {
		t.Errorf("Open over the 60 MB frame allocated %d B, budget %d", got, budget)
	}
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	if l.LastLSN() != 2 {
		t.Fatalf("LastLSN = %d, want 2", l.LastLSN())
	}
	if got, want := l.Stats().DiscardedBytes, uint64(boundaries[3]-boundaries[2]); got != want {
		t.Fatalf("discarded %d bytes, want the torn frame's %d", got, want)
	}
}

// TestWALRecoveryAllocsBudget pins the allocations per recovered batch
// when Open reads a 2 000-record log and hands every batch to a
// callback: one read and one JSON decode per record. A second decode
// pass over the log would double it.
func TestWALRecoveryAllocsBudget(t *testing.T) {
	// Last moved: measured on 4912975 plus the one-pass Open at 16.02
	// allocations per batch; 4912975 itself, validating with Open and
	// then reading again with Replay, made 33.02.
	const records, budget = 2000, 16.02
	dir := t.TempDir()
	appendN(t, dir, 1, records)
	delivered := 0
	allocs := testing.AllocsPerRun(5, func() {
		l, err := Open(dir, 0, func(wire.OpBatch) error {
			delivered++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
	})
	if delivered != 6*records {
		t.Fatalf("delivered %d batches over 6 opens, want %d", delivered, 6*records)
	}
	if got := allocs / records; got > budget {
		t.Errorf("recovery made %.2f allocations per batch, budget %.2f", got, budget)
	}
}

// FuzzWALOpen fuzzes recovery over an arbitrary first segment: the bytes
// land on disk as wal-0000000000000001.log and Open runs over them. Open
// never panics. When it succeeds, it has handed its callback only
// CRC-valid batches with contiguous LSNs from 1 through LastLSN; Tail
// over the healed log delivers the same LSNs; and a second Open
// discards nothing and agrees on LastLSN: torn-tail truncation is
// idempotent.
func FuzzWALOpen(f *testing.F) {
	dir := f.TempDir()
	l, err := Open(dir, 0, nil)
	if err != nil {
		f.Fatal(err)
	}
	for lsn := uint64(1); lsn <= 3; lsn++ {
		if err := l.Append(testBatch(lsn)); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-3]) // torn mid-payload
	f.Add([]byte(magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		next := uint64(1)
		l, err := Open(dir, 0, func(b wire.OpBatch) error {
			if b.LSN != next {
				t.Fatalf("recovered lsn %d, want %d", b.LSN, next)
			}
			next++
			return nil
		})
		if err != nil {
			return // refused as corrupt: fine, as long as it did not panic
		}
		last := l.LastLSN()
		if err := l.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if next-1 != last {
			t.Fatalf("recovery ended at lsn %d, Open reported %d", next-1, last)
		}
		tailed, err := tailAll(t, dir, 0, last)
		if err != nil {
			t.Fatalf("tail of a healed log: %v", err)
		}
		for i, b := range tailed {
			if b.LSN != uint64(i)+1 {
				t.Fatalf("tail delivered lsn %d at %d, want %d", b.LSN, i, i+1)
			}
		}
		if uint64(len(tailed)) != last {
			t.Fatalf("tail delivered %d batches, Open reported lsn %d", len(tailed), last)
		}
		again, err := Open(dir, 0, nil)
		if err != nil {
			t.Fatalf("reopen a healed log: %v", err)
		}
		defer again.Close()
		if st := again.Stats(); st.DiscardedBytes != 0 || again.LastLSN() != last {
			t.Fatalf("reopen discarded %d bytes at lsn %d, want 0 at %d", st.DiscardedBytes, again.LastLSN(), last)
		}
	})
}
