// Package wal is the durable store's append-only write-ahead log: a
// sequence of CRC-framed wire.OpBatch records across one or more segment
// files, recovered in one pass on open (torn tail healed, every intact
// batch handed to the caller) with deterministic counters so durability
// overhead is benchmarkable without wall clocks.
//
// # File format
//
// Each segment file is
//
//	magic "TMWAL1\n\x00" (8 bytes)
//	record*
//
// and each record is
//
//	length  uint32 LE   — payload byte count
//	crc     uint32 LE   — CRC-32C (Castagnoli) of the payload
//	payload []byte      — JSON-encoded wire.OpBatch
//
// Encode is the one encoder of a record (Append writes its output) and
// readFrame the one decoder: Open, Tail and the replication stream's
// Decoder differ only in what they do with a tear.
//
// Segments are named wal-<firstLSN %016x>.log; a segment's name carries
// the LSN of its first record, so a reader can skip whole segments below
// a watermark without reading them. Records within and across
// segments carry strictly contiguous LSNs. Appends always go to the
// highest-named segment; Rotate starts a fresh one (after a checkpoint)
// so fully-compacted segments can be pruned by name alone.
//
// # Torn tails
//
// A crash mid-write leaves a torn tail: a truncated or garbled final
// record. Open reads every record of every segment once, checking LSN
// continuity. At the first frame of the last segment whose length is
// implausible, whose payload is short, or whose CRC mismatches, it
// truncates the file back to the last intact record boundary and
// reports the discarded byte count. Corruption in
// the middle of older segments (not the tail) cannot be self-healed and
// fails Open with ErrCorrupt: that is disk rot, not a crash artifact.
package wal

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"trustmap/internal/faultinject"
	"trustmap/internal/snapshot"
	"trustmap/wire"
)

const (
	// magic opens every segment file. The trailing NUL pads to 8 bytes so
	// record frames stay 4-byte aligned.
	magic = "TMWAL1\n\x00"
	// frameHeaderSize is the length+crc prefix of each record.
	frameHeaderSize = 8
	// maxRecordSize bounds a single record payload; a length field above
	// it is treated as frame garbage, not an allocation request.
	maxRecordSize = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encode frames one batch as a record: length uint32 LE, CRC-32C uint32
// LE, JSON payload. Append writes exactly these bytes, so the
// replication stream is the record format of the log itself, minus the
// per-segment magic.
func Encode(b wire.OpBatch) ([]byte, error) {
	payload, err := json.Marshal(b)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	copy(buf[frameHeaderSize:], payload)
	return buf, nil
}

// readFrame decodes one record from d's reader: header, length bound,
// payload, CRC-32C, JSON. limit bounds the payload length (the bytes
// left in a segment file, or maxRecordSize on a stream), so a garbage
// length field is a tear, never an allocation request. It returns io.EOF
// at a clean frame boundary and an ErrTornStream-wrapped error for any
// tear; the payload scratch is reused across calls.
func (d *Decoder) readFrame(limit int64) (wire.OpBatch, error) {
	var b wire.OpBatch
	if _, err := io.ReadFull(d.r, d.frame[:]); err != nil {
		if err == io.EOF {
			return b, io.EOF
		}
		return b, fmt.Errorf("%w: cut in frame header: %w", ErrTornStream, err)
	}
	length := binary.LittleEndian.Uint32(d.frame[0:4])
	if length == 0 || int64(length) > min(limit, maxRecordSize) {
		return b, fmt.Errorf("%w: implausible record length %d", ErrTornStream, length)
	}
	if cap(d.payload) < int(length) {
		d.payload = make([]byte, length)
	}
	payload := d.payload[:length]
	if _, err := io.ReadFull(d.r, payload); err != nil {
		return b, fmt.Errorf("%w: cut in payload: %w", ErrTornStream, err)
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(d.frame[4:8]) {
		return b, fmt.Errorf("%w: crc mismatch", ErrTornStream)
	}
	if err := json.Unmarshal(payload, &b); err != nil {
		return b, fmt.Errorf("%w: undecodable payload: %v", ErrTornStream, err)
	}
	return b, nil
}

// ErrCorrupt reports unrecoverable corruption: a bad frame that is not at
// the tail of the last segment, or a non-contiguous LSN sequence.
var ErrCorrupt = errors.New("wal: corrupt log")

// Stats are deterministic counters of one Log's lifetime (since Open).
type Stats struct {
	Appends        uint64 // batches appended
	Syncs          uint64 // fsyncs issued
	Bytes          uint64 // payload+frame bytes appended
	Segments       int    // live segment files
	DiscardedBytes uint64 // torn-tail bytes truncated by Open
}

// Log is an open write-ahead log rooted at one directory. It is not
// goroutine-safe; the durable store serializes access.
type Log struct {
	dir     string
	f       *os.File // active (highest-named) segment
	path    string
	lastLSN uint64 // LSN of the last appended/recovered record; 0 if none
	dirty   bool   // appends since the last sync
	stats   Stats
}

// segName formats the segment file name for a first-LSN.
func segName(firstLSN uint64) string {
	return fmt.Sprintf("wal-%016x.log", firstLSN)
}

// parseSegName extracts the first-LSN from a segment file name.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")
	if len(hex) != 16 {
		return 0, false
	}
	n, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// segments lists the log's segment files sorted by first-LSN; none when
// dir does not exist.
func segments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if _, ok := parseSegName(e.Name()); ok && !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // %016x sorts numerically
	return names, nil
}

// Open opens (creating if needed) the log in dir and recovers it in one
// pass: every record of every segment is read once, LSNs must run
// contiguously from the earliest segment's first-LSN, and a torn tail on
// the last segment is truncated back to the last intact record (the
// truncated byte count lands in Stats().DiscardedBytes). Each intact
// batch with LSN > after goes to fn, in order, as it is read; fn may be
// nil, and fn returning an error stops Open with that error. A log that
// fails Open may already have handed fn a prefix of its batches. The
// returned log is positioned for appends at LastLSN()+1.
func Open(dir string, after uint64, fn func(wire.OpBatch) error) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	names, err := segments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, stats: Stats{Segments: len(names)}}
	if len(names) == 0 {
		return l, nil // fresh log; first Append creates the first segment
	}
	// The earliest surviving segment's name carries its first record's
	// LSN (earlier segments were pruned at a checkpoint), anchoring the
	// continuity check.
	first, ok := parseSegName(names[0])
	if !ok || first == 0 {
		return nil, fmt.Errorf("%w: bad segment name %s", ErrCorrupt, names[0])
	}
	l.lastLSN = first - 1
	for i, name := range names {
		if err := l.readSegment(filepath.Join(dir, name), i == len(names)-1, after, fn); err != nil {
			return nil, err
		}
	}
	// Reopen the last segment for appending, unless readSegment dropped it
	// as a husk: the next Append then starts a fresh, well-formed segment.
	path := filepath.Join(dir, names[len(names)-1])
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if os.IsNotExist(err) {
		return l, nil
	}
	if err != nil {
		return nil, err
	}
	l.f, l.path = f, path
	return l, nil
}

// readSegment reads one segment for Open: each record must carry
// l.lastLSN+1, and each with LSN > after goes to fn. A tear heals by
// truncating the file back to the last intact boundary when tail is
// true, or by removing it when it was cut inside its magic (a crash
// while creating it); otherwise it is ErrCorrupt.
func (l *Log) readSegment(path string, tail bool, after uint64, fn func(wire.OpBatch) error) error {
	s, err := openSegment(path)
	if err != nil {
		return err
	}
	defer s.f.Close()
	for {
		rest := s.left.N // bytes from this frame boundary to the end
		b, err := s.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			if errors.As(err, new(*os.PathError)) {
				return err // the disk failed a read: that proves no tear
			}
			// An undecodable payload whose CRC matched was durably
			// written as-is (disk rot or a writer bug, not a tear), but
			// at the very tail healing it is still lossless for acked
			// writes.
			if !tail {
				return fmt.Errorf("%w: segment %s: %v at offset %d (not the tail segment)",
					ErrCorrupt, filepath.Base(path), err, s.size-rest)
			}
			l.stats.DiscardedBytes += uint64(rest)
			if s.short {
				l.stats.Segments--
				return os.Remove(path)
			}
			if err := os.Truncate(path, s.size-rest); err != nil {
				return fmt.Errorf("truncating torn tail: %w", err)
			}
			return nil
		}
		if b.LSN != l.lastLSN+1 {
			return fmt.Errorf("%w: segment %s: lsn gap: %d follows %d", ErrCorrupt, filepath.Base(path), b.LSN, l.lastLSN)
		}
		l.lastLSN = b.LSN
		if fn != nil && b.LSN > after {
			if err := fn(b); err != nil {
				return err
			}
		}
	}
}

// segment is one segment file open for reading past its magic. Its
// Decoder sees the file only up to its size at open: left counts the
// bytes from the next frame boundary to that size, so a frame claiming
// more is a tear, and an append racing the read is invisible.
type segment struct {
	f     *os.File
	size  int64
	short bool // cut inside its magic: a crash while creating the file
	left  io.LimitedReader
	dec   Decoder
}

// openSegment opens a segment file for reading and checks its magic. A
// wrong magic is ErrCorrupt even on the tail segment: the magic is
// written first and fits one sector, so it is never a torn tail.
func openSegment(path string) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	s := &segment{f: f, size: info.Size()}
	s.left = io.LimitedReader{R: bufio.NewReader(f), N: s.size}
	s.dec.r = &s.left
	if s.short = s.size < int64(len(magic)); s.short {
		return s, nil
	}
	var hdr [len(magic)]byte
	if _, err := io.ReadFull(&s.left, hdr[:]); err != nil {
		f.Close()
		return nil, err
	}
	if string(hdr[:]) != magic {
		f.Close()
		return nil, fmt.Errorf("%w: segment %s: bad magic", ErrCorrupt, filepath.Base(path))
	}
	return s, nil
}

// next reads the segment's next record: io.EOF at its end, an
// ErrTornStream-wrapped error at a tear.
func (s *segment) next() (wire.OpBatch, error) {
	if s.short {
		return wire.OpBatch{}, fmt.Errorf("%w: cut in segment magic", ErrTornStream)
	}
	return s.dec.readFrame(s.left.N - frameHeaderSize)
}

// LastLSN is the LSN of the last record in the log (appended or
// recovered); 0 for an empty log.
func (l *Log) LastLSN() uint64 { return l.lastLSN }

// SetBase positions a record-less log so the next Append is assigned
// base+1: the recovery path for a data directory whose snapshot covers
// LSNs the (fresh or fully pruned) log never saw. It refuses on a log
// holding records or an anchored empty segment — their position is
// already determined by their contents.
func (l *Log) SetBase(base uint64) error {
	if l.lastLSN != 0 || l.stats.Appends != 0 || l.f != nil {
		return errors.New("wal: SetBase on a non-empty log")
	}
	l.lastLSN = base
	return nil
}

// Stats returns the log's counters.
func (l *Log) Stats() Stats {
	s := l.stats
	return s
}

// Append frames and writes one batch at the end of the active segment.
// The batch's LSN must be exactly LastLSN()+1 — the log owns contiguity.
// The write lands in the OS page cache; call Sync to make it durable.
func (l *Log) Append(b wire.OpBatch) error {
	if b.LSN != l.lastLSN+1 {
		return fmt.Errorf("wal: append lsn %d, want %d", b.LSN, l.lastLSN+1)
	}
	if l.f == nil {
		if err := l.startSegment(b.LSN); err != nil {
			return err
		}
	}
	buf, err := Encode(b)
	if err != nil {
		return err
	}
	if err := faultinject.Fire(faultinject.WALAppend); err != nil {
		// A ShortWriteError physically tears the tail — a prefix of the
		// frame lands on disk, exactly as a crash mid-write would leave it —
		// so recovery tests exercise the real heal path.
		var sw *faultinject.ShortWriteError
		if errors.As(err, &sw) && sw.Bytes > 0 {
			n := sw.Bytes
			if n > len(buf) {
				n = len(buf)
			}
			l.f.Write(buf[:n]) //nolint:errcheck // the injected error supersedes
		}
		return err
	}
	if _, err := l.f.Write(buf); err != nil {
		return err
	}
	l.lastLSN = b.LSN
	l.dirty = true
	l.stats.Appends++
	l.stats.Bytes += uint64(len(buf))
	return nil
}

// startSegment creates a fresh segment whose first record will be
// firstLSN, writes the magic, syncs the log directory, and makes it the
// active segment. Until the directory is synced the segment's entry may
// not survive a crash, and with it every record appended to it, so a
// failed directory sync fails the Append that started the segment.
func (l *Log) startSegment(firstLSN uint64) error {
	path := filepath.Join(l.dir, segName(firstLSN))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(magic); err != nil {
		f.Close()
		return err
	}
	if err := snapshot.SyncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	if l.f != nil {
		l.f.Close()
	}
	l.f, l.path = f, path
	l.stats.Segments++
	return nil
}

// Sync fsyncs the active segment if it has unsynced appends. After Sync
// returns nil, every appended batch survives a crash.
func (l *Log) Sync() error {
	if !l.dirty || l.f == nil {
		return nil
	}
	if err := faultinject.Fire(faultinject.WALSync); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.dirty = false
	l.stats.Syncs++
	return nil
}

// Rotate syncs and closes the active segment so the next Append starts a
// fresh one. Called after a checkpoint: segments wholly below the
// snapshot watermark become prunable by name.
func (l *Log) Rotate() error {
	if l.f == nil {
		return nil
	}
	if err := l.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.f, l.path = nil, ""
	return nil
}

// Prune removes segments whose every record has LSN <= watermark — i.e.
// segments followed by another segment whose first-LSN is <= watermark+1.
// The active segment is never pruned. Returns the removed file count.
func (l *Log) Prune(watermark uint64) (int, error) {
	names, err := segments(l.dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for i, name := range names {
		if filepath.Join(l.dir, name) == l.path {
			continue
		}
		// The segment's records end where the next segment begins.
		if i+1 >= len(names) {
			continue // last segment: its tail may exceed the watermark
		}
		next, _ := parseSegName(names[i+1])
		if next == 0 || next-1 > watermark {
			continue
		}
		if err := os.Remove(filepath.Join(l.dir, name)); err != nil {
			return removed, err
		}
		removed++
		l.stats.Segments--
	}
	return removed, nil
}

// Close syncs and closes the log.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	if err := l.Sync(); err != nil {
		l.f.Close()
		return err
	}
	err := l.f.Close()
	l.f = nil
	return err
}
