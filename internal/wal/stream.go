// WAL shipping: the streaming half of the log. A primary frames batches
// with Encode — byte-for-byte the record framing Append writes — and
// ships them over HTTP; a replica reads them back with Decoder and Tail
// reads a log directory's durable prefix concurrently with a writer.
//
// Concurrent-read safety: Tail must only be asked for records up to a
// durable watermark the caller sampled BEFORE the call (the store's
// DurableLSN). Every record at or below that watermark was fully written
// and fsynced before the sample, so any torn or short frame Tail meets
// can only be an in-flight append beyond the watermark: it stops there
// silently, and failing to reach the watermark is reported as an error
// rather than a short read.
package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"trustmap/wire"
)

// ErrTornStream reports a frame cut mid-way, on the replication stream
// or in a segment file. On the stream the fix is to reconnect and resume
// after the last applied LSN — nothing before the tear is in doubt; in a
// file it is the torn tail that Open heals and Tail stops at.
var ErrTornStream = errors.New("wal: stream ended mid-frame")

// Decoder reads a stream of Encode-framed batches. It is the replica's
// view of GET /v1/wal: Next returns batches in stream order, io.EOF at a
// clean frame boundary, and an ErrTornStream-wrapped error when the
// stream is cut mid-frame (including a CRC mismatch — a tear that
// happened to land inside the payload bytes).
type Decoder struct {
	r       io.Reader
	frame   [frameHeaderSize]byte
	payload []byte
}

// NewDecoder wraps r.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{r: r} }

// Next reads one framed batch. io.EOF means the stream ended cleanly
// between frames.
func (d *Decoder) Next() (wire.OpBatch, error) { return d.readFrame(maxRecordSize) }

// Tail streams every batch with after < LSN <= upto, in order, to fn —
// reading the segment files directly, safely concurrent with a writer
// appending to the same directory, provided upto was a durable watermark
// when the call started (see the package comment above). A torn or
// implausible frame stops the scan silently: it can only be in-flight
// work beyond upto. If the scan ends before delivering upto, Tail
// reports it — the watermark promised those records were there.
func Tail(dir string, after, upto uint64, fn func(wire.OpBatch) error) error {
	if upto <= after {
		return nil
	}
	names, err := segments(dir)
	if err != nil {
		return err
	}
	// Skip segments that end before after+1: segment i ends where
	// segment i+1 begins.
	start := 0
	for i := 0; i+1 < len(names); i++ {
		next, _ := parseSegName(names[i+1])
		if next != 0 && next <= after+1 {
			start = i + 1
		}
	}
	last := after
	for _, name := range names[start:] {
		stop, err := tailSegment(filepath.Join(dir, name), after, upto, &last, fn)
		if err != nil {
			return err
		}
		if stop {
			break
		}
	}
	if last < upto {
		return fmt.Errorf("wal: tail ends at lsn %d, want %d", last, upto)
	}
	return nil
}

// tailSegment scans one segment for Tail. It reports stop=true when the
// scan hit either a record beyond upto or a torn in-flight tail; *last
// tracks the highest LSN delivered.
func tailSegment(path string, after, upto uint64, last *uint64, fn func(wire.OpBatch) error) (bool, error) {
	s, err := openSegment(path)
	if os.IsNotExist(err) {
		// Pruned between the directory listing and the open: records
		// that mattered were below a checkpoint watermark; the final
		// last<upto check decides whether anything was actually lost.
		return false, nil
	}
	if err != nil {
		return false, err
	}
	defer s.f.Close()
	for {
		b, err := s.next()
		if err == io.EOF {
			return false, nil // clean segment end; continue with the next
		}
		if err != nil || b.LSN > upto {
			return true, nil // an in-flight append, or past the window
		}
		if b.LSN <= after {
			continue
		}
		if err := fn(b); err != nil {
			return false, err
		}
		*last = b.LSN
	}
}

// Oldest reports the first LSN still present in the log: the first-LSN
// carried by the earliest segment's name. ok is false for an empty or
// absent log. A tail request for records before Oldest cannot be served
// from the log — the requester needs a snapshot bootstrap instead.
func Oldest(dir string) (uint64, bool, error) {
	names, err := segments(dir)
	if err != nil {
		return 0, false, err
	}
	if len(names) == 0 {
		return 0, false, nil
	}
	first, ok := parseSegName(names[0])
	if !ok || first == 0 {
		return 0, false, fmt.Errorf("%w: bad segment name %s", ErrCorrupt, names[0])
	}
	return first, true, nil
}

// Clear removes every segment file in dir. It is the destructive half of
// a snapshot re-bootstrap: only call it when every record in the log is
// known to be covered by the snapshot about to be installed.
func Clear(dir string) error {
	names, err := segments(dir)
	if err != nil {
		return err
	}
	for _, name := range names {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return err
		}
	}
	return nil
}
