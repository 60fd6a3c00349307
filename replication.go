package trustmap

// Replication: the store-level surface WAL shipping is built from. A
// primary serves its log with TailWAL (safe concurrently with writers —
// only the durable prefix is read) and its newest snapshot with
// SnapshotBlob; a replica seeds its data directory with InstallSnapshot
// before opening, then feeds shipped batches through ApplyReplicated —
// the same log-and-apply path recovery replay uses, under the same
// writer critical section and fsync discipline, so a replica is itself
// durable and restartable and can be promoted into a primary in place.
//
// ApplyReplicated preserves the primary's batch verbatim: the original
// LSN and epoch land in the replica's WAL, so the two logs are
// byte-identical histories and a replica's own replicas (or a
// post-promote salvage) see exactly the primary's numbering.

import (
	"errors"
	"fmt"
	"path/filepath"

	"trustmap/internal/snapshot"
	"trustmap/internal/wal"
	"trustmap/wire"
)

// ErrReplicationGap reports a shipped batch whose LSN is beyond the next
// one this store's log accepts: batches in between were lost in flight.
// The fix is to re-request the stream after the store's current LSN.
var ErrReplicationGap = errors.New("trustmap: replication gap")

// ErrSnapshotStale reports an InstallSnapshot whose blob is older than
// the local durable state — installing it would roll history back.
var ErrSnapshotStale = errors.New("trustmap: snapshot older than local state")

// ApplyResult describes one ApplyReplicated call.
type ApplyResult struct {
	// Applied is false for an already-logged duplicate (LSN at or below
	// the log's last) — expected on reconnect overlap, skipped unapplied.
	Applied bool
	// Ops / OpErrors count the batch's ops that applied / errored. Errors
	// mean divergence from the primary's history (the shipped batch held
	// only ops effective there) and are counted, not fatal — matching
	// recovery replay, which faces the same question with the same ops.
	Ops      int
	OpErrors int
}

// ApplyReplicated applies one batch shipped from a primary's WAL:
// duplicate batches are skipped, a gap is refused with
// ErrReplicationGap, and the next-expected batch is applied to memory
// and appended to the local log verbatim — original LSN and epoch —
// under the mode's fsync discipline. A local WAL failure poisons the
// store exactly as it would a primary's logMutation.
func (s *Store) ApplyReplicated(b wire.OpBatch) (ApplyResult, error) {
	d := s.dur
	if d == nil {
		return ApplyResult{}, ErrNotDurable
	}
	if len(b.Ops) == 0 {
		return ApplyResult{}, nil // heartbeat or empty batch: nothing to do
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed != nil {
		return ApplyResult{}, d.failed
	}
	next := d.log.LastLSN() + 1
	if b.LSN < next {
		return ApplyResult{}, nil
	}
	if b.LSN > next {
		return ApplyResult{}, fmt.Errorf("%w: got lsn %d, want %d", ErrReplicationGap, b.LSN, next)
	}
	var applied, errs uint64
	s.replayBatch(b, &applied, &errs)
	res := ApplyResult{Applied: true, Ops: int(applied), OpErrors: int(errs)}
	return res, d.append(b)
}

// TailWAL streams every logged batch with after < LSN <= DurableLSN(),
// in order, to fn, and returns that durable watermark. The log files are
// read directly, concurrently with writers: the watermark is sampled
// first, so every streamed record was fsynced before the read began and
// a torn in-flight tail is never shipped. fn's error aborts the stream.
func (s *Store) TailWAL(after uint64, fn func(wire.OpBatch) error) (uint64, error) {
	d := s.dur
	if d == nil {
		return 0, ErrNotDurable
	}
	upto := d.durableLSN.Load()
	if upto <= after {
		return upto, nil
	}
	return upto, wal.Tail(d.walDir(), after, upto, fn)
}

// OldestWALLSN reports the first LSN still present in the store's WAL;
// ok is false when the log holds no segments (fresh store, or fully
// pruned behind a snapshot). A tail request for records before it cannot
// be served — the requester must bootstrap from a snapshot instead.
func (s *Store) OldestWALLSN() (uint64, bool) {
	d := s.dur
	if d == nil {
		return 0, false
	}
	first, ok, err := wal.Oldest(d.walDir())
	if err != nil {
		return 0, false
	}
	return first, ok
}

// SnapshotBlob returns the newest compacted snapshot's raw bytes and
// watermark LSN, for shipping to a bootstrapping replica. ok is false
// when no checkpoint has run yet.
func (s *Store) SnapshotBlob() (raw []byte, lsn uint64, ok bool, err error) {
	d := s.dur
	if d == nil {
		return nil, 0, false, ErrNotDurable
	}
	f, raw, err := snapshot.Latest(d.snapDir())
	if err != nil || f == nil {
		return nil, 0, false, err
	}
	return raw, f.LSN, true, nil
}

// InstallSnapshot seeds a data directory with a snapshot blob fetched
// from a primary, before OpenStore: the blob is validated and written
// under its canonical name, and any local WAL segments — all at or below
// the blob's watermark, or the call refuses — are cleared so recovery
// starts cleanly from the installed state. Returns the installed
// watermark. A blob at or below the local durable state returns
// ErrSnapshotStale and changes nothing (the local state already covers
// it); a fresh directory accepts any blob.
func InstallSnapshot(dir string, blob []byte) (uint64, error) {
	f, err := snapshot.Decode(blob)
	if err != nil {
		return 0, fmt.Errorf("trustmap: installing snapshot: %w", err)
	}
	walDir := filepath.Join(dir, "wal")
	snapDir := filepath.Join(dir, "snapshots")

	// Local position: the newest local snapshot and the healed WAL end.
	var local uint64
	if lf, _, err := snapshot.Latest(snapDir); err != nil {
		return 0, fmt.Errorf("trustmap: reading local snapshots: %w", err)
	} else if lf != nil {
		local = lf.LSN
	}
	log, err := wal.Open(walDir, 0, nil)
	if err != nil {
		return 0, fmt.Errorf("trustmap: opening local wal: %w", err)
	}
	if log.LastLSN() > local {
		local = log.LastLSN()
	}
	if cerr := log.Close(); cerr != nil {
		return 0, cerr
	}
	if local >= f.LSN && local > 0 {
		return 0, fmt.Errorf("%w: local lsn %d, snapshot lsn %d", ErrSnapshotStale, local, f.LSN)
	}
	// Every local WAL record is at or below the incoming watermark — a
	// strict prefix of the snapshot's history — so clearing loses nothing.
	if err := wal.Clear(walDir); err != nil {
		return 0, fmt.Errorf("trustmap: clearing superseded wal: %w", err)
	}
	if _, err := snapshot.Install(snapDir, blob); err != nil {
		return 0, err
	}
	return f.LSN, nil
}
