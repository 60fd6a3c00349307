package trustmap

// Durable stores: OpenStore gives the Store a data directory holding an
// append-only write-ahead log (internal/wal) and periodic compacted
// snapshots (internal/snapshot). Every mutator then runs apply-then-log
// under one writer critical section: the mutation is applied to the
// in-memory store (publishing its epoch) and, when it was effective, the
// wire.Op batch is appended to the WAL under the next LSN. The WAL
// therefore holds exactly the effective mutation history; recovery =
// load the latest valid snapshot + replay the WAL suffix above its
// watermark through the same dispatch the live mutators use, then rebase
// the epoch counter so post-restart epochs continue the pre-crash
// numbering.
//
// A crash can only lose the un-fsynced WAL tail — writes whose Sync (or
// always/batch-mode fsync) had not returned, i.e. writes that were never
// acknowledged as durable. Everything behind the durable LSN replays to
// exactly the pre-crash state: replay is deterministic, so resolved
// beliefs after recovery match the pre-crash durable epoch.

import (
	"errors"
	"fmt"
	"maps"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"trustmap/internal/snapshot"
	"trustmap/internal/wal"
	"trustmap/wire"
)

// DurabilityMode names the WAL fsync discipline of a durable store.
type DurabilityMode int

const (
	// DurabilityBatch — the default — group-commits: appends land in the
	// OS page cache and are fsynced every groupEvery batches and on every
	// Sync, Checkpoint, and Close. A crash loses at most the last unsynced
	// group; a caller that needs a particular write crash-safe calls Sync.
	DurabilityBatch DurabilityMode = iota
	// DurabilityOff writes the WAL but never fsyncs it on the mutation
	// path (Checkpoint and Close still flush). Full speed; a crash loses
	// whatever the OS had not written back yet.
	DurabilityOff
	// DurabilityAlways fsyncs every logged batch before the mutator
	// returns: every acknowledged write is crash-safe, at one fsync per
	// mutation.
	DurabilityAlways
)

// String names the mode as it appears in DurabilityStats and on the wire.
func (m DurabilityMode) String() string {
	switch m {
	case DurabilityBatch:
		return "batch"
	case DurabilityOff:
		return "off"
	case DurabilityAlways:
		return "always"
	default:
		return fmt.Sprintf("DurabilityMode(%d)", int(m))
	}
}

// WithDurability sets a durable store's fsync discipline (default
// DurabilityBatch). NewStore ignores the option: an in-memory store has
// no WAL to sync.
func WithDurability(mode DurabilityMode) StoreOption {
	return func(c *storeConfig) { c.durability = mode }
}

// ErrClosed is returned by every operation on a Store after Close.
var ErrClosed = errors.New("trustmap: store is closed")

// ErrPoisoned marks a store whose WAL write failed after the in-memory
// apply: memory leads the log, so accepting further writes would let a
// later crash fork history. Every subsequent mutation, Sync, and
// Checkpoint wraps ErrPoisoned (errors.Is distinguishes it from
// ErrClosed). Reads keep serving the last published epoch; the only exit
// is to Close and re-OpenStore, which recovers to the durable state.
var ErrPoisoned = errors.New("trustmap: store poisoned by storage failure")

// ErrNotDurable is returned by Checkpoint on an in-memory store.
var ErrNotDurable = errors.New("trustmap: store has no data directory (NewStore; use OpenStore)")

// groupEvery is the batch-mode group-commit size: an fsync is issued
// every groupEvery appended batches (and on Sync/Checkpoint/Close).
const groupEvery = 64

// snapshotsKept is how many compacted snapshots a checkpoint retains.
const snapshotsKept = 2

// durable is the persistence side of a Store: the open WAL plus the
// durability watermarks. mu is the writer critical section — every
// logged mutator holds it across apply AND append, so the WAL order is
// the apply order.
type durable struct {
	mu   sync.Mutex
	dir  string
	log  *wal.Log
	mode DurabilityMode

	pending int   // appends since the last fsync (batch mode)
	failed  error // poison: set when a WAL write failed after an apply

	// Watermarks, atomically readable off the mutation path (stats,
	// replication). Guarded by mu for writes.
	lastLSN    atomic.Uint64 // last logged batch
	durableLSN atomic.Uint64 // last fsynced batch
	snapLSN    atomic.Uint64 // watermark of the newest snapshot

	checkpoints      uint64 // completed checkpoints (guarded by mu)
	recoveredBatches uint64 // WAL batches replayed at open (immutable after open)
	replayedOps      uint64 // ops applied during replay
	replayErrors     uint64 // ops that errored during replay
}

func (d *durable) walDir() string  { return filepath.Join(d.dir, "wal") }
func (d *durable) snapDir() string { return filepath.Join(d.dir, "snapshots") }

// DurabilityStats describes a store's persistence state and counters:
// the durability section of /v1/stats.
type DurabilityStats = wire.DurabilityStats

// OpenStore opens (creating if needed) a durable store rooted at dir:
// <dir>/wal holds the write-ahead log, <dir>/snapshots the compacted
// checkpoints. Recovery runs before OpenStore returns — latest valid
// snapshot, then one pass over the WAL that heals its torn tail and
// replays every batch above the snapshot's watermark — so the returned
// store serves the full durable state. Close the store to release the WAL.
//
// The in-memory options (WithWorkers, WithExtraRoots, ...) apply as in
// NewStore; WithDurability picks the fsync discipline (default
// DurabilityBatch).
func OpenStore(dir string, opts ...StoreOption) (*Store, error) {
	c := configOf(opts)
	d := &durable{dir: dir, mode: c.durability}

	snap, _, err := snapshot.Latest(d.snapDir())
	if err != nil {
		return nil, fmt.Errorf("trustmap: loading snapshot: %w", err)
	}
	n := New()
	var snapEpoch, snapLSN uint64
	if snap != nil {
		if snap.Schema > wire.SchemaVersion {
			return nil, fmt.Errorf("trustmap: snapshot written by schema %d, newer than %d", snap.Schema, wire.SchemaVersion)
		}
		for _, e := range snap.Trust {
			n.AddTrust(e.Truster, e.Trusted, e.Priority)
		}
		for user, v := range snap.Beliefs {
			n.SetBelief(user, v)
		}
		c.extraRoots = append(c.extraRoots, snap.ExtraRoots...)
		snapEpoch, snapLSN = snap.Epoch, snap.LSN
	}
	st, err := newStore(n.inner, c)
	if err != nil {
		return nil, fmt.Errorf("trustmap: compiling snapshot state: %w", err)
	}
	if snap != nil {
		keys := make([]string, 0, len(snap.Objects))
		for k := range snap.Objects {
			keys = append(keys, k)
		}
		sort.Strings(keys) // deterministic root registration order
		for _, k := range keys {
			if _, _, err := st.applyObject(wire.Op{Op: wire.OpPutObject, Object: k, Beliefs: snap.Objects[k]}); err != nil {
				return nil, fmt.Errorf("trustmap: restoring object %q: %w", k, err)
			}
		}
	}

	maxEpoch := snapEpoch
	log, err := wal.Open(d.walDir(), snapLSN, func(b wire.OpBatch) error {
		d.recoveredBatches++
		if b.Epoch > maxEpoch {
			maxEpoch = b.Epoch
		}
		st.replayBatch(b, &d.replayedOps, &d.replayErrors)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("trustmap: recovering wal: %w", err)
	}
	switch {
	case log.LastLSN() == 0 && snapLSN > 0:
		// Fresh or fully pruned log behind an existing snapshot: position
		// it so the next batch continues the snapshot's numbering.
		if err := log.SetBase(snapLSN); err != nil {
			log.Close()
			return nil, fmt.Errorf("trustmap: positioning wal after snapshot: %w", err)
		}
	case log.LastLSN() < snapLSN:
		log.Close()
		return nil, fmt.Errorf("trustmap: wal ends at lsn %d but snapshot covers lsn %d", log.LastLSN(), snapLSN)
	}

	d.log = log
	d.lastLSN.Store(log.LastLSN())
	d.durableLSN.Store(log.LastLSN()) // read back from disk: already durable
	d.snapLSN.Store(snapLSN)
	// Post-restart epochs continue the pre-crash numbering.
	st.dur = d
	st.rebase(maxEpoch)
	return st, nil
}

// replayBatch re-applies one recovered WAL batch through the same
// dispatch the live mutators use. Maximal runs of trust-network ops
// apply as one Update (one epoch, like the original batch); object ops
// apply individually through applyObject. Per-op errors are counted,
// not fatal: the WAL holds only ops that were effective when logged, so
// replay errors mean rot or a cross-version divergence — recovery still
// converges because the dispatch is deterministic.
func (s *Store) replayBatch(b wire.OpBatch, applied, errs *uint64) {
	isObjectOp := func(kind string) bool {
		switch kind {
		case wire.OpPutObject, wire.OpDeleteObject, wire.OpPutBelief, wire.OpDeleteBelief,
			wire.OpRegisterRoots:
			return true
		}
		return false
	}
	for i := 0; i < len(b.Ops); {
		if isObjectOp(b.Ops[i].Op) {
			if _, _, err := s.applyObject(b.Ops[i]); err != nil {
				*errs++
			} else {
				*applied++
			}
			i++
			continue
		}
		j := i
		for j < len(b.Ops) && !isObjectOp(b.Ops[j].Op) {
			j++
		}
		run := b.Ops[i:j]
		uerr := s.applyUpdate(&StoreTx{s: s}, func(tx *StoreTx) error {
			for _, op := range run {
				if err := op.Apply(tx); err != nil {
					*errs++
				} else {
					*applied++
				}
			}
			return nil
		})
		if uerr != nil {
			*errs++
		}
		i = j
	}
}

// beginMutation enters the durable writer critical section (a no-op
// unlock for in-memory stores). It fails once the store is poisoned — a
// WAL write failed after its apply, so memory and log diverged — or
// closed; no further mutation is accepted either way.
func (s *Store) beginMutation() (unlock func(), err error) {
	d := s.dur
	if d == nil {
		return func() {}, nil
	}
	d.mu.Lock()
	if d.failed != nil {
		err := d.failed
		d.mu.Unlock()
		return nil, err
	}
	return d.mu.Unlock, nil
}

// logMutation appends one effective mutation batch to the WAL under the
// next LSN. Callers hold d.mu (beginMutation) and have already applied
// the ops.
func (s *Store) logMutation(ops ...wire.Op) error {
	d := s.dur
	if d == nil {
		return nil
	}
	return d.append(wire.OpBatch{
		Schema: wire.SchemaVersion,
		Epoch:  s.Epoch(),
		LSN:    d.log.LastLSN() + 1,
		Ops:    ops,
	})
}

// append writes one batch to the WAL and applies the mode's fsync
// discipline: sync now (always), every groupEvery batches (batch), or
// never on the mutation path (off). Callers hold d.mu. Shared by the
// primary's logMutation and the replica's ApplyReplicated, so a
// replica's durability guarantees are exactly its mode's, same as a
// primary. A failed append or fsync poisons the store: the in-memory
// state now leads the log, so accepting further writes would let a
// later crash fork history.
func (d *durable) append(b wire.OpBatch) error {
	if err := d.log.Append(b); err != nil {
		d.failed = fmt.Errorf("%w: wal append failed: %w", ErrPoisoned, err)
		return d.failed
	}
	d.lastLSN.Store(b.LSN)
	switch d.mode {
	case DurabilityAlways:
		return d.syncLocked()
	case DurabilityBatch:
		d.pending++
		if d.pending >= groupEvery {
			return d.syncLocked()
		}
	}
	return nil
}

// syncLocked fsyncs the WAL and advances the durable watermark. Callers
// hold d.mu.
func (d *durable) syncLocked() error {
	if err := d.log.Sync(); err != nil {
		d.failed = fmt.Errorf("%w: wal fsync failed: %w", ErrPoisoned, err)
		return d.failed
	}
	d.durableLSN.Store(d.log.LastLSN())
	d.pending = 0
	return nil
}

// LSN returns the log sequence number of the last logged mutation batch
// (0 for an in-memory store). The batch may not be fsynced yet; see
// DurableLSN.
func (s *Store) LSN() uint64 {
	if s.dur == nil {
		return 0
	}
	return s.dur.lastLSN.Load()
}

// DurableLSN returns the LSN of the last fsynced batch: every mutation
// at or below it survives a crash.
func (s *Store) DurableLSN() uint64 {
	if s.dur == nil {
		return 0
	}
	return s.dur.durableLSN.Load()
}

// Sync fsyncs the WAL: when it returns nil, every previously logged
// mutation is crash-safe. A no-op (nil) on in-memory stores.
func (s *Store) Sync() error {
	d := s.dur
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed != nil {
		return d.failed
	}
	return d.syncLocked()
}

// CheckpointInfo describes one completed checkpoint.
type CheckpointInfo struct {
	Epoch    uint64 // store epoch folded into the snapshot
	LSN      uint64 // WAL watermark: every batch <= LSN is in the snapshot
	Snapshot string // snapshot file name inside <dir>/snapshots
}

// Checkpoint writes a compacted snapshot of the full store state — trust
// network, defaults, objects, extra roots — watermarked at the current
// WAL position, then rotates the log and prunes segments and snapshots
// the new snapshot supersedes. Recovery time is proportional to the WAL
// suffix above the newest snapshot, so periodic checkpoints bound it.
// Mutations block for the duration (they share the writer critical
// section); reads do not.
func (s *Store) Checkpoint() (CheckpointInfo, error) {
	d := s.dur
	if d == nil {
		return CheckpointInfo{}, ErrNotDurable
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed != nil {
		return CheckpointInfo{}, d.failed
	}
	// The snapshot folds every logged batch, so they must be durable
	// first (in every mode): a snapshot must never get ahead of the log
	// it claims to compact.
	if err := d.syncLocked(); err != nil {
		return CheckpointInfo{}, err
	}
	lsn := d.log.LastLSN()
	f := s.exportLocked(lsn)
	name, err := snapshot.Write(d.snapDir(), f)
	if err != nil {
		// Memory and WAL still agree; the store stays healthy.
		return CheckpointInfo{}, fmt.Errorf("trustmap: writing snapshot: %w", err)
	}
	d.snapLSN.Store(lsn)
	d.checkpoints++
	if err := d.log.Rotate(); err != nil {
		d.failed = fmt.Errorf("%w: wal rotate failed: %w", ErrPoisoned, err)
		return CheckpointInfo{}, d.failed
	}
	if _, err := d.log.Prune(lsn); err != nil {
		return CheckpointInfo{}, fmt.Errorf("trustmap: pruning wal: %w", err)
	}
	if _, err := snapshot.Prune(d.snapDir(), snapshotsKept); err != nil {
		return CheckpointInfo{}, fmt.Errorf("trustmap: pruning snapshots: %w", err)
	}
	return CheckpointInfo{Epoch: f.Epoch, LSN: lsn, Snapshot: name}, nil
}

// exportLocked freezes the full store state into a snapshot file.
// Callers hold d.mu, so no mutator is in flight; readers are unaffected.
func (s *Store) exportLocked(lsn uint64) *snapshot.File {
	f := &snapshot.File{
		Schema:  wire.SchemaVersion,
		Epoch:   s.Epoch(),
		LSN:     lsn,
		Beliefs: make(map[string]string),
		Objects: make(map[string]map[string]string),
	}
	for t := 0; t < s.net.NumUsers(); t++ {
		for _, m := range s.net.In(t) {
			f.Trust = append(f.Trust, snapshot.TrustEdge{
				Truster:  s.net.Name(t),
				Trusted:  s.net.Name(m.Parent),
				Priority: m.Priority,
			})
		}
		if s.net.HasExplicit(t) {
			f.Beliefs[s.net.Name(t)] = string(s.net.Explicit(t))
		}
	}
	f.ExtraRoots = s.extraRootNames()
	s.mu.RLock()
	for k, rec := range s.objects {
		f.Objects[k] = maps.Clone(rec.beliefs)
	}
	s.mu.RUnlock()
	return f
}

// Close flushes and closes the WAL (regardless of durability mode) and
// marks the store closed: every later mutation, Sync, or Checkpoint
// returns ErrClosed. Reads keep working against the last published
// epoch. A no-op (nil) on in-memory stores; safe to call twice.
func (s *Store) Close() error {
	d := s.dur
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if errors.Is(d.failed, ErrClosed) {
		return nil
	}
	err := d.log.Close()
	if err == nil {
		d.durableLSN.Store(d.lastLSN.Load())
	}
	d.failed = ErrClosed
	return err
}

// Durability returns the store's persistence counters. An in-memory
// store reports Mode "memory" and zeros.
func (s *Store) Durability() DurabilityStats {
	d := s.dur
	if d == nil {
		return DurabilityStats{Mode: "memory"}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	ls := d.log.Stats()
	return DurabilityStats{
		Mode:             d.mode.String(),
		LastLSN:          d.lastLSN.Load(),
		DurableLSN:       d.durableLSN.Load(),
		SnapshotLSN:      d.snapLSN.Load(),
		WALAppends:       ls.Appends,
		WALSyncs:         ls.Syncs,
		WALBytes:         ls.Bytes,
		Checkpoints:      d.checkpoints,
		RecoveredBatches: d.recoveredBatches,
		ReplayedOps:      d.replayedOps,
		ReplayErrors:     d.replayErrors,
		DiscardedBytes:   ls.DiscardedBytes,
	}
}
