// Package snapshot reads and writes the durable store's compacted
// snapshots: one JSON file per checkpoint holding the full trust network
// and object table in the trustd network-file format, stamped with the
// WAL watermark it folds in. Recovery = load the latest valid snapshot,
// then replay the WAL suffix above its LSN.
//
// Files are named snap-<lsn %016x>.json and written atomically: tmp file
// in the same directory, fsync, rename, fsync the directory. A torn
// snapshot write therefore never shadows the previous good snapshot —
// Latest skips unparseable files and falls back to the newest valid one.
package snapshot

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"trustmap/internal/faultinject"
)

// FormatVersion is the snapshot file schema generation.
const FormatVersion = 1

// TrustEdge is one trust mapping, mirroring the trustd network-file
// "trust" entry.
type TrustEdge struct {
	Truster  string `json:"truster"`
	Trusted  string `json:"trusted"`
	Priority int    `json:"priority"`
}

// File is the snapshot body. Trust, Beliefs, and Objects follow the
// trustd network-file format exactly, so a snapshot doubles as a valid
// `trustd -f` input; the remaining fields are the durable envelope.
type File struct {
	Format int    `json:"format"`
	Schema int    `json:"schema"` // wire.SchemaVersion of the writer
	Epoch  uint64 `json:"epoch"`  // store epoch at checkpoint
	LSN    uint64 `json:"lsn"`    // WAL watermark folded in

	Trust      []TrustEdge                  `json:"trust"`
	Beliefs    map[string]string            `json:"beliefs,omitempty"`
	Objects    map[string]map[string]string `json:"objects,omitempty"`
	ExtraRoots []string                     `json:"extra_roots,omitempty"`
}

// Name formats the snapshot file name for a watermark.
func Name(lsn uint64) string {
	return fmt.Sprintf("snap-%016x.json", lsn)
}

// parseName extracts the watermark from a snapshot file name.
func parseName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".json") {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".json")
	if len(hex) != 16 {
		return 0, false
	}
	n, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Write atomically persists f into dir as Name(f.LSN) and returns the
// file name. The write path is tmp + fsync + rename + dir fsync, so a
// crash at any point leaves either the old snapshot set or the old set
// plus the complete new file — never a torn file under a valid name.
func Write(dir string, f *File) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	f.Format = FormatVersion
	blob, err := json.MarshalIndent(f, "", "\t")
	if err != nil {
		return "", err
	}
	name := Name(f.LSN)
	if err := writeRaw(dir, name, append(blob, '\n')); err != nil {
		return "", err
	}
	return name, nil
}

// writeRaw is the atomic write path shared by Write and Install: tmp +
// fsync + rename + dir fsync, with the fault points at the same I/O
// boundaries either caller crosses. A failed directory sync is an error:
// the snapshot file is in place, but its rename is not yet durable.
func writeRaw(dir, name string, raw []byte) error {
	if err := faultinject.Fire(faultinject.SnapshotWrite); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		return err
	}
	if err := faultinject.Fire(faultinject.SnapshotSync); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		return err
	}
	// Until the directory is synced the rename may not survive a crash,
	// and the caller must not yet drop what the snapshot supersedes.
	return SyncDir(dir)
}

// SyncDir makes the entries of dir durable: it opens, fsyncs and closes
// the directory, returning the first error. It is a variable so a test
// can make the directory sync fail.
var SyncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// Decode parses and validates one snapshot body without touching disk —
// the receiving half of snapshot shipping.
func Decode(raw []byte) (*File, error) {
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, err
	}
	if f.Format > FormatVersion {
		return nil, fmt.Errorf("snapshot format %d newer than supported %d", f.Format, FormatVersion)
	}
	return &f, nil
}

// Install atomically persists a snapshot blob fetched from elsewhere (a
// primary's GET /v1/snapshot) under its canonical name, validating it
// first. The raw bytes are written verbatim — a blob from a newer-schema
// writer keeps its unknown fields instead of being lossily re-encoded.
func Install(dir string, raw []byte) (*File, error) {
	f, err := Decode(raw)
	if err != nil {
		return nil, fmt.Errorf("snapshot: install: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := writeRaw(dir, Name(f.LSN), raw); err != nil {
		return nil, err
	}
	return f, nil
}

// Latest loads the newest valid snapshot in dir: the highest-watermark
// file that parses, with the raw bytes it was decoded from (the bytes
// snapshot shipping serves). Unparseable candidates (torn by a crash,
// rotted) are skipped, not fatal. Returns nil, nil with no error when
// dir holds no valid snapshot — a fresh store.
func Latest(dir string) (*File, []byte, error) {
	names, err := list(dir)
	if err != nil {
		return nil, nil, err
	}
	for i := len(names) - 1; i >= 0; i-- {
		raw, err := os.ReadFile(filepath.Join(dir, names[i]))
		if err != nil {
			continue // pruned since the listing: fall back
		}
		f, err := Decode(raw)
		if err != nil {
			continue // torn or rotted: fall back to the previous one
		}
		if lsn, _ := parseName(names[i]); f.LSN != lsn {
			continue // name/body mismatch: treat as invalid
		}
		return f, raw, nil
	}
	return nil, nil, nil
}

// list returns dir's snapshot file names, oldest first; none when dir
// does not exist.
func list(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if _, ok := parseName(e.Name()); ok && !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // %016x sorts numerically
	return names, nil
}

// Prune removes all but the newest keep snapshots. The newest is never
// removed regardless of keep. Returns the removed file count.
func Prune(dir string, keep int) (int, error) {
	if keep < 1 {
		keep = 1
	}
	names, err := list(dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for i := 0; i < len(names)-keep; i++ {
		if err := os.Remove(filepath.Join(dir, names[i])); err != nil {
			return removed, err
		}
		removed++
	}
	return removed, nil
}
