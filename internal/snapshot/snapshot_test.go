package snapshot

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func testFile(lsn uint64) *File {
	return &File{
		Schema: 2,
		Epoch:  lsn * 10,
		LSN:    lsn,
		Trust: []TrustEdge{
			{Truster: "alice", Trusted: "bob", Priority: 1},
			{Truster: "bob", Trusted: "carol", Priority: 2},
		},
		Beliefs:    map[string]string{"carol": "v1"},
		Objects:    map[string]map[string]string{"o1": {"alice": "x"}},
		ExtraRoots: []string{"dave"},
	}
}

// fileBytes reads the snapshot file for watermark lsn in dir.
func fileBytes(t *testing.T, dir string, lsn uint64) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, Name(lsn)))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestWriteLatestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	name, err := Write(dir, testFile(7))
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if name != Name(7) {
		t.Fatalf("name = %s, want %s", name, Name(7))
	}
	got, raw, err := Latest(dir)
	if err != nil {
		t.Fatalf("latest: %v", err)
	}
	if !bytes.Equal(raw, fileBytes(t, dir, 7)) {
		t.Fatalf("latest raw bytes differ from %s", name)
	}
	if got.LSN != 7 || got.Epoch != 70 || got.Format != FormatVersion {
		t.Fatalf("envelope = %+v", got)
	}
	if len(got.Trust) != 2 || got.Beliefs["carol"] != "v1" ||
		got.Objects["o1"]["alice"] != "x" || len(got.ExtraRoots) != 1 {
		t.Fatalf("body round-trip: %+v", got)
	}
}

func TestLatestEmptyDir(t *testing.T) {
	f, raw, err := Latest(t.TempDir())
	if f != nil || raw != nil || err != nil {
		t.Fatalf("Latest(empty) = %v, %q, %v; want nil, nil, nil", f, raw, err)
	}
	f, raw, err = Latest(filepath.Join(t.TempDir(), "missing"))
	if f != nil || raw != nil || err != nil {
		t.Fatalf("Latest(missing) = %v, %q, %v; want nil, nil, nil", f, raw, err)
	}
}

func TestLatestPicksHighestWatermark(t *testing.T) {
	dir := t.TempDir()
	for _, lsn := range []uint64{3, 12, 7} {
		if _, err := Write(dir, testFile(lsn)); err != nil {
			t.Fatal(err)
		}
	}
	got, raw, err := Latest(dir)
	if err != nil || got == nil {
		t.Fatalf("latest: %v, %v", got, err)
	}
	if got.LSN != 12 || !bytes.Equal(raw, fileBytes(t, dir, 12)) {
		t.Fatalf("latest = lsn %d, want 12 with %s's bytes", got.LSN, Name(12))
	}
}

func TestLatestSkipsTornSnapshot(t *testing.T) {
	dir := t.TempDir()
	if _, err := Write(dir, testFile(5)); err != nil {
		t.Fatal(err)
	}
	// A higher-watermark file torn mid-write (invalid JSON) must be
	// skipped, falling back to the older valid snapshot.
	torn := filepath.Join(dir, Name(9))
	if err := os.WriteFile(torn, []byte(`{"format":1,"lsn":9,"trust":[{"trus`), 0o644); err != nil {
		t.Fatal(err)
	}
	got, raw, err := Latest(dir)
	if err != nil || got == nil {
		t.Fatalf("latest: %v, %v", got, err)
	}
	if got.LSN != 5 || !bytes.Equal(raw, fileBytes(t, dir, 5)) {
		t.Fatalf("latest = lsn %d, want fallback to 5", got.LSN)
	}
}

func TestLatestRejectsNameBodyMismatch(t *testing.T) {
	dir := t.TempDir()
	if _, err := Write(dir, testFile(4)); err != nil {
		t.Fatal(err)
	}
	// A valid body renamed to the wrong watermark must not be trusted.
	// The copy gains a trailing newline so its bytes tell it apart.
	blob := append(fileBytes(t, dir, 4), '\n')
	if err := os.WriteFile(filepath.Join(dir, Name(8)), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	got, raw, err := Latest(dir)
	if err != nil || got == nil {
		t.Fatalf("latest: %v, %v", got, err)
	}
	if !bytes.Equal(raw, fileBytes(t, dir, 4)) {
		t.Fatalf("latest read %q, want the honest %s", raw, Name(4))
	}
}

func TestLatestRejectsNewerFormat(t *testing.T) {
	dir := t.TempDir()
	if _, err := Write(dir, testFile(2)); err != nil {
		t.Fatal(err)
	}
	future := `{"format": 99, "schema": 9, "epoch": 1, "lsn": 6, "trust": []}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, Name(6)), []byte(future), 0o644); err != nil {
		t.Fatal(err)
	}
	got, raw, err := Latest(dir)
	if err != nil || got == nil {
		t.Fatalf("latest: %v, %v", got, err)
	}
	if got.LSN != 2 || !bytes.Equal(raw, fileBytes(t, dir, 2)) {
		t.Fatalf("latest = lsn %d, want fallback to 2 past the future-format file", got.LSN)
	}
}

func TestPrune(t *testing.T) {
	dir := t.TempDir()
	for _, lsn := range []uint64{1, 2, 3, 4} {
		if _, err := Write(dir, testFile(lsn)); err != nil {
			t.Fatal(err)
		}
	}
	n, err := Prune(dir, 2)
	if err != nil || n != 2 {
		t.Fatalf("prune = %d, %v; want 2, nil", n, err)
	}
	got, raw, _ := Latest(dir)
	if got.LSN != 4 || !bytes.Equal(raw, fileBytes(t, dir, 4)) {
		t.Fatalf("latest after prune = %d", got.LSN)
	}
	// keep < 1 clamps to 1 and never deletes the newest.
	if n, err := Prune(dir, 0); err != nil || n != 1 {
		t.Fatalf("prune(0) = %d, %v; want 1, nil", n, err)
	}
	if got, _, _ := Latest(dir); got == nil || got.LSN != 4 {
		t.Fatalf("newest snapshot survived prune(0)? got %v", got)
	}
}

// FuzzSnapshotDecode fuzzes Decode, which parses the bytes a
// bootstrapping replica reads off GET /v1/snapshot — input from outside
// the process. Arbitrary bytes never panic, and every accepted File
// survives Write -> Decode unchanged. Files are compared by encoding:
// JSON decoding turns an empty map into one that re-encodes as absent.
func FuzzSnapshotDecode(f *testing.F) {
	dir := f.TempDir()
	name, err := Write(dir, testFile(7))
	if err != nil {
		f.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2]) // torn
	f.Add([]byte(`{"format": 99, "lsn": 6, "trust": []}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(data)
		if err != nil {
			return
		}
		dir := t.TempDir()
		name, err := Write(dir, got) // stamps Format = FormatVersion
		if err != nil {
			t.Fatalf("write an accepted file: %v", err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		again, err := Decode(raw)
		if err != nil {
			t.Fatalf("decode Write output: %v", err)
		}
		want, _ := json.Marshal(got)
		have, _ := json.Marshal(again)
		if !bytes.Equal(want, have) {
			t.Fatalf("Write -> Decode changed the file:\n%s\n%s", want, have)
		}
	})
}

// TestWriteReturnsDirSyncError: a snapshot whose rename cannot be made
// durable fails Write and Install instead of reporting success.
func TestWriteReturnsDirSyncError(t *testing.T) {
	dirErr := errors.New("directory sync failed")
	defer func(orig func(string) error) { SyncDir = orig }(SyncDir)
	SyncDir = func(string) error { return dirErr }

	dir := t.TempDir()
	if _, err := Write(dir, testFile(7)); !errors.Is(err, dirErr) {
		t.Fatalf("Write: err = %v, want the directory sync error", err)
	}
	raw, err := json.Marshal(testFile(9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Install(dir, raw); !errors.Is(err, dirErr) {
		t.Fatalf("Install: err = %v, want the directory sync error", err)
	}
}
