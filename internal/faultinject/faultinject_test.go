package faultinject

// The registry is process-global, so none of these tests run in
// parallel and each disarms everything it armed.

import (
	"errors"
	"testing"
)

func TestFailNFailsExactlyTheWindow(t *testing.T) {
	boom := errors.New("boom")
	fire := FailN(2, 3, boom)
	for call := 0; call < 8; call++ {
		err := fire()
		if want := call >= 2 && call < 5; (err != nil) != want {
			t.Fatalf("call %d: err=%v, want failure=%v", call, err, want)
		}
		if err != nil && err != boom {
			t.Fatalf("call %d: err=%v, want the given error", call, err)
		}
	}
}

func TestNilErrorBecomesErrInjected(t *testing.T) {
	if err := FailN(0, 1, nil)(); err != ErrInjected {
		t.Fatalf("FailN with nil error: err=%v, want ErrInjected", err)
	}
	if err := Always(nil)(); err != ErrInjected {
		t.Fatalf("Always with nil error: err=%v, want ErrInjected", err)
	}
}

func TestShortWriteErrorUnwrapsToErrInjected(t *testing.T) {
	var err error = &ShortWriteError{Bytes: 5}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("errors.Is(%v, ErrInjected) = false", err)
	}
}

func TestEnableTwiceThenDisable(t *testing.T) {
	defer Reset()
	Enable(WALSync, Always(nil))
	Enable(WALSync, Always(nil)) // overwrites: still one armed point
	if err := Fire(WALSync); err != ErrInjected {
		t.Fatalf("armed point: err=%v, want ErrInjected", err)
	}
	Disable(WALSync)
	if err := Fire(WALSync); err != nil {
		t.Fatalf("after Disable: err=%v, want nil", err)
	}
	if n := armed.Load(); n != 0 {
		t.Fatalf("armed count %d after disarming the only point, want 0", n)
	}
}

func TestResetDisarmsEveryPoint(t *testing.T) {
	defer Reset()
	points := []Point{WALAppend, WALSync, SnapshotWrite, SnapshotSync, HandlerServe, ReplicaStream}
	for _, p := range points {
		Enable(p, Always(nil))
	}
	Reset()
	for _, p := range points {
		if err := Fire(p); err != nil {
			t.Fatalf("%s after Reset: err=%v, want nil", p, err)
		}
	}
}

func TestFireOnUnarmedPoint(t *testing.T) {
	defer Reset()
	if err := Fire(WALAppend); err != nil {
		t.Fatalf("nothing armed: err=%v, want nil", err)
	}
	Enable(WALSync, Always(nil))
	if err := Fire(WALAppend); err != nil {
		t.Fatalf("another point armed: err=%v, want nil", err)
	}
}
