package storm

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"trustmap"
	"trustmap/internal/shard"
	"trustmap/wire"
)

func TestOpsDeterministicPrefix(t *testing.T) {
	long := Ops(7, "w0-", 500)
	if len(long) != 500 {
		t.Fatalf("len = %d, want 500", len(long))
	}
	if again := Ops(7, "w0-", 500); !reflect.DeepEqual(again, long) {
		t.Fatal("same (seed, ns, n) drew a different stream")
	}
	for _, k := range []int{0, 1, Preamble, 37, 499} {
		if got := Ops(7, "w0-", k); !reflect.DeepEqual(got, long[:k]) {
			t.Fatalf("Ops(7, w0-, %d) is not a prefix of Ops(7, w0-, 500)", k)
		}
	}
	if reflect.DeepEqual(Ops(8, "w0-", 500), long) {
		t.Fatal("a different seed drew the same stream")
	}
	if got := Ops(7, "w0-", -1); len(got) != 0 {
		t.Fatalf("Ops with n = -1 drew %d ops", len(got))
	}
}

// Every op is effective: on a fresh durable store op i lands at LSN i.
func TestOpsEveryOpEffective(t *testing.T) {
	st, err := trustmap.OpenStore(t.TempDir(), trustmap.WithDurability(trustmap.DurabilityOff))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx, b := context.Background(), shard.NewSingleStore(st)
	for i, op := range Ops(3, "", 2000) {
		if err := Apply(ctx, b, op); err != nil {
			t.Fatalf("op %d %+v: %v", i+1, op, err)
		}
		if got := st.LSN(); got != uint64(i+1) {
			t.Fatalf("op %d %+v landed at lsn %d", i+1, op, got)
		}
	}
}

func TestOpsDrawEveryKind(t *testing.T) {
	seen := map[string]bool{}
	for _, op := range Ops(42, "", 200) {
		seen[op.Op] = true
	}
	for _, kind := range []string{wire.OpSetTrust, wire.OpSetBelief, wire.OpPutObject,
		wire.OpPutBelief, wire.OpDeleteBelief, wire.OpDeleteObject} {
		if !seen[kind] {
			t.Errorf("no %s in the first 200 ops", kind)
		}
	}
}

// Streams in different namespaces commute: either replay order gives the
// same resolved state.
func TestNamespacesCommute(t *testing.T) {
	ctx := context.Background()
	a, b := Ops(5, "w0-", 400), Ops(5, "w1-", 400)
	ab, err := Oracle(ctx, a, b)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := Oracle(ctx, b, a)
	if err != nil {
		t.Fatal(err)
	}
	if err := Diff(ctx, ab, ba); err != nil {
		t.Fatal(err)
	}
	if len(ab.Objects()) == 0 {
		t.Fatal("the streams stored no objects")
	}
}

func TestDiffReports(t *testing.T) {
	ctx := context.Background()
	// build replays the base state, then one extra op.
	build := func(extra wire.Op) *trustmap.Store {
		t.Helper()
		base := []wire.Op{
			{Op: wire.OpSetBelief, User: "a", Value: "x"},
			{Op: wire.OpPutObject, Object: "k1", Beliefs: map[string]string{"a": "x"}},
			{Op: wire.OpPutObject, Object: "k2", Beliefs: map[string]string{"a": "x"}},
		}
		st, err := Oracle(ctx, append(base, extra))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	want := build(wire.Op{Op: wire.OpSetBelief, User: "a", Value: "x"})
	if err := Diff(ctx, want, want); err != nil {
		t.Fatalf("a state differs from itself: %v", err)
	}
	for _, tc := range []struct {
		name  string
		extra wire.Op
		msg   string
	}{
		{"changed cell", wire.Op{Op: wire.OpPutBelief, Object: "k2", User: "a", Value: "y"}, `cell (a, k2): got ([y]`},
		{"missing key", wire.Op{Op: wire.OpDeleteObject, Object: "k1"}, `missing key "k1"`},
		{"extra user", wire.Op{Op: wire.OpSetBelief, User: "b", Value: "x"}, `extra user "b"`},
	} {
		err := Diff(ctx, build(tc.extra), want)
		if err == nil || !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("%s: Diff = %v, want it to mention %q", tc.name, err, tc.msg)
		}
	}
}
