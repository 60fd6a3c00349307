package trustmap

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"trustmap/wire"
)

// objectWriteDigest is the FNV-64a digest of the per-op outcomes
// TestObjectWriteDigest records.
const objectWriteDigest = 0x4c701d4d1c33b110

// TestObjectWriteDigest pins what the five object mutators do on a
// durable store, op for op, over a fixed seeded stream that mixes valid
// writes with every refusal they make: an empty key, an empty value, an
// empty user, a cancelled context, deletes of absent objects and
// beliefs, and AddRoots with already-registered and duplicate names.
// After each op it hashes the op kind, whether it took effect, the error
// text, Epoch and LSN, so a change to the write path must leave which
// ops are refused, which are logged and which replan exactly as they
// were. The logged history must then rebuild the live state twice: by
// reopening the store, and by shipping its WAL through ApplyReplicated
// into a fresh store.
func TestObjectWriteDigest(t *testing.T) {
	ctx := context.Background()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	dir := t.TempDir()
	s := mustOpenStore(t, dir, WithDurability(DurabilityAlways))
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// Spine: a, b, c hold defaults; d, e, f inherit; g is unknown until an
	// object mentions it. Mentioning d..g makes a new root and a replan.
	must(s.SetTrust(ctx, "d", "a", 1))
	must(s.SetTrust(ctx, "e", "b", 2))
	must(s.SetTrust(ctx, "e", "d", 1))
	must(s.SetTrust(ctx, "f", "c", 3))
	must(s.SetTrust(ctx, "f", "e", 1))
	for _, u := range []string{"a", "b", "c"} {
		must(s.SetDefault(ctx, u, "v"+u))
	}

	rng := rand.New(rand.NewSource(40))
	pick := func(pool []string, empty int) string {
		if rng.Intn(empty) == 0 {
			return ""
		}
		return pool[rng.Intn(len(pool))]
	}
	user := func() string { return pick([]string{"a", "b", "c", "d", "e", "f", "g"}, 12) }
	key := func() string { return pick([]string{"k0", "k1", "k2", "k3"}, 12) }
	value := func() string { return pick([]string{"x", "y", "z"}, 10) }

	h := fnv.New64a()
	for i := 0; i < 400; i++ {
		c := ctx
		if rng.Intn(20) == 0 {
			c = cancelled
		}
		kind := rng.Intn(5)
		var ok bool
		var err error
		switch kind {
		case 0:
			err = s.PutBelief(c, user(), key(), value())
			ok = err == nil
		case 1:
			ok, err = s.DeleteBelief(c, user(), key())
		case 2:
			// At most one empty value per map, so the refusal names one
			// user whatever the map's iteration order.
			beliefs := make(map[string]string)
			hasEmpty := false
			for n := rng.Intn(4); n > 0; n-- {
				v := value()
				if v == "" && hasEmpty {
					v = "x"
				}
				hasEmpty = hasEmpty || v == ""
				beliefs[user()] = v
			}
			err = s.PutObject(c, key(), beliefs)
			ok = err == nil
		case 3:
			ok, err = s.DeleteObject(c, key())
		case 4:
			names := make([]string, rng.Intn(4))
			for j := range names {
				names[j] = user()
			}
			err = s.AddRoots(c, names...)
			ok = err == nil
		}
		fmt.Fprintf(h, "%d %t %v %d %d\n", kind, ok, err, s.Epoch(), s.LSN())
	}
	if got := h.Sum64(); got != objectWriteDigest {
		t.Errorf("object write digest = %#x, want %#x", got, uint64(objectWriteDigest))
	}

	// Cover every root with a default so ResolveAll answers for every
	// object; these spine ops are logged like the rest.
	for _, u := range s.Users() {
		must(s.SetDefault(ctx, u, "dflt"))
	}
	want := objectWriteState(t, s)

	replica := mustOpenStore(t, t.TempDir(), WithDurability(DurabilityAlways))
	defer replica.Close()
	if _, err := s.TailWAL(0, func(b wire.OpBatch) error {
		res, err := replica.ApplyReplicated(b)
		if err == nil && res.OpErrors != 0 {
			err = fmt.Errorf("batch %d: %d op errors", b.LSN, res.OpErrors)
		}
		return err
	}); err != nil {
		t.Fatalf("shipping the WAL: %v", err)
	}
	if got := objectWriteState(t, replica); !reflect.DeepEqual(got, want) {
		t.Errorf("replica state diverges:\n got %v\nwant %v", got, want)
	}

	must(s.Close())
	r := mustOpenStore(t, dir)
	defer r.Close()
	if st := r.Durability(); st.ReplayErrors != 0 {
		t.Errorf("recovery counted %d replay errors", st.ReplayErrors)
	}
	if got := objectWriteState(t, r); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered state diverges:\n got %v\nwant %v", got, want)
	}
}

// objectWriteState flattens a store's users, stored objects and
// resolved rows into one comparable value (epochs excluded: a replica
// numbers its own).
func objectWriteState(t *testing.T, s *Store) []string {
	t.Helper()
	users := s.Users()
	out := []string{"users " + strings.Join(users, ",")}
	for _, k := range s.Objects() {
		bs, _ := s.Object(k)
		out = append(out, fmt.Sprintf("object %s %v", k, bs))
	}
	rows, err := s.ResolveAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		for _, u := range users {
			out = append(out, fmt.Sprintf("row %s %s %v", row.Object, u, row.Possible(u)))
		}
	}
	return out
}
