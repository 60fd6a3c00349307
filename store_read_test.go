package trustmap

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
)

// storeReadDigest is the FNV-64a digest of the per-op outcomes
// TestStoreReadDigest records.
const storeReadDigest = 0x06913f1160e8eb9f

// TestStoreReadDigest pins what the store's reads answer, op for op, over
// a fixed seeded stream that mixes object writes (PutObject, PutBelief,
// DeleteBelief, DeleteObject) and spine writes (SetTrust, SetDefault)
// with every read: ResolveObject, ResolveAll, a full Resolved scan,
// Resolve and ResolveBatch. The ops run one after another, none inside a
// running scan. Every row read is hashed with its object, its epoch and
// each user's Lookup answer or error, and after each op the result-cache
// hits and misses and the dedup counters are hashed too, so a change to
// how resolutions are kept must leave what is served, at which epoch,
// and what is re-resolved exactly as it was.
func TestStoreReadDigest(t *testing.T) {
	ctx := context.Background()
	s, err := NewStore(WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// Spine: every user an object may mention holds a default, so every
	// object stays covered (assumption ii) whatever it states.
	must(s.SetTrust(ctx, "d", "a", 1))
	must(s.SetTrust(ctx, "e", "b", 2))
	must(s.SetTrust(ctx, "e", "d", 1))
	must(s.SetTrust(ctx, "f", "c", 3))
	must(s.SetTrust(ctx, "f", "e", 1))
	roots := []string{"a", "b", "c", "d", "e", "f"}
	for _, u := range roots {
		must(s.SetDefault(ctx, u, "v"+u))
	}

	rng := rand.New(rand.NewSource(47))
	pick := func(pool []string) string { return pool[rng.Intn(len(pool))] }
	keys := []string{"k0", "k1", "k2", "k3", "k4", "k5"}
	values := []string{"x", "y", "z"}
	beliefs := func() map[string]string {
		m := make(map[string]string)
		for n := rng.Intn(4); n > 0; n-- {
			m[pick(roots)] = pick(values)
		}
		return m
	}

	h := fnv.New64a()
	hashRow := func(row ObjectRow) {
		fmt.Fprintf(h, "row %s %d\n", row.Object, row.Epoch())
		for _, u := range append(s.Users(), "zz") {
			possible, certain, err := row.Lookup(u)
			fmt.Fprintf(h, " %s %v %q %v\n", u, possible, certain, err)
		}
	}
	hashRows := func(rows []ObjectRow, err error) {
		fmt.Fprintf(h, "rows %d %v\n", len(rows), err)
		for _, row := range rows {
			hashRow(row)
		}
	}
	for i := 0; i < 600; i++ {
		kind := rng.Intn(11)
		fmt.Fprintf(h, "op %d %d\n", i, kind)
		switch kind {
		case 0:
			fmt.Fprintln(h, s.PutObject(ctx, pick(keys), beliefs()))
		case 1:
			fmt.Fprintln(h, s.PutBelief(ctx, pick(roots), pick(keys), pick(values)))
		case 2:
			ok, err := s.DeleteBelief(ctx, pick(roots), pick(keys))
			fmt.Fprintln(h, ok, err)
		case 3:
			ok, err := s.DeleteObject(ctx, pick(keys))
			fmt.Fprintln(h, ok, err)
		case 4:
			// "h" joins as a user that is no root; self-trust is refused.
			users := append(roots, "h")
			fmt.Fprintln(h, s.SetTrust(ctx, pick(users), pick(users), rng.Intn(5)))
		case 5:
			fmt.Fprintln(h, s.SetDefault(ctx, pick(roots), pick(values)))
		case 6, 7:
			row, err := s.ResolveObject(ctx, pick(keys))
			fmt.Fprintln(h, err)
			hashRow(row)
		case 8:
			hashRows(s.ResolveAll(ctx))
		case 9:
			var rows []ObjectRow
			var err error
			for row, rerr := range s.Resolved(ctx) {
				if err = rerr; err != nil {
					break
				}
				rows = append(rows, row)
			}
			hashRows(rows, err)
		case 10:
			if rng.Intn(2) == 0 {
				// At most one user that is unknown or no root, so the
				// refusal names one user whatever the map's order.
				bs := beliefs()
				if rng.Intn(3) == 0 {
					bs[pick([]string{"zz", "h"})] = pick(values)
				}
				row, err := s.Resolve(ctx, bs)
				fmt.Fprintln(h, err)
				hashRow(row)
				break
			}
			objects := make(map[string]map[string]string)
			for n := 1 + rng.Intn(3); n > 0; n-- {
				objects[pick(keys)] = beliefs()
			}
			hashRows(s.ResolveBatch(ctx, objects))
		}
		st := s.Stats()
		fmt.Fprintf(h, "stats %d %d %d %d %+v\n", s.Epoch(), st.CacheHits, st.CacheMisses, st.Objects, st.Dedup)
	}
	if got := h.Sum64(); got != storeReadDigest {
		t.Errorf("store read digest = %#x, want %#x", got, uint64(storeReadDigest))
	}
}
