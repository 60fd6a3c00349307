// Package storm is the one copy of the shape every acceptance harness
// shares: a seeded op stream whose op i is a pure function of
// (seed, ns, i), one dispatch of those ops onto any shard.Backend, a
// serial oracle replay, and a cell-for-cell diff of two resolved states.
//
// The paper's semantics gives one consistent snapshot whatever order the
// updates are processed in, and each harness proves it by putting some
// violence between the stream and the Diff against Oracle:
// cmd/crashharness SIGKILLs the store mid-stream, cmd/replicaharness
// kills the primary and promotes its replica, and cmd/clusterharness
// runs several namespaced streams concurrently against a sharded router.
package storm

import (
	"context"
	"fmt"
	"hash/fnv"
	"maps"
	"math/rand/v2"
	"slices"

	"trustmap"
	"trustmap/internal/shard"
	"trustmap/wire"
)

// Preamble is the length of every stream's fixed opening: one set-belief
// per shared seed root (always the same value, so streams commute) and
// one for the stream's private root. Every later belief is written by one
// of those roots, so resolution never trips assumption (ii).
const Preamble = 4

var (
	seedRoots = [Preamble - 1]string{"seed0", "seed1", "seed2"}
	values    = [...]string{"fish", "cow", "jar", "arrow", "knot"}
)

const (
	keys  = 100 // object keys per stream
	users = 8   // private trust-network users per stream
)

// Ops draws the first n ops of stream (seed, ns). Op i is a pure function
// of (seed, ns, i), so Ops(seed, ns, k) is a prefix of Ops(seed, ns, n)
// for k <= n. After the preamble it draws set-trust, set-belief,
// put-object, put-belief, delete-belief and delete-object, and it only
// deletes objects and beliefs it has itself put and not yet deleted: on
// a fresh store every op is effective, so op i lands at LSN i.
//
// Object keys, trusters and the private root are prefixed by ns, and the
// shared seed roots are written only by the preamble, so streams with
// distinct namespaces (such as "w0-" and "w1-") commute: any interleaving
// of them converges to the state their serial replay produces.
func Ops(seed int64, ns string, n int) []wire.Op {
	h := fnv.New64a()
	h.Write([]byte(ns))
	rng := rand.New(rand.NewPCG(uint64(seed), h.Sum64()))
	writers := append(seedRoots[:], ns+"root")
	user := func(i int) string { return fmt.Sprintf("%su%d", ns, i) }
	key := func() string { return fmt.Sprintf("%sobj%03d", ns, rng.IntN(keys)) }
	value := func() string { return values[rng.IntN(len(values))] }

	ops := make([]wire.Op, 0, max(n, Preamble))
	for _, u := range seedRoots {
		ops = append(ops, wire.Op{Op: wire.OpSetBelief, User: u, Value: values[0]})
	}
	ops = append(ops, wire.Op{Op: wire.OpSetBelief, User: ns + "root", Value: values[1]})
	// held maps each live object to the writers holding a belief in it.
	held := make(map[string]map[string]bool)
	for len(ops) < n {
		switch k := rng.IntN(10); {
		case k < 2:
			truster, trusted := user(rng.IntN(users)), user(rng.IntN(users))
			if rng.IntN(2) == 0 {
				trusted = writers[rng.IntN(len(writers))]
			}
			if trusted == truster {
				continue // a user cannot trust itself
			}
			ops = append(ops, wire.Op{Op: wire.OpSetTrust, Truster: truster, Trusted: trusted, Priority: 1 + rng.IntN(5)})
		case k < 3:
			ops = append(ops, wire.Op{Op: wire.OpSetBelief, User: user(rng.IntN(users)), Value: value()})
		case k < 6:
			o, bs := key(), make(map[string]string)
			held[o] = make(map[string]bool)
			for _, u := range writers {
				if rng.IntN(2) == 0 {
					bs[u], held[o][u] = value(), true
				}
			}
			ops = append(ops, wire.Op{Op: wire.OpPutObject, Object: o, Beliefs: bs})
		case k < 8:
			o, u := key(), writers[rng.IntN(len(writers))]
			if held[o] == nil {
				held[o] = make(map[string]bool)
			}
			held[o][u] = true
			ops = append(ops, wire.Op{Op: wire.OpPutBelief, Object: o, User: u, Value: value()})
		case k < 9:
			var live []wire.Op
			for _, o := range slices.Sorted(maps.Keys(held)) {
				for _, u := range writers {
					if held[o][u] {
						live = append(live, wire.Op{Op: wire.OpDeleteBelief, Object: o, User: u})
					}
				}
			}
			if len(live) == 0 {
				continue
			}
			op := live[rng.IntN(len(live))]
			delete(held[op.Object], op.User)
			ops = append(ops, op)
		default:
			live := slices.Sorted(maps.Keys(held))
			if len(live) == 0 {
				continue
			}
			o := live[rng.IntN(len(live))]
			delete(held, o)
			ops = append(ops, wire.Op{Op: wire.OpDeleteObject, Object: o})
		}
	}
	return ops[:max(n, 0)]
}

// Apply sends one op to b: object ops through the matching Backend
// method, spine ops as a one-op Mutate. A delete that finds nothing to
// delete is an error — every op Ops draws is effective.
func Apply(ctx context.Context, b shard.Backend, op wire.Op) error {
	var err error
	ok := true
	switch op.Op {
	case wire.OpPutObject:
		err = b.PutObject(ctx, op.Object, op.Beliefs)
	case wire.OpPutBelief:
		err = b.PutBelief(ctx, op.User, op.Object, op.Value)
	case wire.OpDeleteBelief:
		ok, err = b.DeleteBelief(ctx, op.User, op.Object)
	case wire.OpDeleteObject:
		ok, err = b.DeleteObject(ctx, op.Object)
	default:
		_, err = b.Mutate([]wire.Op{op})
	}
	if err == nil && !ok {
		err = fmt.Errorf("%s %q %q: nothing to delete", op.Op, op.Object, op.User)
	}
	return err
}

// Oracle replays the streams serially, in argument order, into a fresh
// in-memory store: the state any interleaving of commuting streams must
// converge to.
func Oracle(ctx context.Context, streams ...[]wire.Op) (*trustmap.Store, error) {
	st, err := trustmap.NewStore()
	if err != nil {
		return nil, err
	}
	b := shard.NewSingleStore(st)
	for s, ops := range streams {
		for i, op := range ops {
			if err := Apply(ctx, b, op); err != nil {
				return nil, fmt.Errorf("oracle stream %d op %d: %w", s, i+1, err)
			}
		}
	}
	return st, nil
}

// State is a resolved state Diff can compare: *trustmap.Store and
// *shard.Router both satisfy it.
type State interface {
	// Users lists the network's users, sorted.
	Users() []string
	// ResolveAll resolves every stored object, sorted by object key.
	ResolveAll(ctx context.Context) ([]trustmap.ObjectRow, error)
}

// Diff reports the first difference between two resolved states: the
// user set, the object key set, then every (user, object) cell's possible
// set, certain value and error text. nil means the states agree.
func Diff(ctx context.Context, got, want State) error {
	users := want.Users()
	if err := sameSet("user", got.Users(), users); err != nil {
		return err
	}
	grows, err := got.ResolveAll(ctx)
	if err != nil {
		return fmt.Errorf("resolve got: %w", err)
	}
	wrows, err := want.ResolveAll(ctx)
	if err != nil {
		return fmt.Errorf("resolve want: %w", err)
	}
	if err := sameSet("key", rowKeys(grows), rowKeys(wrows)); err != nil {
		return err
	}
	for i, w := range wrows {
		for _, u := range users {
			gp, gc, gerr := grows[i].Lookup(u)
			wp, wc, werr := w.Lookup(u)
			if !slices.Equal(gp, wp) || gc != wc || errText(gerr) != errText(werr) {
				return fmt.Errorf("cell (%s, %s): got (%v, %q, %v), want (%v, %q, %v)",
					u, w.Object, gp, gc, gerr, wp, wc, werr)
			}
		}
	}
	return nil
}

// sameSet compares two sorted name lists, naming the first one missing
// from got or, failing that, the first extra one.
func sameSet(what string, got, want []string) error {
	if slices.Equal(got, want) {
		return nil
	}
	for _, x := range want {
		if !slices.Contains(got, x) {
			return fmt.Errorf("missing %s %q (got %d, want %d)", what, x, len(got), len(want))
		}
	}
	for _, x := range got {
		if !slices.Contains(want, x) {
			return fmt.Errorf("extra %s %q (got %d, want %d)", what, x, len(got), len(want))
		}
	}
	return fmt.Errorf("%s lists differ: got %q, want %q", what, got, want)
}

func rowKeys(rows []trustmap.ObjectRow) []string {
	keys := make([]string, len(rows))
	for i, row := range rows {
		keys[i] = row.Object
	}
	return keys
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
