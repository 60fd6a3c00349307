package main

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"

	"trustmap"
	"trustmap/client"
	"trustmap/wire"
)

// model is the state every acked write should have left behind: the
// seeded world with each caller's writes applied in stream order. Callers
// write disjoint keys and only one workload writes the spine (with one
// caller), so the order across callers does not matter.
type model struct {
	users    []string
	edges    map[[2]string]int // (truster, trusted) -> priority
	defaults map[string]string
	objects  map[string]map[string]string
	written  map[string]bool // object keys some write op touched
}

func newModel(w *world) *model {
	m := &model{
		users:    w.users,
		edges:    make(map[[2]string]int, len(w.edges)),
		defaults: w.defaults,
		objects:  make(map[string]map[string]string, len(w.objects)),
		written:  map[string]bool{},
	}
	for _, e := range w.edges {
		m.edges[[2]string{e.truster, e.trusted}] = e.prio
	}
	maps.Copy(m.objects, w.objects)
	return m
}

// withBelief returns a copy of one object's beliefs with one of them set:
// belief maps are shared between the world, the model and the rungs, so
// nobody edits one in place.
func withBelief(bs map[string]string, user, value string) map[string]string {
	out := maps.Clone(bs)
	if out == nil {
		out = map[string]string{}
	}
	out[user] = value
	return out
}

func (m *model) apply(o *op) {
	switch o.kind {
	case opPutBelief:
		m.objects[o.key] = withBelief(m.objects[o.key], o.user, o.value)
		m.written[o.key] = true
	case opPutObject:
		m.objects[o.key] = o.beliefs
		m.written[o.key] = true
	case opTrust:
		k := [2]string{o.spine.Truster, o.spine.Trusted}
		if o.spine.Op == wire.OpRemoveTrust {
			delete(m.edges, k)
		} else {
			m.edges[k] = o.spine.Priority
		}
	}
}

func (m *model) sortedKeys() []string { return slices.Sorted(maps.Keys(m.objects)) }

// sortedEdges lists the (truster, trusted) pairs in a fixed order.
func (m *model) sortedEdges() [][2]string {
	return slices.SortedFunc(maps.Keys(m.edges), func(a, b [2]string) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
}

// reference resolves the model's objects with the paper's Algorithm 1
// (trustmap.Network.Resolve): one network holding the spine, each
// object's beliefs laid over the defaults for the duration of one call.
type reference struct {
	m    *model
	net  *trustmap.Network
	memo map[string]map[string][]string // key -> user -> possible, sorted
}

func newReference(m *model) *reference {
	n := trustmap.New()
	for _, u := range m.users {
		n.AddUser(u)
	}
	for _, k := range m.sortedEdges() {
		n.AddTrust(k[0], k[1], m.edges[k])
	}
	for u, v := range m.defaults {
		n.SetBelief(u, v)
	}
	return &reference{m: m, net: n, memo: map[string]map[string][]string{}}
}

// possible returns poss(user, key) for every user of the network.
func (r *reference) possible(key string) (map[string][]string, error) {
	if got, ok := r.memo[key]; ok {
		return got, nil
	}
	bs, ok := r.m.objects[key]
	if !ok {
		return nil, fmt.Errorf("reference: unknown object %s", key)
	}
	for u, v := range bs {
		r.net.SetBelief(u, v)
	}
	res, err := r.net.Resolve()
	for u := range bs {
		r.net.SetBelief(u, r.m.defaults[u])
	}
	if err != nil {
		return nil, fmt.Errorf("reference: resolving %s: %w", key, err)
	}
	out := make(map[string][]string, len(r.m.users))
	for _, u := range r.m.users {
		out[u] = slices.Sorted(slices.Values(res.Possible(u)))
	}
	r.memo[key] = out
	return out, nil
}

// checker accumulates check outcomes; the first few mismatches are
// printed so a failing run says what was wrong.
type checker struct {
	attempted, failed int
	firstErr          error
}

// merge folds in another checker's outcomes.
func (c *checker) merge(o checker) { c.add(o.attempted, o.failed, o.firstErr) }

// add folds in outcomes counted elsewhere.
func (c *checker) add(attempted, failed int, err error) {
	c.attempted += attempted
	c.failed += failed
	if c.firstErr == nil {
		c.firstErr = err
	}
}

func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if ok {
		return
	}
	c.failed++
	err := fmt.Errorf(format, args...)
	if c.firstErr == nil {
		c.firstErr = err
	}
	if c.failed <= 5 {
		fmt.Println("FAIL", err)
	}
}

// sampleCells draws 32 objects x 16 users (512 cells) to compare.
func sampleCells(m *model, rng *rand.Rand) (keys, users []string) {
	pick := func(from []string, n int) []string {
		if len(from) <= n {
			return from
		}
		out := make([]string, 0, n)
		for _, i := range rng.Perm(len(from))[:n] {
			out = append(out, from[i])
		}
		sort.Strings(out)
		return out
	}
	return pick(m.sortedKeys(), 32), pick(m.users, 16)
}

// verifyCells resolves the sampled cells through the server and compares
// possible and certain values with the reference.
func verifyCells(ctx context.Context, cl *client.Client, ref *reference, keys, users []string, c *checker) {
	for _, key := range keys {
		want, err := ref.possible(key)
		if err != nil {
			c.check(false, "%v", err)
			continue
		}
		got, err := cl.ResolveObject(ctx, key, users)
		if err != nil {
			c.check(false, "oracle read %s: %v", key, err)
			continue
		}
		for _, u := range users {
			g := got.Users[u]
			poss := slices.Sorted(slices.Values(g.Possible))
			cert := ""
			if len(want[u]) == 1 {
				cert = want[u][0]
			}
			c.check(slices.Equal(poss, want[u]) && g.Certain == cert,
				"oracle mismatch at (%s, %s): server possible=%v certain=%q, Algorithm 1 possible=%v", key, u, poss, g.Certain, want[u])
		}
	}
}

// verifyScan runs the full-scan query and compares every group with a
// brute-force aggregate over the reference resolution of every object.
func verifyScan(ctx context.Context, cl *client.Client, ref *reference, c *checker) {
	keys := ref.m.sortedKeys()
	agrees := map[string]int{}
	for _, key := range keys {
		poss, err := ref.possible(key)
		if err != nil {
			c.check(false, "%v", err)
			return
		}
		for u, stated := range ref.m.objects[key] {
			if len(poss[u]) == 1 && poss[u][0] == stated {
				agrees[u]++
			}
		}
	}
	res, err := cl.Query(ctx, scanQuery(nil))
	if err != nil {
		c.check(false, "oracle scan: %v", err)
		return
	}
	c.check(len(res.Rows) == len(ref.m.users), "scan answered %d groups, the network has %d users", len(res.Rows), len(ref.m.users))
	for _, row := range res.Rows {
		u, _ := row.String("user")
		n, _ := row.Int("n")
		rate, _ := row.Float("acceptance")
		want := float64(agrees[u]) / float64(len(keys))
		c.check(int(n) == len(keys) && math.Abs(rate-want) < 1e-9,
			"scan mismatch for %s: n=%d acceptance=%g, brute force n=%d acceptance=%g", u, n, rate, len(keys), want)
	}
}

// verifyState is the post-phase oracle check on the quiescent server:
// every cell on the 1-client workloads, a seeded sample otherwise, plus
// the scan where the workload scans.
func verifyState(ctx context.Context, cl *client.Client, ref *reference, sp *spec, seed int64, c *checker) {
	keys, users := ref.m.sortedKeys(), ref.m.users
	if sp.clients > 1 {
		keys, users = sampleCells(ref.m, mix(seed, 2))
	}
	verifyCells(ctx, cl, ref, keys, users, c)
	if sp.name == "cluster-scan" {
		verifyScan(ctx, cl, ref, c)
	}
}

// readBack checks a recovered server against the acked state: every
// written object is listed, a seeded sample of them (5000 when thorough,
// 500 otherwise — all of them on three of the four workloads) holds its
// acked beliefs, and a sample of resolved cells matches the reference,
// which is how acked spine writes are visible from outside.
func readBack(ctx context.Context, cl *client.Client, ref *reference, seed int64, thorough bool, c *checker) {
	m := ref.m
	keys := slices.Sorted(maps.Keys(m.written))
	list, err := cl.ListObjects(ctx)
	c.check(err == nil, "listing objects after recovery: %v", err)
	stored := make(map[string]bool, len(list.Objects))
	for _, k := range list.Objects {
		stored[k] = true
	}
	for _, k := range keys {
		c.check(stored[k], "acked object %s is gone after recovery", k)
	}
	n := 500
	if thorough {
		n = 5000
	}
	if len(keys) > n {
		sample := make([]string, 0, n)
		for _, i := range mix(seed, 3).Perm(len(keys))[:n] {
			sample = append(sample, keys[i])
		}
		keys = sample
	}
	for _, key := range keys {
		got, err := cl.GetObject(ctx, key)
		c.check(err == nil && sameBeliefs(got.Beliefs, m.objects[key]),
			"read-back of %s after recovery: got %v (%v), acked %v", key, got.Beliefs, err, m.objects[key])
	}
	ckeys, cusers := sampleCells(m, mix(seed, 4))
	verifyCells(ctx, cl, ref, ckeys, cusers, c)
}
