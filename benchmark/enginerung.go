package main

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"
	"time"

	"trustmap/internal/engine"
	"trustmap/internal/tn"
	"trustmap/wire"
)

// engineRung is the bottom of the ladder: a bare engine.CompiledNetwork
// over the binarization of the facade network. It is a timing rung, not a
// replica of the store's session: how the session encodes a facade edge on
// its binarized twin is the session's business and is not repeated here.
// What the store did with a spine write is read off the store rung's public
// counters (storeDid), and the rung times the same kind of engine call on
// its own twin: nothing, an incremental Apply of one edge mutated directly
// on the twin, or the Compile of a rebuild.
type engineRung struct {
	orig    *tn.Network // facade shape: named users, their trusted users, default beliefs
	bin     *tn.Network // tn.Binarize(orig) as of the last rebuild, journaling, mutated directly since
	comp    *engine.CompiledNetwork
	carrier map[int]int // original root -> binarized node carrying its belief

	objects  map[string]map[string]string
	stale    map[string]bool // objects put since the last scan
	allStale bool            // a spine write since the last scan
	last     *engine.BulkResult
}

func newEngineRung(w *world) (*engineRung, error) {
	e := &engineRung{orig: tn.New(), objects: map[string]map[string]string{}, stale: map[string]bool{}}
	for _, u := range w.users {
		e.orig.AddUser(u)
	}
	for _, ed := range w.edges {
		e.orig.AddMapping(e.orig.UserID(ed.trusted), e.orig.UserID(ed.truster), ed.prio)
	}
	for u, v := range w.defaults {
		e.orig.SetExplicit(e.orig.UserID(u), tn.Value(v))
	}
	maps.Copy(e.objects, w.objects)
	_, err := e.build()
	return e, err
}

// build is a rebuild as the store does one: binarize the facade network
// and compile it. It returns the time the engine took (Compile and the
// root supports a publisher derives before sharing the artifact).
func (e *engineRung) build() (time.Duration, error) {
	bin := tn.Binarize(e.orig)
	bin.EnableJournal()
	start := time.Now()
	comp, err := engine.Compile(bin)
	if err != nil {
		return 0, err
	}
	comp.EnsureSupports()
	took := time.Since(start)
	e.bin, e.comp = bin, comp
	// Binarize keeps original IDs and hoists the belief of a user that has
	// parents onto a fresh root it names "<user>#b0".
	e.carrier = map[int]int{}
	for x := 0; x < e.orig.NumUsers(); x++ {
		if !e.orig.HasExplicit(x) {
			continue
		}
		e.carrier[x] = x
		if !bin.HasExplicit(x) {
			e.carrier[x] = bin.UserID(e.orig.Name(x) + "#b0")
		}
	}
	return took, nil
}

// storeDid is what the store rung's session counters say one spine write
// cost it in engine work.
type storeDid uint8

const (
	didNothing storeDid = iota // the facade changed, the compiled plan did not
	didApply                   // engine.Apply folded the change in (spliced, or past its own threshold)
	didRebuild                 // the session re-binarized and compiled from scratch
)

// applySpine records one spine write on the facade network and performs the
// engine call the store made for it, returning the time spent in the engine.
func (e *engineRung) applySpine(op wire.Op, did storeDid) (time.Duration, error) {
	t, z := e.orig.UserID(op.Truster), e.orig.UserID(op.Trusted)
	if t < 0 || z < 0 {
		return 0, fmt.Errorf("engine rung: unknown user in %s %s->%s", op.Op, op.Truster, op.Trusted)
	}
	switch op.Op {
	case wire.OpAddTrust:
		e.orig.AddMapping(z, t, op.Priority)
	case wire.OpRemoveTrust:
		e.orig.RemoveMapping(z, t)
	case wire.OpUpdateTrust:
		e.orig.SetMappingPriority(z, t, op.Priority)
	default:
		return 0, fmt.Errorf("engine rung: %s is not a spine write of one edge", op.Op)
	}
	e.allStale = true
	switch did {
	case didNothing:
		return 0, nil
	case didRebuild:
		return e.build()
	}

	// One edge into t, mutated on the twin as it stands. An Apply happens
	// only where the twin holds t's facade edges as they are (no cascade), so
	// the edge is there to mutate. Which priority it ends up with does not
	// matter to what Apply costs: the region it dirties is t's.
	cur, other, otherPrio := 0, -1, 0 // z's priority on the twin (0 = absent), t's other parent
	for _, m := range e.bin.In(t) {
		if m.Parent == z {
			cur = m.Priority
		} else {
			other, otherPrio = m.Parent, m.Priority
		}
	}
	switch {
	case op.Op == wire.OpAddTrust && cur == 0 && len(e.bin.In(t)) < 2:
		e.bin.AddMapping(z, t, 1)
	case op.Op == wire.OpRemoveTrust && cur != 0:
		e.bin.RemoveMapping(z, t)
	case op.Op == wire.OpUpdateTrust && cur != 0 && other >= 0:
		// Flip z between preferred (2) and not (1), keeping at most one
		// preferred edge into t.
		if cur == 1 && otherPrio == 2 {
			e.bin.SetMappingPriority(other, t, 1)
		}
		e.bin.SetMappingPriority(z, t, 3-cur)
	default:
		return 0, fmt.Errorf("engine rung: the store applied %s %s->%s incrementally, but the twin has no such edge to mutate", op.Op, op.Truster, op.Trusted)
	}
	muts := e.bin.DrainJournal()
	start := time.Now()
	next, _, err := e.comp.Apply(muts, engine.ApplyOptions{})
	if err != nil {
		return 0, err
	}
	next.EnsureSupports()
	e.comp = next
	return time.Since(start), nil
}

// put records an object write; the bare engine has no object table.
func (e *engineRung) put(o *op) {
	if o.kind == opPutObject {
		e.objects[o.key] = o.beliefs
	} else {
		e.objects[o.key] = withBelief(e.objects[o.key], o.user, o.value)
	}
	e.stale[o.key] = true
}

// staleKeys lists the objects a scan would have to re-resolve.
func (e *engineRung) staleKeys() []string {
	var keys []string
	for k := range e.objects {
		if e.allStale || e.stale[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// assignment lays one object's beliefs over the defaults: a value for
// every root, as CompiledNetwork.Resolve wants it.
func (e *engineRung) assignment(key string) map[int]tn.Value {
	bs := e.objects[key]
	m := make(map[int]tn.Value, len(e.carrier))
	for x, root := range e.carrier {
		if v, ok := bs[e.orig.Name(x)]; ok {
			m[root] = tn.Value(v)
		} else {
			m[root] = e.orig.Explicit(x)
		}
	}
	return m
}

// batch lays out the named objects for Resolve.
func (e *engineRung) batch(keys ...string) (map[string]map[int]tn.Value, error) {
	batch := make(map[string]map[int]tn.Value, len(keys))
	for _, k := range keys {
		if _, ok := e.objects[k]; !ok {
			return nil, fmt.Errorf("engine rung: unknown object %s", k)
		}
		batch[k] = e.assignment(k)
	}
	return batch, nil
}

// resolve is the bare engine call a store read miss bottoms out in.
func (e *engineRung) resolve(ctx context.Context, batch map[string]map[int]tn.Value) error {
	res, err := e.comp.Resolve(ctx, batch, engine.Options{})
	e.last = res
	return err
}

// compileMS is the median of five engine.Compile calls on the network as
// it stands.
func (e *engineRung) compileMS() (float64, error) {
	var ms []float64
	for i := 0; i < 5; i++ {
		bin := tn.Binarize(e.orig)
		start := time.Now()
		if _, err := engine.Compile(bin); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(start))/1e6)
	}
	return median(ms), nil
}

// dedupRatio resolves every object as one cold batch on a freshly built
// artifact (an empty signature cache) and reports distinct signatures per
// object.
func (e *engineRung) dedupRatio(ctx context.Context) (float64, error) {
	if len(e.objects) == 0 {
		return 0, nil
	}
	fresh := &engineRung{orig: e.orig, objects: e.objects}
	if _, err := fresh.build(); err != nil {
		return 0, err
	}
	batch, err := fresh.batch(slices.Collect(maps.Keys(e.objects))...)
	if err != nil {
		return 0, err
	}
	if err := fresh.resolve(ctx, batch); err != nil {
		return 0, err
	}
	st := fresh.last.Dedup()
	return ratio(float64(st.DistinctSignatures), float64(st.Objects)), nil
}
