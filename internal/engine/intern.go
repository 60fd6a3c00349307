package engine

// The columnar resolve hot path. Resolving one object against a compiled
// network is a gather: for each distinct root support, collect the
// object's root beliefs, sort, and deduplicate. The naive implementation
// allocates a values slice per (object, support); at millions of objects
// that dominates the runtime. This file removes every steady-state
// allocation from that loop:
//
//   - belief values are interned into dense int32 ids by a dictionary that
//     survives both Resolve calls and Apply generations; workers front it
//     with a lock-free private memo, so the steady state takes no locks;
//   - the per-object root beliefs are transposed once into a
//     root-slot-indexed []int32 column (one iteration of the input map —
//     the per-object floor this input format admits) and everything
//     downstream reads the column, never the map;
//   - the per-support gather scans the flat supRoots CSR run (layout.go):
//     contiguous int32 loads, no bit iteration, no pointer chasing;
//   - each worker owns a scratch arena (column, gather buffer, key buffer,
//     set memo) recycled through a sync.Pool;
//   - possible-value sets are interned like the values: the dictionary
//     gives each distinct set one dense int32 set id and keeps the set
//     once, so a resolved object is one pointer-free []int32 of set ids,
//     one per support, and Possible(x) is sets[ids[support[x]]]. Workers
//     front the set table with a private memo keyed by the id set, so a
//     recurring conflict pattern costs no lock and no allocation after
//     first sight.
//
// In steady state — dictionary warm, caches warm — resolveObject performs
// zero heap allocations per object (asserted by TestResolveObjectZeroAllocs
// with testing.AllocsPerRun).

import (
	"fmt"
	"slices"
	"sync"

	"trustmap/internal/tn"
)

// valueDict interns belief values into dense int32 ids, and sets of them
// into dense int32 set ids. It is shared by every resolve worker and
// carried across Apply generations. Both tables are append-only: an id,
// once handed out, names the same value or set for the lineage's life, so
// a table snapshot stays valid however much is appended later. Workers
// front both with private memos, so the steady state takes no locks.
type valueDict struct {
	mu   sync.RWMutex
	ids  map[tn.Value]int32
	vals []tn.Value
	// setIDs maps an ascending value-id set's appendSetKey image to its
	// set id; sets maps the set id to the set's values, sorted.
	setIDs map[string]int32
	sets   [][]tn.Value
}

func newValueDict() *valueDict {
	return &valueDict{ids: make(map[tn.Value]int32), setIDs: make(map[string]int32)}
}

// id interns v, returning its dense id.
func (d *valueDict) id(v tn.Value) int32 {
	d.mu.RLock()
	id, ok := d.ids[v]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[v]; ok {
		return id
	}
	id = int32(len(d.vals))
	d.vals = append(d.vals, v)
	d.ids[v] = id
	return id
}

// appendSetKey appends the byte image of an ascending value-id set, four
// little-endian bytes per id: the key of both set tables.
func appendSetKey(k []byte, ids []int32) []byte {
	for _, id := range ids {
		k = append(k, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return k
}

// setID interns the set of the ascending, distinct value ids ids, whose
// appendSetKey image is key, returning its dense set id.
func (d *valueDict) setID(key []byte, ids []int32) int32 {
	d.mu.RLock()
	id, ok := d.setIDs[string(key)]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.setIDs[string(key)]; ok {
		return id
	}
	set := make([]tn.Value, len(ids))
	for j, v := range ids {
		set[j] = d.vals[v]
	}
	slices.Sort(set) // by value: ids follow interning order
	id = int32(len(d.sets))
	d.sets = append(d.sets, set)
	d.setIDs[string(key)] = id
	return id
}

// setTable returns the set id -> values column. Only ids assigned before
// the call are valid; the backing array is append-only.
func (d *valueDict) setTable() [][]tn.Value {
	d.mu.RLock()
	sets := d.sets
	d.mu.RUnlock()
	return sets
}

// scratch is a per-worker resolve arena. All fields are reused across
// objects; sets memoizes the dictionary's set ids by the byte image of the
// sorted id set, and memo its value ids by value, so a warm worker takes
// no lock.
type scratch struct {
	col  []int32 // root slot -> interned belief id of the current object
	memo map[tn.Value]int32
	buf  []int32
	key  []byte
	sets map[string]int32
}

// getScratch takes a warm arena from the pool, sized for this network.
// The pool is shared along an Apply lineage, so set caches and value memos
// stay warm across mutations.
func (c *CompiledNetwork) getScratch() *scratch {
	s, _ := c.pool.Get().(*scratch)
	if s == nil {
		s = &scratch{
			sets: make(map[string]int32),
			memo: make(map[tn.Value]int32),
		}
	}
	if cap(s.col) < len(c.rootSlots) {
		s.col = make([]int32, len(c.rootSlots))
	}
	s.col = s.col[:len(c.rootSlots)]
	return s
}

func (c *CompiledNetwork) putScratch(s *scratch) { c.pool.Put(s) }

// valueID interns v through the worker-local memo, falling back to the
// shared dictionary on first sight.
func (s *scratch) valueID(d *valueDict, v tn.Value) int32 {
	if id, ok := s.memo[v]; ok {
		return id
	}
	id := d.id(v)
	s.memo[v] = id
	return id
}

// fillColumn transposes one object's belief map into the worker's
// root-slot-indexed column: a single iteration of the map, interning each
// value through the worker memo. Entries for non-root users are ignored,
// as in the SQL path; tombstoned slots stay -1. liveRoots is the number of
// live root slots; a shortfall means the object violates assumption (ii)
// and is reported with the first missing root's name.
func (c *CompiledNetwork) fillColumn(s *scratch, key string, beliefs map[int]tn.Value, liveRoots int) error {
	col := s.col
	for i := range col {
		col[i] = -1
	}
	covered := 0
	for root, v := range beliefs {
		if root < 0 || root >= len(c.rootPos) {
			continue
		}
		p := c.rootPos[root]
		if p < 0 {
			continue
		}
		col[p] = s.valueID(c.dict, v)
		covered++
	}
	if covered != liveRoots {
		for _, root := range c.rootSlots {
			if root < 0 {
				continue
			}
			if _, ok := beliefs[root]; !ok {
				return fmt.Errorf("engine: object %q misses a belief for root user %s (assumption ii)", key, c.net.Name(root))
			}
		}
	}
	return nil
}

// numLiveRoots counts the non-tombstoned root slots.
func (c *CompiledNetwork) numLiveRoots() int {
	n := 0
	for _, r := range c.rootSlots {
		if r >= 0 {
			n++
		}
	}
	return n
}

// resolveColumn writes the set id of each support's possible values for
// one interned column into dst (length len(c.supports)): the columnar core
// of the bulk scan. Zero heap allocations in steady state.
func (c *CompiledNetwork) resolveColumn(s *scratch, col []int32, dst []int32) {
	supRoots := c.supRoots
	for si := range dst {
		// Gather the root values of this support: one contiguous CSR run.
		// No support referenced by a live node contains a tombstoned slot,
		// but the table may hold unreferenced supports from before a
		// revocation — their gathers skip the tombstone and are never read.
		buf := s.buf[:0]
		for _, slot := range supRoots[c.supOff[si]:c.supOff[si+1]] {
			if v := col[slot]; v >= 0 {
				buf = append(buf, v)
			}
		}
		s.buf = buf
		slices.Sort(buf)
		// Deduplicate in place: interning is injective, so equal ids are
		// equal values and distinct ids are distinct values.
		out := buf[:0]
		for j, id := range buf {
			if j == 0 || id != buf[j-1] {
				out = append(out, id)
			}
		}
		k := appendSetKey(s.key[:0], out)
		s.key = k
		sid, ok := s.sets[string(k)]
		if !ok { // cold path: first sight of this id set on this worker
			sid = c.dict.setID(k, out)
			s.sets[string(k)] = sid
		}
		dst[si] = sid
	}
}

// resolveObject writes the per-support set ids of one object into dst
// (length len(c.supports)): fillColumn + resolveColumn.
func (c *CompiledNetwork) resolveObject(s *scratch, key string, beliefs map[int]tn.Value, dst []int32) error {
	if err := c.fillColumn(s, key, beliefs, c.numLiveRoots()); err != nil {
		return err
	}
	c.resolveColumn(s, s.col, dst)
	return nil
}
