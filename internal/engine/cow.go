package engine

// Paged copy-on-write arrays. An Apply successor shares its base's
// plan-side tables — per node and per condensation component — and
// rewrites only the entries of its dirty region. A flat table would make
// every successor copy the whole table for a one-node change; a cow array
// splits it into fixed-size pages and a successor copies only its page
// directory and the pages it writes. The resolve hot path never reads a
// cow array: the tables it reads stay flat (resolve.go, intern.go).

import (
	"slices"
	"sync/atomic"
)

// cowPageBits sizes the pages of a cow array: 64 entries, small enough
// that a one-node write copies under a few KB and large enough that the
// page directory is a small fraction of the table.
const (
	cowPageBits = 6
	cowPageSize = 1 << cowPageBits
)

// cowGens issues array generations. A page belongs to the generation
// that allocated it, and only that generation writes it.
var cowGens atomic.Uint64

// cow is a paged copy-on-write array. The zero value is not ready; use
// newCow. Reads are safe from any number of goroutines; writes (ref, set,
// grow) belong to the one owner of the generation, and never touch a page
// another generation can see.
type cow[T any] struct {
	pages []*cowPage[T]
	n     int
	gen   uint64
	fill  T // the value of entries grow adds
}

type cowPage[T any] struct {
	gen uint64 // the generation that allocated the page and may write it
	v   [cowPageSize]T
}

// newCow returns an n-entry array of fill.
func newCow[T any](n int, fill T) cow[T] {
	a := cow[T]{gen: cowGens.Add(1), fill: fill}
	a.grow(n)
	return a
}

func (a *cow[T]) len() int { return a.n }

// at returns entry i.
func (a *cow[T]) at(i int) T { return a.pages[i>>cowPageBits].v[i&(cowPageSize-1)] }

// ref returns a writable pointer to entry i, first copying its page when
// an earlier generation owns it.
func (a *cow[T]) ref(i int) *T {
	p := a.pages[i>>cowPageBits]
	if p.gen != a.gen {
		cp := new(cowPage[T])
		*cp = *p
		cp.gen = a.gen
		a.pages[i>>cowPageBits] = cp
		p = cp
	}
	return &p.v[i&(cowPageSize-1)]
}

// grow extends the array to n entries of fill; a smaller n is a no-op.
// Entries past a.n on the last page already hold fill, so growing writes
// only new pages.
func (a *cow[T]) grow(n int) {
	for len(a.pages)*cowPageSize < n {
		p := &cowPage[T]{gen: a.gen}
		for i := range p.v {
			p.v[i] = a.fill
		}
		a.pages = append(a.pages, p)
	}
	a.n = max(a.n, n)
}

// next returns the successor generation: it shares every page with a and
// copies a page only when it first writes it.
func (a *cow[T]) next() cow[T] {
	return cow[T]{pages: slices.Clone(a.pages), n: a.n, gen: cowGens.Add(1), fill: a.fill}
}
