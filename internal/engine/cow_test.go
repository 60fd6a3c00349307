package engine

import "testing"

// TestCowSuccessorIsolation checks the copy-on-write contract Apply relies
// on: a successor's writes and growth never show through its base, and
// the pages it did not write stay shared.
func TestCowSuccessorIsolation(t *testing.T) {
	const n = 3*cowPageSize + 5
	base := newCow(n, int32(-1))
	for i := 0; i < n; i++ {
		*base.ref(i) = int32(i)
	}
	next := base.next()
	*next.ref(cowPageSize + 1) = 1000
	next.grow(n + cowPageSize)
	*next.ref(n + 1) = 2000

	for i := 0; i < n; i++ {
		if got := base.at(i); got != int32(i) {
			t.Fatalf("base[%d] = %d after the successor's writes, want %d", i, got, i)
		}
	}
	if base.len() != n || next.len() != n+cowPageSize {
		t.Fatalf("lengths %d / %d, want %d / %d", base.len(), next.len(), n, n+cowPageSize)
	}
	if next.at(cowPageSize+1) != 1000 || next.at(n+1) != 2000 || next.at(n) != -1 {
		t.Fatalf("successor reads %d, %d, %d; want 1000, 2000 and the fill -1", next.at(cowPageSize+1), next.at(n+1), next.at(n))
	}
	for p := range base.pages {
		if shared := next.pages[p] == base.pages[p]; shared != (p != 1 && p != len(base.pages)-1) {
			t.Errorf("page %d shared=%v: only the written pages may be copied", p, shared)
		}
	}
}
