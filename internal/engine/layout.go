package engine

// The flat CSR layout of the root supports, the table the resolve hot
// path gathers from. The first engine revisions walked per-support bitsets
// with bit tricks on every gather, hopping between small heap objects.
// The supports flatten instead into supOff/supRoots on CompiledNetwork
// (compressed sparse rows): support id -> a contiguous run of root slots,
// ascending. The per-signature gather scans one contiguous int32 run per
// support with no bit iteration and no branches beyond the tombstone
// guard.
//
// The builder-side representation stays the bitsets (dedup and Apply's
// splice need the set semantics); the CSR arrays are derived from them at
// Compile/Apply time. The planner's per-node tables are not on the
// resolve path, and live in copy-on-write pages instead (cow.go).

// flattenSupports derives the CSR view of the support table: supRoots
// holds each support's root slots ascending, supOff indexes it by support
// id. buildSupports and a compaction rebuild it; an Apply successor only
// appends its new supports (appendSupportRuns).
func (c *CompiledNetwork) flattenSupports() {
	c.supOff = []int32{0}
	c.supRoots = nil
	c.appendSupportRuns(0)
}

// appendSupportRuns appends the runs of supports from..len-1 to the CSR
// view. The arrays are append-only along a lineage, so a successor
// extends its base's arrays in place: the base never reads past its own
// length.
func (c *CompiledNetwork) appendSupportRuns(from int) {
	for _, b := range c.supports[from:] {
		b.each(func(slot int) { c.supRoots = append(c.supRoots, int32(slot)) })
		c.supOff = append(c.supOff, int32(len(c.supRoots)))
	}
}
