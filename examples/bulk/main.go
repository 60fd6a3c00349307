// Bulk resolution demo (Section 4) on the Store v2 API: a scientific
// community curates many objects (glyphs) under one set of trust
// mappings. The store owns both the network and the per-object beliefs;
// objects are resolved together on the compiled concurrent engine, read
// back in one batch or as a stream, and a belief correction re-resolves
// only the corrected object.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"trustmap"
)

func main() {
	ctx := context.Background()
	st, err := trustmap.NewStore()
	if err != nil {
		panic(err)
	}
	// A small curation team: two senior curators (the explicit-belief
	// users), a moderator cycle, and readers.
	for _, tm := range []struct {
		truster, trusted string
		prio             int
	}{
		{"moderatorA", "curator1", 10},
		{"moderatorA", "moderatorB", 20},
		{"moderatorB", "curator2", 10},
		{"moderatorB", "moderatorA", 20},
		{"reader", "moderatorA", 5},
	} {
		if err := st.SetTrust(ctx, tm.truster, tm.trusted, tm.prio); err != nil {
			panic(err)
		}
	}

	rng := rand.New(rand.NewSource(1))
	motifs := []string{"fish", "jar", "arrow", "cow", "knot"}
	conflicts := 0
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("glyph%04d", i)
		v1 := motifs[rng.Intn(len(motifs))]
		v2 := v1
		if rng.Float64() < 0.5 {
			v2 = motifs[rng.Intn(len(motifs))]
		}
		if v1 != v2 {
			conflicts++
		}
		if err := st.PutObject(ctx, k, map[string]string{"curator1": v1, "curator2": v2}); err != nil {
			panic(err)
		}
	}

	// Batch read: every stored object at one epoch.
	start := time.Now()
	rows, err := st.ResolveAll(ctx)
	if err != nil {
		panic(err)
	}
	elapsed := time.Since(start)
	certain, open := 0, 0
	for _, row := range rows {
		if _, ok := row.Certain("reader"); ok {
			certain++
		} else {
			open++
		}
	}
	fmt.Printf("resolved %d objects (%d with conflicting curators) in %v (epoch %d)\n",
		st.NumObjects(), conflicts, elapsed.Round(time.Millisecond), rows[0].Epoch())
	fmt.Printf("reader's snapshot: %d certain values, %d still contested\n", certain, open)

	// Streaming read: the same rows, consumed one by one without
	// materializing the batch — the shape that scales to millions of
	// objects. Drill into the first contested object.
	for row, err := range st.Resolved(ctx) {
		if err != nil {
			panic(err)
		}
		bs, _ := st.Object(row.Object)
		if bs["curator1"] == bs["curator2"] {
			continue
		}
		fmt.Printf("\nexample: %s  curator1=%s curator2=%s\n", row.Object, bs["curator1"], bs["curator2"])
		fmt.Printf("  moderatorA sees %v, moderatorB sees %v (mutual-trust cycle => both views possible)\n",
			row.Possible("moderatorA"), row.Possible("moderatorB"))
		fmt.Printf("  reader sees %v\n", row.Possible("reader"))

		// A correction lands for exactly this glyph: only it re-resolves.
		if err := st.PutBelief(ctx, "curator2", row.Object, bs["curator1"]); err != nil {
			panic(err)
		}
		poss, cert, err := st.Get(ctx, "reader", row.Object)
		if err != nil {
			panic(err)
		}
		fmt.Printf("  after curator2's correction: reader sees %v (certain %q)\n", poss, cert)
		break
	}
	sst := st.Stats()
	fmt.Printf("\nstore: %d objects, %d cache hits / %d misses, epoch %d\n",
		sst.Objects, sst.CacheHits, sst.CacheMisses, sst.Epoch)
}
