package main

// The handler-level tests live with the handler in internal/httpd; what
// remains here is the flag-shell's own surface — network-file loading,
// the demo generator — and the end-to-end CI smoke test over a real
// listener.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"trustmap"
	"trustmap/client"
	"trustmap/internal/admission"
	"trustmap/internal/httpd"
	"trustmap/internal/shard"
	"trustmap/wire"
)

// testStore builds the small demo community the smoke test serves.
func testStore(t *testing.T) *trustmap.Store {
	t.Helper()
	n := trustmap.New()
	n.AddTrust("alice", "bob", 100)
	n.AddTrust("alice", "carol", 50)
	n.SetBelief("bob", "fish")
	n.SetBelief("carol", "knot")
	st, err := n.NewStore(trustmap.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestBuildNetworkFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "net.json")
	raw := `{
	  "trust":   [{"truster": "alice", "trusted": "bob", "priority": 10}],
	  "beliefs": {"bob": "fish"},
	  "objects": {"o1": {"bob": "cow"}}
	}`
	if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	n, objects, err := buildNetwork(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.NumUsers(); got != 2 {
		t.Fatalf("NumUsers = %d, want 2", got)
	}
	if len(objects) != 1 || objects["o1"]["bob"] != "cow" {
		t.Fatalf("objects = %v, want o1/bob/cow", objects)
	}
	if _, _, err := buildNetwork(filepath.Join(t.TempDir(), "absent.json"), 0, 0); err == nil {
		t.Fatal("missing file must error")
	}
}

// seedState is what the seed-once rule must preserve across a reopen.
type seedState struct {
	LSN     uint64
	Users   string
	Objects int
}

func stateOf(st *trustmap.Store) seedState {
	return seedState{LSN: st.LSN(), Users: strings.Join(st.Users(), ","), Objects: st.NumObjects()}
}

// TestSeedFileAppliesOnce pins -f's seed-once rule on a durable store and
// on a durable 2-shard cluster: the file seeds an empty data directory,
// and a reopen over recovered history ignores it.
func TestSeedFileAppliesOnce(t *testing.T) {
	const seedFile = "testdata/seed.json"
	ctx := context.Background()
	extra := wire.Op{Op: wire.OpSetTrust, Truster: "zed", Trusted: "alice", Priority: 1}

	t.Run("store", func(t *testing.T) {
		dir := t.TempDir()
		st, err := openStore(dir, seedFile, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if seeded := stateOf(st); seeded.LSN == 0 || seeded.Users == "" || seeded.Objects != 3 {
			t.Fatalf("file did not seed the empty store: %+v", seeded)
		}
		if err := st.SetTrust(ctx, extra.Truster, extra.Trusted, extra.Priority); err != nil {
			t.Fatal(err)
		}
		want := stateOf(st)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st, err = openStore(dir, seedFile, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if got := stateOf(st); got != want {
			t.Fatalf("reopen with -f: %+v, want %+v (the file must be ignored)", got, want)
		}
	})

	t.Run("cluster", func(t *testing.T) {
		dir := t.TempDir()
		states := func(rt *shard.Router) []seedState {
			out := make([]seedState, rt.Shards())
			for i := range out {
				out[i] = stateOf(rt.Shard(i))
			}
			return out
		}
		rt, err := openCluster(2, dir, seedFile, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(rt.Objects()); n != 3 || len(rt.Users()) == 0 {
			t.Fatalf("file did not seed the empty cluster: %d objects, users %v", n, rt.Users())
		}
		if _, err := rt.Mutate([]wire.Op{extra}); err != nil {
			t.Fatal(err)
		}
		want := states(rt)
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
		rt, err = openCluster(2, dir, seedFile, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		if got := states(rt); !slices.Equal(got, want) {
			t.Fatalf("reopen with -f: %+v, want %+v (the file must be ignored)", got, want)
		}
	})
}

func TestDemoNetworkCompiles(t *testing.T) {
	n := demoNetwork(200, 42)
	if _, err := n.NewStore(trustmap.WithWorkers(1)); err != nil {
		t.Fatalf("demo network rejected: %v", err)
	}
}

// TestSmokeHTTP is the CI smoke test (`make smoke`): it starts the real
// server on a real TCP listener — with the production resilience layer
// armed (admission gates wide enough to never shed this workload, plus a
// request deadline) — and drives it end to end through the typed client
// package with retries enabled: resolve, mutate, resolve, then the
// object CRUD lifecycle (put-object, resolve it, put-belief, re-resolve,
// delete), asserting every later read observes an epoch at or beyond the
// preceding write. This is exactly the epoch contract trustd documents,
// exercised over the same wire schema the handlers speak.
func TestSmokeHTTP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	handler := httpd.New(testStore(t), httpd.Config{
		DefaultTimeout: 5 * time.Second,
		Reads:          admission.Config{MaxConcurrent: 32, MaxQueue: 32, QueueTimeout: time.Second},
		Mutations:      admission.Config{MaxConcurrent: 8, MaxQueue: 8, QueueTimeout: time.Second},
	})
	srv := &http.Server{Handler: handler}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve(ln)
	}()
	defer func() {
		_ = srv.Close()
		wg.Wait()
	}()
	ctx := context.Background()
	c := client.New("http://"+ln.Addr().String(),
		client.WithHTTPClient(&http.Client{Timeout: 10 * time.Second}),
		client.WithRetry(client.RetryPolicy{}),
		client.WithServerTimeout(5*time.Second))

	if h, err := c.Healthz(ctx); err != nil || !h.OK {
		t.Fatalf("healthz: %+v, %v", h, err)
	}

	// Read 1: alice follows bob (priority 100) and sees fish.
	res, err := c.Resolve(ctx, nil, []string{"alice"})
	if err != nil {
		t.Fatal(err)
	}
	epoch1 := res.Epoch
	if got := res.Users["alice"].Certain; got != "fish" {
		t.Fatalf("read 1: certain(alice) = %q, want fish", got)
	}

	// Mutate: carol outranks bob from now on.
	mut, err := c.Mutate(ctx, []wire.Op{
		{Op: wire.OpUpdateTrust, Truster: "alice", Trusted: "carol", Priority: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	if mut.Epoch <= epoch1 {
		t.Fatalf("mutate epoch %d not beyond read epoch %d", mut.Epoch, epoch1)
	}
	if mut.Applied != 1 {
		t.Fatalf("mutate applied = %d, want 1", mut.Applied)
	}

	// Read 2: must be served by an epoch at or beyond the mutation and
	// see the new outcome.
	res, err = c.Resolve(ctx, nil, []string{"alice"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch < mut.Epoch {
		t.Fatalf("read 2 epoch %d precedes mutate epoch %d", res.Epoch, mut.Epoch)
	}
	if got := res.Users["alice"].Certain; got != "knot" {
		t.Fatalf("read 2: certain(alice) = %q, want knot (carol outranks bob)", got)
	}

	// Object CRUD lifecycle: store an object, resolve it, override one
	// belief, re-resolve, delete.
	if _, err := c.PutObject(ctx, "glyph", map[string]string{"bob": "cow", "carol": "cow"}); err != nil {
		t.Fatal(err)
	}
	or, err := c.ResolveObject(ctx, "glyph", []string{"alice"})
	if err != nil {
		t.Fatal(err)
	}
	if or.Epoch < mut.Epoch {
		t.Fatalf("object read epoch %d precedes mutate epoch %d", or.Epoch, mut.Epoch)
	}
	if got := or.Users["alice"].Certain; got != "cow" {
		t.Fatalf("glyph: certain(alice) = %q, want cow", got)
	}
	if _, err := c.PutBelief(ctx, "glyph", "carol", "jar"); err != nil {
		t.Fatal(err)
	}
	or, err = c.ResolveObject(ctx, "glyph", []string{"alice"})
	if err != nil {
		t.Fatal(err)
	}
	if got := or.Users["alice"].Certain; got != "jar" {
		t.Fatalf("glyph after belief put: certain(alice) = %q, want jar (carol outranks bob)", got)
	}
	lst, err := c.ListObjects(ctx)
	if err != nil || len(lst.Objects) != 1 || lst.Objects[0] != "glyph" {
		t.Fatalf("objects = %+v, %v; want [glyph]", lst, err)
	}
	del, err := c.DeleteObject(ctx, "glyph")
	if err != nil || del.Deleted != "glyph" {
		t.Fatalf("DeleteObject = %+v, %v", del, err)
	}
	if _, err := c.GetObject(ctx, "glyph"); !client.IsNotFound(err) {
		t.Fatalf("deleted object read: err = %v, want 404", err)
	}

	// The resilience layer observed the run: everything was admitted,
	// nothing shed, nothing dead on deadline.
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	adm := stats.Admission
	if !adm.Enabled || adm.Reads.Shed != 0 || adm.Mutations.Shed != 0 || adm.DeadlineExceeded != 0 {
		t.Fatalf("admission after smoke = %+v, want enabled with zero sheds and deadline deaths", adm)
	}
	if adm.Reads.Admitted == 0 || adm.Mutations.Admitted == 0 {
		t.Fatalf("admission counted nothing: %+v", adm)
	}
	fmt.Printf("smoke: read@%d -> mutate@%d -> read@%d -> object CRUD ok (admitted %d reads, %d mutations)\n",
		epoch1, mut.Epoch, res.Epoch, adm.Reads.Admitted, adm.Mutations.Admitted)
}
