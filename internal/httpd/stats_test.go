package httpd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"trustmap"
	"trustmap/internal/admission"
	"trustmap/internal/httpd"
	"trustmap/internal/shard"
	"trustmap/wire"
)

// statsStep is one request of statsScript, the fixed sequence
// TestStatsGolden drives before reading /v1/stats: spine mutations,
// object and belief writes spread over both shards of a 2-shard
// cluster, cache misses and hits, a bulk resolve, one rejected
// mutation, and one served query.
type statsStep struct {
	method, path string
	body         any
	want         int
}

var statsScript = []statsStep{
	{"POST", "/v1/mutate", wire.MutateRequest{Ops: []wire.Op{
		{Op: wire.OpSetTrust, Truster: "alice", Trusted: "bob", Priority: 100},
		{Op: wire.OpSetTrust, Truster: "alice", Trusted: "carol", Priority: 50},
		{Op: wire.OpSetTrust, Truster: "dave", Trusted: "alice", Priority: 10},
		{Op: wire.OpSetBelief, User: "bob", Value: "fish"},
		{Op: wire.OpSetBelief, User: "carol", Value: "knot"},
	}}, http.StatusOK},
	{"PUT", "/v1/objects/o1", wire.ObjectPutRequest{Beliefs: map[string]string{"bob": "cow", "carol": "jar"}}, http.StatusOK},
	{"PUT", "/v1/objects/o2", wire.ObjectPutRequest{Beliefs: map[string]string{"bob": "fish", "carol": "fish"}}, http.StatusOK},
	{"PUT", "/v1/objects/o3", wire.ObjectPutRequest{Beliefs: map[string]string{"carol": "rope"}}, http.StatusOK},
	{"PUT", "/v1/objects/o4/beliefs/bob", wire.BeliefPutRequest{Value: "oar"}, http.StatusOK},
	{"GET", "/v1/objects/o1/resolution?users=dave", nil, http.StatusOK},
	{"GET", "/v1/objects/o1/resolution?users=dave", nil, http.StatusOK},
	{"GET", "/v1/objects/o4/resolution?users=alice", nil, http.StatusOK},
	{"POST", "/v1/mutate", wire.MutateRequest{Ops: []wire.Op{
		{Op: wire.OpSetTrust, Truster: "carol", Trusted: "bob", Priority: 5},
	}}, http.StatusOK},
	{"GET", "/v1/objects/o2/resolution?users=alice", nil, http.StatusOK},
	{"POST", "/v1/bulk-resolve", wire.BulkResolveRequest{
		Objects: map[string]map[string]string{"a1": {"bob": "v1", "carol": "v2"}, "a2": {"bob": "v3"}},
		Users:   []string{"alice", "dave"},
	}, http.StatusOK},
	{"POST", "/v1/mutate", wire.MutateRequest{Ops: []wire.Op{
		{Op: wire.OpSetBelief, User: "carol", Value: "twine"},
		{Op: wire.OpRemoveTrust, Truster: "nobody", Trusted: "bob"},
	}}, http.StatusBadRequest},
	{"DELETE", "/v1/objects/o3", nil, http.StatusOK},
	{"POST", "/v1/query", wire.Query{
		Where:   []wire.Predicate{{Col: "has_certain", Op: wire.PredEq}, {Col: "user", Op: wire.PredEq, Value: "alice"}},
		GroupBy: []string{"certain"},
		Aggs:    []wire.Aggregate{{Fn: wire.AggCount}},
	}, http.StatusOK},
	{"GET", "/v1/objects/o2/resolution?users=alice", nil, http.StatusOK},
}

// TestStatsGolden pins the exact /v1/stats bytes three backends serve
// after statsScript, with both admission gates armed: an in-memory
// store, a DurabilityAlways store checkpointed midway, and a 2-shard
// router over DurabilityOff shards (non-zero per-shard LSNs, the
// cluster section). Every field is deterministic for a serial request
// sequence: epochs, LSNs, WAL bytes and fsyncs, cache and admission
// counters, and epochs reclaimed (an epoch is reclaimed synchronously
// when its last reader releases it).
func TestStatsGolden(t *testing.T) {
	cfg := httpd.Config{
		Reads:     admission.Config{MaxConcurrent: 4, MaxQueue: 4},
		Mutations: admission.Config{MaxConcurrent: 1, MaxQueue: 2},
	}
	for _, tc := range []struct {
		name       string
		backend    func(t *testing.T) shard.Backend
		checkpoint int // step after which to checkpoint; -1 = never
	}{
		{"memory", func(t *testing.T) shard.Backend {
			st, err := trustmap.NewStore(trustmap.WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			return shard.NewSingleStore(st)
		}, -1},
		{"always", func(t *testing.T) shard.Backend {
			st, err := trustmap.OpenStore(t.TempDir(), trustmap.WithWorkers(1), trustmap.WithDurability(trustmap.DurabilityAlways))
			if err != nil {
				t.Fatal(err)
			}
			return shard.NewSingleStore(st)
		}, 8},
		{"cluster2", func(t *testing.T) shard.Backend {
			stores := make([]*trustmap.Store, 2)
			for i := range stores {
				st, err := trustmap.OpenStore(t.TempDir(), trustmap.WithWorkers(1), trustmap.WithDurability(trustmap.DurabilityOff))
				if err != nil {
					t.Fatal(err)
				}
				stores[i] = st
			}
			rt, err := shard.NewRouter(stores)
			if err != nil {
				t.Fatal(err)
			}
			return rt
		}, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.backend(t)
			t.Cleanup(func() { b.Close() })
			h := httpd.NewBackend(b, cfg)
			for i, step := range statsScript {
				if rec := serve(t, h, step.method, step.path, step.body); rec.Code != step.want {
					t.Fatalf("step %d %s %s: status %d, want %d; body %s", i, step.method, step.path, rec.Code, step.want, rec.Body)
				}
				if i == tc.checkpoint {
					if rec := serve(t, h, "POST", "/v1/admin/checkpoint", nil); rec.Code != http.StatusOK {
						t.Fatalf("checkpoint: status %d; body %s", rec.Code, rec.Body)
					}
				}
			}
			rec := serve(t, h, "GET", "/v1/stats", nil)
			if rec.Code != http.StatusOK {
				t.Fatalf("stats: status %d; body %s", rec.Code, rec.Body)
			}
			golden := filepath.Join("testdata", "stats_"+tc.name+".json")
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
				t.Fatalf("/v1/stats bytes differ from %s\n got: %s\nwant: %s", golden, got, want)
			}
		})
	}
}

// serve runs one request through h and returns the recorded response.
func serve(t *testing.T, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body == nil {
		rd = bytes.NewReader(nil)
	} else {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	return rec
}

// TestClusterStatsConsistent fetches /v1/stats from a 3-shard router 200
// times while another goroutine streams spine mutations and object
// writes, and requires every response to agree with its own cluster
// section: the top-level epoch, LSN and durable LSN are the minimum over
// per_shard, and store.objects is the per-shard sum. A response built
// from more than one read of some shard would break this whenever a
// write lands between the reads.
func TestClusterStatsConsistent(t *testing.T) {
	stores := make([]*trustmap.Store, 3)
	for i := range stores {
		st, err := trustmap.OpenStore(t.TempDir(), trustmap.WithWorkers(1), trustmap.WithDurability(trustmap.DurabilityAlways))
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = st
	}
	rt, err := shard.NewRouter(stores)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	if _, err := rt.Mutate([]wire.Op{
		{Op: wire.OpSetTrust, Truster: "alice", Trusted: "bob", Priority: 2},
		{Op: wire.OpSetBelief, User: "bob", Value: "fish"},
	}); err != nil {
		t.Fatal(err)
	}
	h := httpd.NewBackend(rt, httpd.Config{})

	stop := make(chan struct{})
	werr := make(chan error, 1)
	go func() {
		ctx := context.Background()
		for i := 0; ; i++ {
			select {
			case <-stop:
				werr <- nil
				return
			default:
			}
			var err error
			if i%4 == 0 {
				_, err = rt.Mutate([]wire.Op{{Op: wire.OpSetTrust, Truster: "carol", Trusted: "bob", Priority: i%7 + 1}})
			} else {
				err = rt.PutObject(ctx, fmt.Sprintf("o%d", i), map[string]string{"bob": fmt.Sprintf("v%d", i%5)})
			}
			if err != nil {
				werr <- err
				return
			}
		}
	}()

	var bad error // the first violation; reported once the writer has stopped
	for n := 0; n < 200 && bad == nil; n++ {
		rec := serve(t, h, "GET", "/v1/stats", nil)
		var s wire.StatsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil || rec.Code != http.StatusOK {
			bad = fmt.Errorf("fetch %d: status %d, %v; body %s", n, rec.Code, err, rec.Body)
			break
		}
		c := s.Cluster
		epoch, lsn, durable, objects := c.PerShard[0].Epoch, c.PerShard[0].LSN, c.PerShard[0].DurableLSN, 0
		for _, p := range c.PerShard {
			epoch, lsn, durable, objects = min(epoch, p.Epoch), min(lsn, p.LSN), min(durable, p.DurableLSN), objects+p.Objects
		}
		if s.Epoch != epoch || s.LSN != lsn || s.Durability.DurableLSN != durable || s.Store.Objects != objects {
			bad = fmt.Errorf("fetch %d: top level epoch %d lsn %d durable_lsn %d objects %d; per shard min/sum %d %d %d %d (%+v)",
				n, s.Epoch, s.LSN, s.Durability.DurableLSN, s.Store.Objects, epoch, lsn, durable, objects, c.PerShard)
		}
	}
	close(stop)
	if err := <-werr; err != nil {
		t.Fatal(err)
	}
	if bad != nil {
		t.Fatal(bad)
	}
}
