package httpd_test

// Handler-level tests over the exported httpd API: the wire-schema
// endpoints, error-status mapping, the recovery 503 gate, and the
// durable-store paths. Admission/deadline internals are covered by the
// in-package resilience tests.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"trustmap"
	"trustmap/internal/httpd"
	"trustmap/internal/query"
	"trustmap/internal/shard"
	"trustmap/wire"
)

// testStore builds the small demo community the handler tests share.
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

func postJSON(t *testing.T, h http.Handler, path string, body any) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(raw))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s: invalid JSON response %q: %v", path, rec.Body.String(), err)
	}
	return rec, out
}

func TestHandlerResolveAndStats(t *testing.T) {
	h := httpd.New(testStore(t), httpd.Config{})

	rec, out := postJSON(t, h, "/v1/resolve", wire.ResolveRequest{Users: []string{"alice"}})
	if rec.Code != http.StatusOK {
		t.Fatalf("resolve: status %d, body %v", rec.Code, out)
	}
	users := out["users"].(map[string]any)
	alice := users["alice"].(map[string]any)
	if got := alice["certain"]; got != "fish" {
		t.Fatalf("certain(alice) = %v, want fish", got)
	}

	// Per-object override beats the network default.
	_, out = postJSON(t, h, "/v1/resolve", wire.ResolveRequest{
		Beliefs: map[string]string{"bob": "cow"},
		Users:   []string{"alice"},
	})
	alice = out["users"].(map[string]any)["alice"].(map[string]any)
	if got := alice["certain"]; got != "cow" {
		t.Fatalf("certain(alice) with override = %v, want cow", got)
	}

	req := httptest.NewRequest("GET", "/v1/stats", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "\"compiles\":1") {
		t.Fatalf("stats: status %d, body %s", rec.Code, rec.Body.String())
	}
	// The v3 schema always carries the admission section, disabled here.
	var stats wire.StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Admission.Enabled {
		t.Fatalf("admission reported enabled on an ungated server: %+v", stats.Admission)
	}
}

func TestHandlerBulkResolve(t *testing.T) {
	h := httpd.New(testStore(t), httpd.Config{})
	rec, out := postJSON(t, h, "/v1/bulk-resolve", wire.BulkResolveRequest{
		Objects: map[string]map[string]string{
			"o1": {"bob": "fish", "carol": "fish"},
			"o2": {"bob": "v1", "carol": "v2"},
		},
		Users: []string{"alice"},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("bulk-resolve: status %d, body %v", rec.Code, out)
	}
	objs := out["objects"].(map[string]any)
	o1 := objs["o1"].(map[string]any)["alice"].(map[string]any)
	if got := o1["certain"]; got != "fish" {
		t.Fatalf("o1 certain(alice) = %v, want fish", got)
	}
	o2 := objs["o2"].(map[string]any)["alice"].(map[string]any)
	if got := o2["certain"]; got != "v1" {
		t.Fatalf("o2 certain(alice) = %v, want v1 (bob preferred)", got)
	}
}

// TestHandlerObjectCRUD drives the /v1/objects endpoints end to end at
// the handler level: put, get, list, per-belief put/delete, resolution,
// delete.
func TestHandlerObjectCRUD(t *testing.T) {
	h := httpd.New(testStore(t), httpd.Config{})
	do := func(method, path string, body any) (*httptest.ResponseRecorder, map[string]any) {
		t.Helper()
		var rd *bytes.Reader
		if body != nil {
			raw, _ := json.Marshal(body)
			rd = bytes.NewReader(raw)
		} else {
			rd = bytes.NewReader(nil)
		}
		req := httptest.NewRequest(method, path, rd)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var out map[string]any
		if len(rec.Body.Bytes()) > 0 {
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("%s %s: invalid JSON %q: %v", method, path, rec.Body.String(), err)
			}
		}
		return rec, out
	}

	rec, out := do("PUT", "/v1/objects/o1", wire.ObjectPutRequest{Beliefs: map[string]string{"bob": "cow"}})
	if rec.Code != http.StatusOK {
		t.Fatalf("put object: status %d, body %v", rec.Code, out)
	}
	rec, out = do("GET", "/v1/objects/o1", nil)
	if rec.Code != http.StatusOK || out["beliefs"].(map[string]any)["bob"] != "cow" {
		t.Fatalf("get object: status %d, body %v", rec.Code, out)
	}
	rec, out = do("GET", "/v1/objects", nil)
	if rec.Code != http.StatusOK || fmt.Sprint(out["objects"]) != "[o1]" {
		t.Fatalf("list objects: status %d, body %v", rec.Code, out)
	}
	// bob says cow for o1, so alice follows.
	rec, out = do("GET", "/v1/objects/o1/resolution?users=alice", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("resolution: status %d, body %v", rec.Code, out)
	}
	if got := out["users"].(map[string]any)["alice"].(map[string]any)["certain"]; got != "cow" {
		t.Fatalf("resolution certain(alice) = %v, want cow", got)
	}
	// Revoke bob's o1 belief: back to the network default fish.
	rec, _ = do("DELETE", "/v1/objects/o1/beliefs/bob", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("delete belief: status %d", rec.Code)
	}
	_, out = do("GET", "/v1/objects/o1/resolution?users=alice", nil)
	if got := out["users"].(map[string]any)["alice"].(map[string]any)["certain"]; got != "fish" {
		t.Fatalf("after belief delete: certain(alice) = %v, want fish", got)
	}
	// Belief put creates objects implicitly.
	rec, _ = do("PUT", "/v1/objects/o2/beliefs/carol", wire.BeliefPutRequest{Value: "jar"})
	if rec.Code != http.StatusOK {
		t.Fatalf("put belief: status %d", rec.Code)
	}
	rec, out = do("DELETE", "/v1/objects/o2", nil)
	if rec.Code != http.StatusOK || out["deleted"] != "o2" {
		t.Fatalf("delete object: status %d, body %v", rec.Code, out)
	}
	// Users are one query parameter each, taken verbatim: names with
	// commas (legal everywhere else) stay queryable.
	rec, _ = do("PUT", "/v1/objects/o1/beliefs/"+url.PathEscape("Doe, J"), wire.BeliefPutRequest{Value: "cow"})
	if rec.Code != http.StatusOK {
		t.Fatalf("put comma-name belief: status %d", rec.Code)
	}
	rec, out = do("GET", "/v1/objects/o1/resolution?"+url.Values{"users": {"Doe, J", "alice"}}.Encode(), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("comma-name resolution: status %d, body %v", rec.Code, out)
	}
	if got := out["users"].(map[string]any)["Doe, J"].(map[string]any)["certain"]; got != "cow" {
		t.Fatalf("comma-name certain = %v, want cow", got)
	}
}

// TestHandlerErrors asserts the intended status code for every error
// class: malformed bodies and invalid requests 400, unknown users and
// objects 404, wrong methods 405, oversized batches 413 (carrying the
// configured bound in the body).
func TestHandlerErrors(t *testing.T) {
	h := httpd.New(testStore(t), httpd.Config{MaxBatch: 3}) // tiny limit to exercise 413

	for _, tc := range []struct {
		name   string
		method string
		path   string
		body   string // raw JSON ("" = empty body)
		want   int
	}{
		{"resolve: no users", "POST", "/v1/resolve", `{}`, 400},
		{"resolve: malformed JSON", "POST", "/v1/resolve", `{"users": [`, 400},
		// Unknown fields are tolerated, not rejected: the schema grows by
		// adding fields, so newer clients must keep working (see
		// wire.SchemaVersion).
		{"resolve: unknown field", "POST", "/v1/resolve", `{"users": ["alice"], "x": 1}`, 200},
		{"resolve: unknown user", "POST", "/v1/resolve", `{"users": ["ghost"]}`, 404},
		{"resolve: unknown belief user", "POST", "/v1/resolve", `{"users": ["alice"], "beliefs": {"ghost": "v"}}`, 404},
		{"bulk-resolve: no objects", "POST", "/v1/bulk-resolve", `{"users": ["alice"]}`, 400},
		{"bulk-resolve: oversized batch", "POST", "/v1/bulk-resolve",
			`{"users": ["alice"], "objects": {"a": {}, "b": {}, "c": {}, "d": {}}}`, 413},
		{"mutate: no ops", "POST", "/v1/mutate", `{"ops": []}`, 400},
		{"mutate: unknown op", "POST", "/v1/mutate", `{"ops": [{"op": "frobnicate"}]}`, 400},
		{"mutate: oversized batch", "POST", "/v1/mutate",
			`{"ops": [{"op": "set-trust"}, {"op": "set-trust"}, {"op": "set-trust"}, {"op": "set-trust"}]}`, 413},
		{"object: unknown get", "GET", "/v1/objects/ghost", "", 404},
		{"object: unknown delete", "DELETE", "/v1/objects/ghost", "", 404},
		{"object: unknown belief delete", "DELETE", "/v1/objects/ghost/beliefs/bob", "", 404},
		{"object: malformed put", "PUT", "/v1/objects/o1", `{"beliefs": 7}`, 400},
		{"object: empty value", "PUT", "/v1/objects/o1", `{"beliefs": {"bob": ""}}`, 400},
		{"object: oversized beliefs", "PUT", "/v1/objects/o1",
			`{"beliefs": {"a": "v", "b": "v", "c": "v", "d": "v"}}`, 413},
		{"resolution: unknown object", "GET", "/v1/objects/ghost/resolution?users=alice", "", 404},
		{"resolution: no users", "GET", "/v1/objects/ghost/resolution", "", 400},
		{"query: malformed JSON", "POST", "/v1/query", `{"where": [`, 400},
		{"query: unknown column", "POST", "/v1/query", `{"where": [{"col": "nope", "op": "eq", "value": "x"}]}`, 400},
		{"wrong method: mutate", "GET", "/v1/mutate", "", 405},
		{"wrong method: objects", "POST", "/v1/objects", "", 405},
	} {
		req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, rec.Code, tc.want, rec.Body.String())
			continue
		}
		// Every handler-emitted error carries a JSON error body (the mux's
		// own 405s are plain text).
		if tc.want >= 400 && tc.want != 405 && !strings.Contains(rec.Body.String(), `"error"`) {
			t.Errorf("%s: error body missing: %s", tc.name, rec.Body.String())
		}
		// A 413 names the bound it enforced, so clients can split batches
		// without guessing server configuration.
		if tc.want == 413 {
			var er wire.ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Limit != 3 {
				t.Errorf("%s: 413 limit = %d (err %v), want 3 (body %s)", tc.name, er.Limit, err, rec.Body.String())
			}
		}
	}
}

// failingQuery is a backend whose queries compile and then fail.
type failingQuery struct{ shard.Backend }

func (failingQuery) Query(context.Context, wire.Query) (*query.Result, error) {
	return nil, errors.New("scan failed")
}

// TestQueryRuntimeFailureIs500: a valid query that fails while it runs
// is the server's failure, not the caller's (query.ErrBadQuery's
// contract: exactly the compile-time rejections are 400).
func TestQueryRuntimeFailureIs500(t *testing.T) {
	h := httpd.NewBackend(failingQuery{shard.NewSingleStore(testStore(t))}, httpd.Config{})
	rec, out := postJSON(t, h, "/v1/query", wire.Query{})
	if rec.Code != http.StatusInternalServerError || out["error"] == nil {
		t.Fatalf("status %d, body %v; want 500 with an error body", rec.Code, out)
	}
}

// TestRecoveryGate503 checks the not-yet-installed handler: every
// endpoint answers 503 with a Retry-After header until the store is
// installed, then serves normally.
func TestRecoveryGate503(t *testing.T) {
	h := httpd.New(nil, httpd.Config{})
	for _, probe := range []struct{ method, path, body string }{
		{"GET", "/healthz", ""},
		{"GET", "/v1/stats", ""},
		{"POST", "/v1/resolve", `{"users":["alice"]}`},
		{"POST", "/v1/mutate", `{"ops":[{"op":"set-trust","truster":"a","trusted":"b","priority":1}]}`},
		{"POST", "/v1/admin/checkpoint", ""},
		{"GET", "/v1/objects", ""},
	} {
		req := httptest.NewRequest(probe.method, probe.path, strings.NewReader(probe.body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%s %s while recovering: status %d, want 503", probe.method, probe.path, rec.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Errorf("%s %s while recovering: no Retry-After header", probe.method, probe.path)
		}
		if !strings.Contains(rec.Body.String(), `"error"`) {
			t.Errorf("%s %s while recovering: no JSON error body: %s", probe.method, probe.path, rec.Body.String())
		}
	}

	h.Install(testStore(t))
	req := httptest.NewRequest("GET", "/healthz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz after install: status %d, want 200", rec.Code)
	}
}

// TestDurableServer exercises the durable path end to end over HTTP:
// mutations carry rising LSNs, /v1/stats reports the durability section,
// /v1/admin/checkpoint compacts, and a reopened store serves the same
// resolutions with the recovery counters visible.
func TestDurableServer(t *testing.T) {
	dir := t.TempDir()
	st, err := trustmap.OpenStore(dir, trustmap.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	h := httpd.New(st, httpd.Config{})

	rec, out := postJSON(t, h, "/v1/mutate", wire.MutateRequest{Ops: []wire.Op{
		{Op: wire.OpSetTrust, Truster: "alice", Trusted: "bob", Priority: 100},
		{Op: wire.OpSetBelief, User: "bob", Value: "fish"},
	}})
	if rec.Code != http.StatusOK {
		t.Fatalf("mutate: status %d body %v", rec.Code, out)
	}
	if lsn := out["lsn"].(float64); lsn != 1 {
		t.Errorf("mutate lsn = %v, want 1 (one batch)", lsn)
	}

	req := httptest.NewRequest("PUT", "/v1/objects/o1", strings.NewReader(`{"beliefs":{"bob":"cow"}}`))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("put object: status %d body %s", rec.Code, rec.Body.String())
	}
	var obj wire.ObjectResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &obj); err != nil {
		t.Fatal(err)
	}
	if obj.LSN != 2 {
		t.Errorf("put object lsn = %d, want 2", obj.LSN)
	}

	// Stats carry the schema version and the durability section.
	req = httptest.NewRequest("GET", "/v1/stats", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var stats wire.StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Schema != wire.SchemaVersion {
		t.Errorf("stats schema = %d, want %d", stats.Schema, wire.SchemaVersion)
	}
	if stats.Durability.Mode != "batch" || stats.Durability.LastLSN != 2 {
		t.Errorf("stats durability = %+v, want mode batch lsn 2", stats.Durability)
	}

	// Checkpoint over HTTP: watermark at the current LSN.
	req = httptest.NewRequest("POST", "/v1/admin/checkpoint", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("checkpoint: status %d body %s", rec.Code, rec.Body.String())
	}
	var ck wire.CheckpointResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ck); err != nil {
		t.Fatal(err)
	}
	if ck.LSN != 2 || ck.Snapshot == "" {
		t.Errorf("checkpoint = %+v, want lsn 2 and a snapshot name", ck)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the recovered store serves identical state.
	st2, err := trustmap.OpenStore(dir, trustmap.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	h2 := httpd.New(st2, httpd.Config{})
	req = httptest.NewRequest("GET", "/v1/objects/o1/resolution?users=alice", nil)
	rec = httptest.NewRecorder()
	h2.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("recovered resolution: status %d body %s", rec.Code, rec.Body.String())
	}
	var res wire.ObjectResolutionResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if got := res.Users["alice"].Certain; got != "cow" {
		t.Errorf("recovered certain(alice, o1) = %q, want cow", got)
	}
	if res.LSN != 2 {
		t.Errorf("recovered lsn = %d, want 2", res.LSN)
	}

	// In-memory stores reject checkpoints with a clear 400.
	h3 := httpd.New(testStore(t), httpd.Config{})
	req = httptest.NewRequest("POST", "/v1/admin/checkpoint", nil)
	rec = httptest.NewRecorder()
	h3.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("in-memory checkpoint: status %d, want 400 (body %s)", rec.Code, rec.Body.String())
	}
}
