package httpd

// The endpoint handlers: a thin layer over one shard.Backend — a single
// trustmap.Store or a sharded cluster router — speaking the wire-package
// schema (the same one the client package consumes, so server and client
// cannot drift). Reads are served lock-free from the backend's currently
// published epoch(s); trust mutations (/v1/mutate) apply one atomic
// batch — broadcast to every shard on a cluster — and publish the next
// epoch before responding; object CRUD (/v1/objects...) edits the belief
// table of the one store owning the key and invalidates exactly the
// touched object's cached resolution. Every response carries the epoch
// that served it — and, on a durable store, the LSN of the last logged
// WAL batch; on a cluster, the minimum over shards, the conservative
// read-your-writes bound — so a client that mutates and then resolves
// can verify the read observed at least its own write.
//
// The handler is built before the store finishes recovering: until the
// store is installed every endpoint answers 503 with a Retry-After
// header, so load balancers and clients hold off instead of erroring.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"trustmap"
	"trustmap/internal/shard"
	"trustmap/wire"
)

// store returns the serving backend, or answers 503 (with Retry-After,
// so well-behaved clients back off) while recovery is still running.
func (srv *Server) store(w http.ResponseWriter) (shard.Backend, bool) {
	b := srv.backend.Load()
	if b == nil {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable,
			errors.New("store is still recovering from disk; retry shortly"))
		return nil, false
	}
	return *b, true
}

// concreteStore returns the single *trustmap.Store under the backend for
// the endpoints that need the store itself (WAL streaming, snapshot
// shipping). A sharded cluster has no one store — per-shard WALs carry
// independent LSN spaces — so those endpoints answer 400 on it.
func (srv *Server) concreteStore(w http.ResponseWriter) (*trustmap.Store, bool) {
	b, ok := srv.store(w)
	if !ok {
		return nil, false
	}
	s, ok := b.(shard.Storer)
	if !ok {
		writeError(w, http.StatusBadRequest,
			errors.New("a sharded cluster does not serve per-store replication endpoints (per-shard WALs have independent LSN spaces)"))
		return nil, false
	}
	return s.Store(), true
}

func (srv *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st, ok := srv.store(w)
	if !ok {
		return
	}
	h := wire.Health{OK: true, Epoch: st.Epoch(), LSN: st.LSN(), Role: "primary", Shards: st.Shards()}
	if rep := srv.replication(); rep != nil {
		h.Role, h.ReplicaLag = "replica", rep.Lag()
	}
	writeJSON(w, http.StatusOK, h)
}

func (srv *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st, ok := srv.store(w)
	if !ok {
		return
	}
	resp := st.Stats()
	resp.Admission = srv.AdmissionStats()
	resp.Replication = srv.replicationStats()
	resp.Query = srv.QueryTotals()
	writeJSON(w, http.StatusOK, resp)
}

func (srv *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	st, ok := srv.store(w)
	if !ok {
		return
	}
	ck, err := st.Checkpoint()
	if err != nil {
		if errors.Is(err, trustmap.ErrNotDurable) {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		srv.storeError(w, err, http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, wire.CheckpointResponse{
		Epoch: ck.Epoch, LSN: ck.LSN, Snapshot: ck.Snapshot,
	})
}

func (srv *Server) handleResolve(w http.ResponseWriter, r *http.Request) {
	st, ok := srv.store(w)
	if !ok {
		return
	}
	var req wire.ResolveRequest
	if !srv.readJSON(w, r, &req) {
		return
	}
	if len(req.Users) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("resolve: users must list at least one user to report"))
		return
	}
	res, err := st.Resolve(r.Context(), req.Beliefs)
	if err != nil {
		srv.resolveError(w, err)
		return
	}
	users, err := collectUsers(res.Lookup, req.Users)
	if err != nil {
		srv.resolveError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.ResolveResponse{Epoch: res.Epoch(), LSN: st.LSN(), Users: users})
}

func (srv *Server) handleBulkResolve(w http.ResponseWriter, r *http.Request) {
	st, ok := srv.store(w)
	if !ok {
		return
	}
	var req wire.BulkResolveRequest
	if !srv.readJSON(w, r, &req) {
		return
	}
	if len(req.Users) == 0 || len(req.Objects) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bulk-resolve: objects and users must be non-empty"))
		return
	}
	if len(req.Objects) > srv.maxBatch {
		writeLimitError(w, srv.maxBatch,
			fmt.Errorf("bulk-resolve: %d objects exceed the batch limit of %d", len(req.Objects), srv.maxBatch))
		return
	}
	rows, err := st.BulkResolve(r.Context(), req.Objects)
	if err != nil {
		srv.resolveError(w, err)
		return
	}
	// The batch epoch is the minimum over its rows: on a cluster each
	// shard's rows carry that shard's epoch, and the minimum is the
	// conservative bound every row is at least as fresh as.
	out := make(map[string]map[string]wire.UserResult, len(req.Objects))
	var epoch uint64
	for i, row := range rows {
		users, err := collectUsers(row.Lookup, req.Users)
		if err != nil {
			srv.resolveError(w, err)
			return
		}
		out[row.Object] = users
		if e := row.Epoch(); i == 0 || e < epoch {
			epoch = e
		}
	}
	writeJSON(w, http.StatusOK, wire.BulkResolveResponse{Epoch: epoch, LSN: st.LSN(), Objects: out})
}

func (srv *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	st, ok := srv.store(w)
	if !ok {
		return
	}
	var req wire.MutateRequest
	if !srv.readJSON(w, r, &req) {
		return
	}
	if len(req.Ops) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("mutate: ops must be non-empty"))
		return
	}
	if len(req.Ops) > srv.maxBatch {
		writeLimitError(w, srv.maxBatch,
			fmt.Errorf("mutate: %d ops exceed the batch limit of %d", len(req.Ops), srv.maxBatch))
		return
	}
	applied, err := st.Mutate(req.Ops)
	if err != nil {
		if errors.Is(err, trustmap.ErrPoisoned) || errors.Is(err, trustmap.ErrClosed) {
			srv.storeError(w, err, http.StatusServiceUnavailable)
			return
		}
		// Ops before the failing one were applied and published: report
		// the count alongside the error so the client can reconcile.
		writeJSON(w, http.StatusBadRequest, wire.ErrorResponse{
			Message: err.Error(), Applied: applied, Epoch: st.Epoch(),
		})
		return
	}
	writeJSON(w, http.StatusOK, wire.MutateResponse{Epoch: st.Epoch(), LSN: st.LSN(), Applied: applied})
}

// --- object CRUD -------------------------------------------------------

func (srv *Server) handleListObjects(w http.ResponseWriter, r *http.Request) {
	st, ok := srv.store(w)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, wire.ObjectListResponse{Objects: st.Objects(), Epoch: st.Epoch(), LSN: st.LSN()})
}

func (srv *Server) handlePutObject(w http.ResponseWriter, r *http.Request) {
	st, ok := srv.store(w)
	if !ok {
		return
	}
	key := r.PathValue("key")
	var req wire.ObjectPutRequest
	if !srv.readJSON(w, r, &req) {
		return
	}
	if len(req.Beliefs) > srv.maxBatch {
		writeLimitError(w, srv.maxBatch,
			fmt.Errorf("put object: %d beliefs exceed the batch limit of %d", len(req.Beliefs), srv.maxBatch))
		return
	}
	if err := st.PutObject(r.Context(), key, req.Beliefs); err != nil {
		srv.storeError(w, err, http.StatusBadRequest)
		return
	}
	srv.writeObject(w, st, key)
}

func (srv *Server) handleGetObject(w http.ResponseWriter, r *http.Request) {
	st, ok := srv.store(w)
	if !ok {
		return
	}
	srv.writeObject(w, st, r.PathValue("key"))
}

// writeObject answers with the stored object, or 404.
func (srv *Server) writeObject(w http.ResponseWriter, st shard.Backend, key string) {
	beliefs, ok := st.Object(key)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: %q", trustmap.ErrUnknownObject, key))
		return
	}
	writeJSON(w, http.StatusOK, wire.ObjectResponse{Object: key, Beliefs: beliefs, Epoch: st.Epoch(), LSN: st.LSN()})
}

func (srv *Server) handleDeleteObject(w http.ResponseWriter, r *http.Request) {
	st, ok := srv.store(w)
	if !ok {
		return
	}
	key := r.PathValue("key")
	ok, err := st.DeleteObject(r.Context(), key)
	if err != nil {
		srv.storeError(w, err, http.StatusBadRequest)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: %q", trustmap.ErrUnknownObject, key))
		return
	}
	writeJSON(w, http.StatusOK, wire.DeleteResponse{Deleted: key, Epoch: st.Epoch(), LSN: st.LSN()})
}

func (srv *Server) handlePutBelief(w http.ResponseWriter, r *http.Request) {
	st, ok := srv.store(w)
	if !ok {
		return
	}
	key, user := r.PathValue("key"), r.PathValue("user")
	var req wire.BeliefPutRequest
	if !srv.readJSON(w, r, &req) {
		return
	}
	if err := st.PutBelief(r.Context(), user, key, req.Value); err != nil {
		srv.storeError(w, err, http.StatusBadRequest)
		return
	}
	srv.writeObject(w, st, key)
}

func (srv *Server) handleDeleteBelief(w http.ResponseWriter, r *http.Request) {
	st, ok := srv.store(w)
	if !ok {
		return
	}
	key, user := r.PathValue("key"), r.PathValue("user")
	ok, err := st.DeleteBelief(r.Context(), user, key)
	if err != nil {
		srv.storeError(w, err, http.StatusBadRequest)
		return
	}
	if !ok {
		// Distinguish the two 404 classes: a missing object and a missing
		// belief on an existing object.
		if _, exists := st.Object(key); !exists {
			writeError(w, http.StatusNotFound, fmt.Errorf("%w: %q", trustmap.ErrUnknownObject, key))
		} else {
			writeError(w, http.StatusNotFound, fmt.Errorf("object %q holds no belief of user %q", key, user))
		}
		return
	}
	srv.writeObject(w, st, key)
}

func (srv *Server) handleResolveObject(w http.ResponseWriter, r *http.Request) {
	st, ok := srv.store(w)
	if !ok {
		return
	}
	key := r.PathValue("key")
	users := splitUsers(r.URL.Query()["users"])
	if len(users) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("resolution: the users query parameter must list at least one user"))
		return
	}
	row, err := st.ResolveObject(r.Context(), key)
	if err != nil {
		srv.resolveError(w, err)
		return
	}
	out, err := collectUsers(row.Lookup, users)
	if err != nil {
		srv.resolveError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.ObjectResolutionResponse{Object: key, Epoch: row.Epoch(), LSN: st.LSN(), Users: out})
}

// splitUsers resolves the users query parameter: one user per repeated
// parameter (?users=a&users=b), each taken verbatim after trimming, so
// names containing commas survive exactly as the JSON endpoints accept
// them. Deliberately no comma-splitting: a convenience split would make
// a lone comma-carrying name unqueryable.
func splitUsers(values []string) []string {
	var out []string
	for _, u := range values {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, u)
		}
	}
	return out
}

// collectUsers gathers the requested users' results through one lookup
// function. Possible sets come back sorted from the engine.
func collectUsers(lookup func(user string) ([]string, string, error), users []string) (map[string]wire.UserResult, error) {
	out := make(map[string]wire.UserResult, len(users))
	for _, u := range users {
		poss, cert, err := lookup(u)
		if err != nil {
			return nil, err
		}
		out[u] = wire.UserResult{Possible: poss, Certain: cert}
	}
	return out, nil
}

// readJSON decodes the body, tolerating unknown fields: the schema
// evolves by adding fields (see wire.SchemaVersion), so a newer client's
// extra fields must not fail an older server.
func (srv *Server) readJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(dst); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeLimitError(w, int(tooLarge.Limit),
				fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("parsing request: %w", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, wire.ErrorResponse{Message: err.Error()})
}

// writeLimitError answers 413 with the exceeded bound in the body, so a
// client can split its batch without guessing the server's configuration.
func writeLimitError(w http.ResponseWriter, limit int, err error) {
	writeJSON(w, http.StatusRequestEntityTooLarge, wire.ErrorResponse{Message: err.Error(), Limit: limit})
}
