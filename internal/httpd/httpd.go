// Package httpd is the trustd HTTP server core: the full wire-schema
// handler over one shard.Backend — a single shared trustmap.Store or a
// sharded cluster router, the handlers cannot tell — wrapped in the
// production resilience layer: per-class admission control and
// per-request deadline propagation. It lives under internal/ (not
// cmd/trustd) so the load harness (cmd/loadgen -self) and tests can run
// the real serving stack in-process; cmd/trustd is a thin flag-parsing
// shell around it.
//
// Request lifecycle:
//
//  1. Deadline: the request context gets a deadline from
//     Config.DefaultTimeout, overridable per request via the
//     wire.TimeoutHeader header (capped at Config.MaxTimeout). The
//     deadline rides the context through every ctx-aware Store path, so
//     an exhausted budget aborts resolution work mid-flight instead of
//     burning capacity on an answer nobody is waiting for.
//  2. Admission: the request claims a slot from its class's gate (reads
//     vs mutations, internal/admission). Overload sheds with 429 +
//     Retry-After before any body parsing or store work. /healthz and
//     /v1/stats bypass admission: probes must answer precisely when the
//     server is busiest.
//  3. Handler: reads serve lock-free from the published epoch; mutations
//     apply, log, and publish. A context deadline expiring mid-handler
//     answers 503 WITHOUT Retry-After — the client chose the budget —
//     distinctly from both the shed 429 and the recovering-store 503
//     (which carries Retry-After).
//
// All admission and deadline rejections are counted deterministically and
// surfaced in /v1/stats (wire.AdmissionStats), so overload behavior is
// testable and SLO-gateable without wall clocks.
package httpd

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"trustmap"
	"trustmap/internal/admission"
	"trustmap/internal/faultinject"
	"trustmap/internal/shard"
	"trustmap/wire"
)

// maxBodyBytes bounds every request body.
const maxBodyBytes = 16 << 20

// DefaultMaxBatch caps the ops of one mutate and the objects of one
// bulk-resolve when Config.MaxBatch is zero.
const DefaultMaxBatch = 65536

// Config shapes one Server.
type Config struct {
	// MaxBatch caps the ops of one mutate and the objects of one
	// bulk-resolve; beyond it the request answers 413 (with the limit in
	// the error body) without touching the store. Zero = DefaultMaxBatch.
	MaxBatch int
	// DefaultTimeout is the per-request deadline when the client sends no
	// wire.TimeoutHeader. Zero = no server-imposed deadline.
	DefaultTimeout time.Duration
	// MaxTimeout caps the client's header override (and the default).
	// Zero = no cap.
	MaxTimeout time.Duration
	// Reads gates the read class: resolves, object GETs, listings.
	// A zero-valued config (MaxConcurrent <= 0) leaves reads ungated.
	Reads admission.Config
	// Mutations gates the mutate class: /v1/mutate, object PUT/DELETE,
	// checkpoints. A zero-valued config leaves mutations ungated.
	Mutations admission.Config
	// WALPoll is the GET /v1/wal long-poll interval: how often an idle
	// stream re-checks the log for new durable batches. Zero =
	// DefaultWALPoll; tests and harnesses lower it for fast convergence.
	WALPoll time.Duration
}

// Server wires one shard.Backend — a single store or a cluster router —
// into an http.Handler with admission control and deadline propagation.
// Build with New (one store) or NewBackend (any backend).
type Server struct {
	// backend is nil until the store is installed (recovery can run after
	// the listener is up); every handler gates on it.
	backend atomic.Pointer[shard.Backend]
	mux     *http.ServeMux

	maxBatch       int
	defaultTimeout time.Duration
	maxTimeout     time.Duration

	// reads / mutations are nil when the class is ungated: a nil
	// *admission.Gate admits everything and counts nothing.
	reads     *admission.Gate
	mutations *admission.Gate

	// deadlineExceeded counts requests answered 503 because their
	// propagated deadline expired (at admission or mid-handler) —
	// deterministic, surfaced in /v1/stats.
	deadlineExceeded atomic.Uint64

	// Cumulative /v1/query counters (wire.QueryTotals in /v1/stats):
	// deterministic, incremented once per served query.
	queries             atomic.Uint64
	queryRowsScanned    atomic.Uint64
	queryRowsEmitted    atomic.Uint64
	queryPredsReordered atomic.Uint64
	queryEarlyTerms     atomic.Uint64

	// repl is non-nil while this server is a replica: the live WAL tail
	// installed by SetReplication, cleared (and stopped) by promote.
	repl atomic.Pointer[Replication]

	walPoll time.Duration
}

// New builds the server over one store. st may be nil: the handler then
// answers 503 everywhere until Install is called (the recovering state).
func New(st *trustmap.Store, cfg Config) *Server {
	if st == nil {
		return NewBackend(nil, cfg)
	}
	return NewBackend(shard.NewSingleStore(st), cfg)
}

// NewBackend builds the server over any shard.Backend — the cluster
// entry point (hand it a shard.Router). b may be nil: the handler then
// answers 503 everywhere until InstallBackend is called.
func NewBackend(b shard.Backend, cfg Config) *Server {
	srv := &Server{
		mux:            http.NewServeMux(),
		maxBatch:       cfg.MaxBatch,
		defaultTimeout: cfg.DefaultTimeout,
		maxTimeout:     cfg.MaxTimeout,
		walPoll:        cfg.WALPoll,
	}
	if srv.maxBatch <= 0 {
		srv.maxBatch = DefaultMaxBatch
	}
	if srv.walPoll <= 0 {
		srv.walPoll = DefaultWALPoll
	}
	if cfg.Reads.MaxConcurrent > 0 {
		srv.reads = admission.New(cfg.Reads)
	}
	if cfg.Mutations.MaxConcurrent > 0 {
		srv.mutations = admission.New(cfg.Mutations)
	}
	if b != nil {
		srv.backend.Store(&b)
	}
	// Probes bypass admission (deadline still applies): health and stats
	// must answer while the gates are full, or overload becomes invisible
	// exactly when it matters.
	srv.mux.HandleFunc("GET /healthz", srv.guard(nil, srv.handleHealthz))
	srv.mux.HandleFunc("GET /v1/stats", srv.guard(nil, srv.handleStats))
	srv.mux.HandleFunc("POST /v1/resolve", srv.guard(srv.reads, srv.handleResolve))
	srv.mux.HandleFunc("POST /v1/bulk-resolve", srv.guard(srv.reads, srv.handleBulkResolve))
	srv.mux.HandleFunc("POST /v1/query", srv.guard(srv.reads, srv.handleQuery))
	// Logical mutations answer 421 on a replica (primaryOnly); checkpoint
	// stays allowed everywhere — compaction is local housekeeping.
	srv.mux.HandleFunc("POST /v1/mutate", srv.guard(srv.mutations, srv.primaryOnly(srv.handleMutate)))
	srv.mux.HandleFunc("POST /v1/admin/checkpoint", srv.guard(srv.mutations, srv.handleCheckpoint))
	srv.mux.HandleFunc("POST /v1/admin/promote", srv.guard(srv.mutations, srv.handlePromote))
	srv.mux.HandleFunc("GET /v1/objects", srv.guard(srv.reads, srv.handleListObjects))
	srv.mux.HandleFunc("PUT /v1/objects/{key}", srv.guard(srv.mutations, srv.primaryOnly(srv.handlePutObject)))
	srv.mux.HandleFunc("GET /v1/objects/{key}", srv.guard(srv.reads, srv.handleGetObject))
	srv.mux.HandleFunc("DELETE /v1/objects/{key}", srv.guard(srv.mutations, srv.primaryOnly(srv.handleDeleteObject)))
	srv.mux.HandleFunc("GET /v1/objects/{key}/resolution", srv.guard(srv.reads, srv.handleResolveObject))
	srv.mux.HandleFunc("PUT /v1/objects/{key}/beliefs/{user}", srv.guard(srv.mutations, srv.primaryOnly(srv.handlePutBelief)))
	srv.mux.HandleFunc("DELETE /v1/objects/{key}/beliefs/{user}", srv.guard(srv.mutations, srv.primaryOnly(srv.handleDeleteBelief)))
	// Replication infrastructure. /v1/snapshot is a one-shot blob read;
	// /v1/wal is a long-lived stream registered OUTSIDE the guard — a
	// per-request deadline would cut a healthy tail mid-flight, and like
	// the probes it must answer while the admission gates are full.
	srv.mux.HandleFunc("GET /v1/snapshot", srv.guard(nil, srv.handleSnapshot))
	srv.mux.HandleFunc("GET /v1/wal", srv.handleWALStream)
	return srv
}

// Install publishes the recovered store: the 503 gate opens atomically.
func (srv *Server) Install(st *trustmap.Store) { srv.InstallBackend(shard.NewSingleStore(st)) }

// InstallBackend publishes any recovered backend (see Install).
func (srv *Server) InstallBackend(b shard.Backend) { srv.backend.Store(&b) }

// ServeHTTP dispatches through the server's route table.
func (srv *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { srv.mux.ServeHTTP(w, r) }

// guard is the resilience middleware: propagate the request deadline into
// the context, then claim an admission slot from g (nil = ungated). Sheds
// answer 429 + Retry-After before any body parsing or store work; a
// deadline that dies in the queue answers 503 without Retry-After.
func (srv *Server) guard(g *admission.Gate, next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// Every response from a replica carries its staleness, so any
		// reader can bound how far behind the primary its answer is.
		if rep := srv.replication(); rep != nil {
			w.Header().Set(wire.StalenessHeader, strconv.FormatUint(rep.Lag(), 10))
		}
		if d := srv.timeoutFor(r); d > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), d)
			defer cancel()
			r = r.WithContext(ctx)
		}
		release, err := g.Acquire(r.Context())
		if err != nil {
			var se *admission.ShedError
			if errors.As(err, &se) {
				secs := int(se.RetryAfter / time.Second)
				if secs < 1 {
					secs = 1
				}
				w.Header().Set("Retry-After", strconv.Itoa(secs))
				writeError(w, http.StatusTooManyRequests,
					fmt.Errorf("overloaded: request shed at admission (%s); retry after the indicated back-off", se.Reason))
				return
			}
			srv.deadline503(w)
			return
		}
		defer release()
		// Fault point: synthetic service time (or an injected failure)
		// while the admission slot is held — the load harness's overload
		// lever. Unarmed, this is one atomic load.
		if err := faultinject.Fire(faultinject.HandlerServe); err != nil {
			srv.storeError(w, err, http.StatusInternalServerError)
			return
		}
		next(w, r)
	}
}

// timeoutFor resolves one request's deadline budget: the client's
// wire.TimeoutHeader (integer milliseconds) when present and positive,
// else the server default; either capped at MaxTimeout.
func (srv *Server) timeoutFor(r *http.Request) time.Duration {
	d := srv.defaultTimeout
	if h := r.Header.Get(wire.TimeoutHeader); h != "" {
		if ms, err := strconv.ParseInt(h, 10, 64); err == nil && ms > 0 {
			d = time.Duration(ms) * time.Millisecond
		}
	}
	if srv.maxTimeout > 0 && (d <= 0 || d > srv.maxTimeout) {
		d = srv.maxTimeout
	}
	return d
}

// deadline503 answers a request whose propagated deadline expired —
// queued or mid-handler. Deliberately NO Retry-After: the budget was the
// client's choice, and unlike a shed this is not the server asking for
// back-off. Counted in AdmissionStats.DeadlineExceeded.
func (srv *Server) deadline503(w http.ResponseWriter) {
	srv.deadlineExceeded.Add(1)
	writeError(w, http.StatusServiceUnavailable,
		errors.New("request deadline exceeded before completion"))
}

// storeError maps one store-operation failure: an expired context is the
// deadline 503, an unusable store (poisoned/closed) a Retry-After 503,
// anything else the handler's fallback status.
func (srv *Server) storeError(w http.ResponseWriter, err error, fallback int) {
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		srv.deadline503(w)
	case errors.Is(err, trustmap.ErrPoisoned) || errors.Is(err, trustmap.ErrClosed):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, fallback, err)
	}
}

// resolveError maps resolution errors onto statuses: unknown names are
// 404, an expired deadline is the 503, everything else is an invalid
// request.
func (srv *Server) resolveError(w http.ResponseWriter, err error) {
	if errors.Is(err, trustmap.ErrUnknownUser) || errors.Is(err, trustmap.ErrUnknownObject) {
		writeError(w, http.StatusNotFound, err)
		return
	}
	srv.storeError(w, err, http.StatusBadRequest)
}

// AdmissionStats snapshots the resilience counters: per-class admission
// plus the deadline-rejection count. Deterministic — safe to gate tests
// and SLO checks on.
func (srv *Server) AdmissionStats() wire.AdmissionStats {
	return wire.AdmissionStats{
		Enabled:          srv.reads != nil || srv.mutations != nil,
		Reads:            wire.AdmissionClassStats(srv.reads.Stats()),
		Mutations:        wire.AdmissionClassStats(srv.mutations.Stats()),
		DeadlineExceeded: srv.deadlineExceeded.Load(),
	}
}
