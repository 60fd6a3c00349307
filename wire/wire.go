// Package wire pins the JSON schema of the trustd HTTP API: every
// request, response, and mutation-op shape the server accepts or emits,
// shared by cmd/trustd's handlers and the typed client package so the two
// can never drift. The types carry no behavior — they are the contract.
//
// Conventions:
//
//   - All keys are lowercase snake_case.
//   - Every successful response carries the epoch that served it: the
//     publication generation of the server's store. A mutation's response
//     epoch is a lower bound for every later read, so read-your-writes is
//     checkable client-side.
//   - Durable servers additionally carry the LSN (log sequence number) of
//     the last durably synced write-ahead-log batch; in-memory servers
//     omit it. A mutation's response LSN, once >= its own batch, proves
//     the write survives a crash.
//   - Errors are an ErrorResponse body with the HTTP status carrying the
//     class: 400 malformed or invalid request (including replication or
//     WAL-stream endpoints on servers that cannot serve them — in-memory
//     stores and sharded clusters), 404 unknown user or object, 405
//     wrong method, 410 WAL stream resumed behind a pruned checkpoint
//     (re-bootstrap from /v1/snapshot), 413 oversized batch or body
//     (Limit names the bound), 429 admission shed (queue full or
//     queue-wait deadline; Retry-After header says when to come back),
//     421 mutation sent to a read replica (Primary and the PrimaryHeader
//     header name where to redirect it), 503 server still recovering its
//     store from disk (retryable, Retry-After header) or request
//     deadline exceeded (no Retry-After — the client chose the budget).
//
// # Schema evolution
//
// SchemaVersion names the current wire schema generation. Decoders on
// both sides MUST tolerate unknown fields (the encoding/json default):
// new servers accept requests from old clients (absent fields zero), and
// old clients keep working against new servers (new response fields are
// ignored). Fields are only ever added, never renamed or repurposed.
package wire

import "fmt"

// SchemaVersion is the current wire schema generation: bumped when a
// field is added anywhere in the schema. Version 2 added durability: the
// OpBatch envelope, LSN on responses, object ops, and the durability
// section of /v1/stats. Version 3 added resilience: the admission
// section of /v1/stats, ErrorResponse.Limit on 413s, and the
// TimeoutHeader request deadline override. Version 4 added replication:
// Health.Role/ReplicaLag, the replication section of /v1/stats,
// PromoteResponse, ErrorResponse.Primary on 421s, and the
// PrimaryHeader/StalenessHeader/LSNHeader response headers. Version 5
// added sharded clusters: Health.Shards, the cluster section of
// /v1/stats (ClusterStats with per-shard epochs/LSNs and conserved op
// counters), the register-roots op (Op.Users), and the ShardOwner
// routing function clients use for shard-aware batching. Version 6
// added the query layer: the Query pattern AST and QueryResponse of
// POST /v1/query, and the query section of /v1/stats (QueryTotals).
const SchemaVersion = 6

// TimeoutHeader is the request header a client sets to override the
// server's default per-request deadline, in integer milliseconds. The
// server caps it at its configured maximum; 0 or absent means the server
// default applies.
const TimeoutHeader = "X-Trustd-Timeout-Ms"

// PrimaryHeader is the response header a replica sets on the 421 it
// answers to mutations (and on PromoteResponse-adjacent errors): the base
// URL of the primary the client should redirect the write to.
const PrimaryHeader = "X-Trustd-Primary"

// StalenessHeader is the response header a replica sets on every
// response: its replication lag as a count of primary-durable WAL batches
// not yet applied locally, measured against the primary's durable LSN as
// of the replica's last stream contact. Absent on a primary.
const StalenessHeader = "X-Trustd-Staleness"

// LSNHeader carries a durable log sequence number on non-JSON endpoints:
// the primary's durable LSN on GET /v1/wal (at stream start) and the
// snapshot's watermark LSN on GET /v1/snapshot.
const LSNHeader = "X-Trustd-LSN"

// UserResult is one user's resolution for one object: the possible values
// over all stable solutions, and the certain value when exactly one.
type UserResult struct {
	Possible []string `json:"possible"`
	Certain  string   `json:"certain,omitempty"`
}

// Health is the GET /healthz response.
type Health struct {
	OK    bool   `json:"ok"`
	Epoch uint64 `json:"epoch"`
	// LSN is the durable log sequence number; zero/omitted on in-memory
	// servers.
	LSN uint64 `json:"lsn,omitempty"`
	// Role is "primary" or "replica"; empty on servers predating schema 4.
	Role string `json:"role,omitempty"`
	// ReplicaLag is the replica's replication lag in WAL batches (see
	// StalenessHeader); always zero/omitted on a primary.
	ReplicaLag uint64 `json:"replica_lag,omitempty"`
	// Shards is the cluster shard count: the topology advertisement a
	// shard-aware client needs to split batches with ShardOwner.
	// Zero/omitted on unsharded servers (and those predating schema 5).
	Shards int `json:"shards,omitempty"`
}

// ResolveRequest is the POST /v1/resolve body: one ad-hoc object's
// resolution. Beliefs overrides the network-level defaults per root;
// Users lists the users to report (at least one).
type ResolveRequest struct {
	Beliefs map[string]string `json:"beliefs,omitempty"`
	Users   []string          `json:"users"`
}

// ResolveResponse answers ResolveRequest.
type ResolveResponse struct {
	Epoch uint64                `json:"epoch"`
	LSN   uint64                `json:"lsn,omitempty"`
	Users map[string]UserResult `json:"users"`
}

// BulkResolveRequest is the POST /v1/bulk-resolve body: many ad-hoc
// objects at once.
type BulkResolveRequest struct {
	Objects map[string]map[string]string `json:"objects"`
	Users   []string                     `json:"users"`
}

// BulkResolveResponse answers BulkResolveRequest.
type BulkResolveResponse struct {
	Epoch   uint64                           `json:"epoch"`
	LSN     uint64                           `json:"lsn,omitempty"`
	Objects map[string]map[string]UserResult `json:"objects"`
}

// Mutation op kinds accepted in a MutateRequest.
const (
	// OpSetTrust upserts a trust mapping (add or re-prioritize).
	OpSetTrust = "set-trust"
	// OpAddTrust adds a trust mapping, failing if it exists.
	OpAddTrust = "add-trust"
	// OpUpdateTrust re-prioritizes a mapping, failing if it is absent.
	OpUpdateTrust = "update-trust"
	// OpRemoveTrust revokes a mapping, failing if it is absent.
	OpRemoveTrust = "remove-trust"
	// OpSetBelief states a user's network-level default belief.
	OpSetBelief = "set-belief"
	// OpRemoveBelief revokes a user's network-level default belief.
	OpRemoveBelief = "remove-belief"
)

// Object op kinds. These appear in the durable store's write-ahead log
// (every mutation is one wire.Op); over HTTP the object endpoints carry
// them instead of /v1/mutate, which stays a trust-network batch.
const (
	// OpPutObject creates or replaces one object's explicit beliefs
	// wholesale (Object, Beliefs).
	OpPutObject = "put-object"
	// OpDeleteObject removes one object and its beliefs (Object).
	OpDeleteObject = "delete-object"
	// OpPutBelief states one user's explicit belief about one object
	// (Object, User, Value).
	OpPutBelief = "put-belief"
	// OpDeleteBelief revokes one user's explicit belief about one object
	// (Object, User).
	OpDeleteBelief = "delete-belief"
)

// OpRegisterRoots declares users whose beliefs vary per object (Users)
// without storing an object that mentions them: the durable form of
// trustmap.Store.AddRoots. A cluster router broadcasts it to every shard
// so the shared spine — trust network, defaults, AND root set — stays
// identical across shards while objects partition. It appears in the
// write-ahead log and is applied on recovery replay; like the object ops
// it is not valid in a /v1/mutate batch.
const OpRegisterRoots = "register-roots"

// Op is one mutation: an element of a POST /v1/mutate batch, and the
// single serializable mutation format of the durable store's write-ahead
// log. Trust ops use Truster, Trusted, and (except removal) Priority;
// network belief ops use User and (for set-belief) Value; object ops use
// Object plus User/Value (per-object beliefs) or Beliefs (wholesale
// put); register-roots uses Users.
type Op struct {
	Op       string            `json:"op"`
	Truster  string            `json:"truster,omitempty"`
	Trusted  string            `json:"trusted,omitempty"`
	Priority int               `json:"priority,omitempty"`
	User     string            `json:"user,omitempty"`
	Value    string            `json:"value,omitempty"`
	Object   string            `json:"object,omitempty"`
	Beliefs  map[string]string `json:"beliefs,omitempty"`
	// Users carries the root names of a register-roots op.
	Users []string `json:"users,omitempty"`
}

// OpBatch is the envelope of one write-ahead-log record: an ordered op
// batch applied atomically, stamped with the schema generation that wrote
// it, the store epoch current when it was logged, and its log sequence
// number (contiguous from 1; the recovery watermark). Decoders tolerate
// unknown fields, so newer writers stay readable by older readers.
type OpBatch struct {
	Schema int    `json:"schema"`
	Epoch  uint64 `json:"epoch"`
	LSN    uint64 `json:"lsn"`
	Ops    []Op   `json:"ops"`
}

// MutateRequest is the POST /v1/mutate body: an ordered op batch applied
// atomically with respect to concurrent readers (one epoch publication).
type MutateRequest struct {
	Ops []Op `json:"ops"`
}

// MutateResponse answers MutateRequest. Applied counts the ops that
// landed; on an error response it appears in ErrorResponse instead.
type MutateResponse struct {
	Epoch   uint64 `json:"epoch"`
	LSN     uint64 `json:"lsn,omitempty"`
	Applied int    `json:"applied"`
}

// ObjectPutRequest is the PUT /v1/objects/{key} body: the object's
// explicit beliefs, replacing any previous ones wholesale. An empty map
// is valid (the object resolves purely from network defaults).
type ObjectPutRequest struct {
	Beliefs map[string]string `json:"beliefs"`
}

// BeliefPutRequest is the PUT /v1/objects/{key}/beliefs/{user} body.
type BeliefPutRequest struct {
	Value string `json:"value"`
}

// ObjectResponse describes one stored object: its explicit beliefs and
// the epoch current when it was read or written.
type ObjectResponse struct {
	Object  string            `json:"object"`
	Beliefs map[string]string `json:"beliefs"`
	Epoch   uint64            `json:"epoch"`
	LSN     uint64            `json:"lsn,omitempty"`
}

// ObjectListResponse is the GET /v1/objects response: stored object keys,
// sorted.
type ObjectListResponse struct {
	Objects []string `json:"objects"`
	Epoch   uint64   `json:"epoch"`
	LSN     uint64   `json:"lsn,omitempty"`
}

// ObjectResolutionResponse is the GET /v1/objects/{key}/resolution
// response: the stored object resolved against the current epoch for the
// requested users.
type ObjectResolutionResponse struct {
	Object string                `json:"object"`
	Epoch  uint64                `json:"epoch"`
	LSN    uint64                `json:"lsn,omitempty"`
	Users  map[string]UserResult `json:"users"`
}

// Predicate comparison operators accepted in Predicate.Op.
const (
	// PredEq keeps rows whose column equals the operand.
	PredEq = "eq"
	// PredNe keeps rows whose column differs from the operand.
	PredNe = "ne"
	// PredLt keeps rows whose column orders before the operand.
	PredLt = "lt"
	// PredLe keeps rows whose column orders before or equals the operand.
	PredLe = "le"
	// PredGt keeps rows whose column orders after the operand.
	PredGt = "gt"
	// PredGe keeps rows whose column orders after or equals the operand.
	PredGe = "ge"
	// PredIn keeps rows whose column equals any element of Values.
	PredIn = "in"
	// PredPrefix keeps rows whose string column starts with the operand.
	PredPrefix = "prefix"
	// PredContains keeps rows whose string-list column contains the
	// operand (the only operator valid on the "possible" column).
	PredContains = "contains"
)

// Aggregate functions accepted in Aggregate.Fn.
const (
	// AggCount counts the rows of the group (no input column).
	AggCount = "count"
	// AggSum sums a numeric (or boolean, as 0/1) column.
	AggSum = "sum"
	// AggAvg averages a numeric (or boolean, as 0/1) column. Decomposes
	// as a (sum, count) pair, so cluster partials merge exactly.
	AggAvg = "avg"
	// AggMin takes the minimum of a numeric or string column.
	AggMin = "min"
	// AggMax takes the maximum of a numeric or string column.
	AggMax = "max"
	// AggRate is the fraction of rows whose boolean column is true —
	// the paper's acceptance rate. Decomposes like AggAvg.
	AggRate = "rate"
)

// Predicate is one comparison in a Query's where/having lists: Col Op
// operand. The operand is Value (scalar: JSON string, bool, or number),
// Values (for "in"), or ColB (compare against another column of the same
// row — e.g. certain vs r_certain across a join). Exactly one of the
// three operand forms may be set, except "eq"/"ne" on boolean columns
// where an absent operand means true.
type Predicate struct {
	Col    string `json:"col"`
	Op     string `json:"op"`
	Value  any    `json:"value,omitempty"`
	Values []any  `json:"values,omitempty"`
	// ColB names a second column to compare against instead of a literal
	// operand (scalar columns only).
	ColB string `json:"col_b,omitempty"`
}

// Aggregate is one aggregate output of a grouped Query: Fn over input
// column Of (omitted for count), emitted as output column As (defaulted
// to "fn" or "fn_of").
type Aggregate struct {
	Fn string `json:"fn"`
	Of string `json:"of,omitempty"`
	As string `json:"as,omitempty"`
}

// OrderKey is one sort key of a Query's order_by list: an output column,
// ascending unless Desc.
type OrderKey struct {
	Col  string `json:"col"`
	Desc bool   `json:"desc,omitempty"`
}

// Join is a Query's optional self-join clause over the resolutions
// relation: rows pair when every On column matches. On must include
// "object" — joins are per-object (comparing users' views of the same
// object), which keeps execution streaming over the key-ordered scan and
// shard-local on a cluster. Where filters the right side before pairing;
// right-side columns appear in the joined row under an "r_" prefix
// (r_user, r_certain, ...).
type Join struct {
	On    []string    `json:"on"`
	Where []Predicate `json:"where,omitempty"`
}

// Query is the POST /v1/query body (wire schema 6): a small pattern AST
// over the "resolutions" relation — one row per (stored object,
// reporting user) at a pinned epoch, with columns
//
//	object, user            row identity
//	certain                 the user's resolved value ("" when not certain)
//	possible                the user's possible values, sorted
//	possible_count          len(possible)
//	has_certain             certain != ""
//	belief                  the user's explicit stated belief ("" when none)
//	has_belief              whether the user stated a belief
//	agrees                  has_belief && has_certain && belief == certain
//	disagrees               has_belief && has_certain && belief != certain
//	conflicted              possible_count > 1
//
// Where filters rows; Join optionally self-joins per object; GroupBy +
// Aggs aggregate (Having filters groups); Select projects output
// columns; OrderBy sorts; Limit caps the row count. The server's greedy
// planner may evaluate predicates in any order — predicates must
// therefore be pure column comparisons, which the AST enforces by
// construction.
type Query struct {
	Where   []Predicate `json:"where,omitempty"`
	Join    *Join       `json:"join,omitempty"`
	GroupBy []string    `json:"group_by,omitempty"`
	Aggs    []Aggregate `json:"aggs,omitempty"`
	Having  []Predicate `json:"having,omitempty"`
	Select  []string    `json:"select,omitempty"`
	OrderBy []OrderKey  `json:"order_by,omitempty"`
	Limit   int         `json:"limit,omitempty"`
}

// QueryStats describes how one query executed: the per-response section
// of QueryResponse, and the per-request increments behind QueryTotals.
type QueryStats struct {
	// RowsScanned counts (object, user) rows generated from the pinned
	// resolution stream before filtering.
	RowsScanned uint64 `json:"rows_scanned"`
	// RowsEmitted counts output rows before any response-size truncation.
	RowsEmitted uint64 `json:"rows_emitted"`
	// Groups counts distinct groups of a grouped query.
	Groups int `json:"groups,omitempty"`
	// KeyLookups counts objects answered by point resolution instead of a
	// scan: the planner extracted an object key-equality pushdown.
	KeyLookups int `json:"key_lookups,omitempty"`
	// PredicatesReordered counts where-predicates the greedy planner
	// hoisted ahead of a predicate written before them.
	PredicatesReordered int `json:"predicates_reordered,omitempty"`
	// EarlyTerminated reports that execution stopped before exhausting
	// its input: an empty key pushdown, or a satisfied limit.
	EarlyTerminated bool `json:"early_terminated,omitempty"`
	// ShardPartials counts per-shard partial aggregations merged into the
	// result on a cluster; zero on single stores and non-aggregate plans.
	ShardPartials int `json:"shard_partials,omitempty"`
}

// QueryResponse answers POST /v1/query: the output columns, the rows in
// deterministic order (explicit order_by, else object/user scan order,
// else group-key order), and how the query ran. Values are JSON strings,
// booleans, numbers, or string arrays, positionally matching Columns.
type QueryResponse struct {
	Epoch uint64 `json:"epoch"`
	LSN   uint64 `json:"lsn,omitempty"`
	// Columns names the output columns, in row order.
	Columns []string `json:"columns"`
	// Rows is the result set; each row is positionally aligned with
	// Columns.
	Rows [][]any `json:"rows"`
	// Truncated reports that the server capped Rows at its batch limit;
	// Stats.RowsEmitted still counts the full result.
	Truncated bool       `json:"truncated,omitempty"`
	Stats     QueryStats `json:"stats"`
}

// QueryTotals is the query section of /v1/stats: cumulative counters
// over every /v1/query served since process start.
type QueryTotals struct {
	Queries             uint64 `json:"queries"`
	RowsScanned         uint64 `json:"rows_scanned"`
	RowsEmitted         uint64 `json:"rows_emitted"`
	PredicatesReordered uint64 `json:"predicates_reordered"`
	EarlyTerminations   uint64 `json:"early_terminations"`
}

// SessionStats is the session section of /v1/stats: the store's plan
// maintenance counters (trustmap.SessionStats is this type).
type SessionStats struct {
	Compiles           int    `json:"compiles"`            // full compiles, including the initial one
	IncrementalApplies int    `json:"incremental_applies"` // mutations folded in through the delta path
	ValueOnlyUpdates   int    `json:"value_only_updates"`  // belief-value changes, free for the plan
	FullRecompiles     int    `json:"full_recompiles"`     // delta applications that hit the threshold
	EpochsReclaimed    uint64 `json:"epochs_reclaimed"`    // retired epochs whose reader count drained
}

// EngineStats is the engine section of /v1/stats: the compiled
// artifact's summary. internal/engine's Stats has the same fields and
// converts to it directly.
type EngineStats struct {
	Users            int `json:"users"`
	Mappings         int `json:"mappings"`
	Roots            int `json:"roots"`
	Reachable        int `json:"reachable"`
	SCCs             int `json:"sccs"`
	NontrivialSCCs   int `json:"nontrivial_sccs"`
	CopySteps        int `json:"copy_steps"`
	FloodSteps       int `json:"flood_steps"`
	DistinctSupports int `json:"distinct_supports"`
}

// StoreStats is the store section of /v1/stats: the object-table and
// result-cache counters.
type StoreStats struct {
	Objects     int    `json:"objects"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
}

// DurabilityStats is the durability section of /v1/stats: the store's
// persistence state and counters (trustmap.DurabilityStats is this
// type). Mode is "memory" for a purely in-memory store (every other
// field zero), otherwise "off", "batch", or "always" naming the fsync
// discipline. All counters are deterministic — ops, batches, fsyncs,
// bytes — so durability overhead is benchmarkable without wall clocks.
type DurabilityStats struct {
	Mode             string `json:"mode"`
	LastLSN          uint64 `json:"last_lsn,omitempty"`          // last logged batch
	DurableLSN       uint64 `json:"durable_lsn,omitempty"`       // last fsynced batch: survives a crash
	SnapshotLSN      uint64 `json:"snapshot_lsn,omitempty"`      // watermark of the newest compacted snapshot
	WALAppends       uint64 `json:"wal_appends,omitempty"`       // batches appended since open
	WALSyncs         uint64 `json:"wal_syncs,omitempty"`         // fsyncs issued since open
	WALBytes         uint64 `json:"wal_bytes,omitempty"`         // framed bytes appended since open
	Checkpoints      uint64 `json:"checkpoints,omitempty"`       // checkpoints completed since open
	RecoveredBatches uint64 `json:"recovered_batches,omitempty"` // WAL batches replayed at open
	ReplayedOps      uint64 `json:"replayed_ops,omitempty"`      // ops applied during recovery replay
	ReplayErrors     uint64 `json:"replay_errors,omitempty"`     // ops that errored during recovery replay
	DiscardedBytes   uint64 `json:"discarded_bytes,omitempty"`   // torn-tail bytes truncated at open
}

// AdmissionClassStats is one admission gate's deterministic counters on
// the wire; internal/admission's Stats has the same fields and converts
// to it directly. Conservation holds:
// admitted + shed + canceled accounts for every request that reached the
// gate.
type AdmissionClassStats struct {
	Admitted      uint64 `json:"admitted"`
	Queued        uint64 `json:"queued,omitempty"`
	Shed          uint64 `json:"shed,omitempty"`
	Canceled      uint64 `json:"canceled,omitempty"`
	MaxQueueDepth int    `json:"max_queue_depth,omitempty"`
	InFlight      int    `json:"in_flight,omitempty"`
	QueueDepth    int    `json:"queue_depth,omitempty"`
}

// AdmissionStats is the admission section of /v1/stats: one counter set
// per request class, plus the deadline-rejection count. Enabled is false
// when the server runs ungated (every request admitted, nothing counted).
type AdmissionStats struct {
	Enabled   bool                `json:"enabled"`
	Reads     AdmissionClassStats `json:"reads"`
	Mutations AdmissionClassStats `json:"mutations"`
	// DeadlineExceeded counts requests answered 503 because their
	// propagated context deadline expired mid-request (distinct from shed:
	// these were admitted and started).
	DeadlineExceeded uint64 `json:"deadline_exceeded,omitempty"`
}

// ReplicationStats is the replication section of /v1/stats. A primary
// reports only Role; a replica reports the tail of its primary's WAL:
// the highest primary-durable LSN it has observed, the apply counters,
// and the lag between the two.
type ReplicationStats struct {
	Role    string `json:"role"`
	Primary string `json:"primary,omitempty"`
	// Connected reports whether the WAL stream to the primary is live.
	Connected bool `json:"connected,omitempty"`
	// LastSeenLSN is the highest primary durable LSN observed on the
	// stream (batches and heartbeats both advance it).
	LastSeenLSN uint64 `json:"last_seen_lsn,omitempty"`
	// Lag = LastSeenLSN - locally applied LSN (floor zero): the batch
	// count behind the primary as of last contact.
	Lag            uint64 `json:"lag,omitempty"`
	AppliedBatches uint64 `json:"applied_batches,omitempty"`
	AppliedOps     uint64 `json:"applied_ops,omitempty"`
	// SkippedBatches counts already-applied duplicates discarded on
	// reconnect overlap — expected, not an error.
	SkippedBatches uint64 `json:"skipped_batches,omitempty"`
	Reconnects     uint64 `json:"reconnects,omitempty"`
	LastError      string `json:"last_error,omitempty"`
}

// ShardStats is one shard's slice of a cluster's /v1/stats: its own
// epoch/LSN watermarks (shards publish and log independently) and the
// deterministic op counters the router conserved onto it.
type ShardStats struct {
	// Index is the shard's position in the routing table: ShardOwner(key,
	// Shards) == Index for every object the shard owns.
	Index int `json:"index"`
	// Objects is the shard's stored-object count.
	Objects int `json:"objects"`
	// Epoch is the shard's current publication generation. Epoch counters
	// are per shard and not comparable across shards.
	Epoch uint64 `json:"epoch"`
	// LSN / DurableLSN are the shard's own WAL watermarks; zero on
	// in-memory shards.
	LSN        uint64 `json:"lsn,omitempty"`
	DurableLSN uint64 `json:"durable_lsn,omitempty"`
	// ObjectOps counts the per-object mutations the router routed to this
	// shard. Conservation: the cluster's RoutedOps equals the sum of
	// ObjectOps over all shards.
	ObjectOps uint64 `json:"object_ops"`
	// CacheHits / CacheMisses are the shard's result-cache counters.
	CacheHits   uint64 `json:"cache_hits,omitempty"`
	CacheMisses uint64 `json:"cache_misses,omitempty"`
}

// ClusterStats is the cluster section of /v1/stats on a sharded server
// (trustd -cluster N): the routing table shape, the conserved router op
// counters, and one ShardStats per shard. Absent on unsharded servers.
type ClusterStats struct {
	// Shards is the shard count of the routing table.
	Shards int `json:"shards"`
	// Hash names the routing scheme; always ShardHash in this schema.
	Hash string `json:"hash"`
	// SpineOps counts the trust-network batches (Router.Mutate, behind
	// /v1/mutate) broadcast to every shard: each batch counts once, not
	// once per shard. Root registrations riding object writes are not
	// counted.
	SpineOps uint64 `json:"spine_ops"`
	// RoutedOps counts per-object mutations routed to exactly one owning
	// shard. Conserved: equal to the sum of per-shard ObjectOps.
	RoutedOps uint64 `json:"routed_ops"`
	// ScatterReads counts scatter-gather reads merged across shards:
	// object listings, bulk resolves, ResolveAll, Resolved streams (which
	// row-plan queries scan), and aggregate-query scatters. Stats reads
	// are not counted.
	ScatterReads uint64 `json:"scatter_reads"`
	// PerShard is one entry per shard, in shard-index order.
	PerShard []ShardStats `json:"per_shard"`
}

// StatsResponse is the GET /v1/stats response: session, store, engine,
// durability, admission, replication, query, and (sharded servers)
// cluster counters of one pinned epoch — on a cluster, of one pinned epoch per
// shard, with the top-level Epoch/LSN the minimum over shards.
type StatsResponse struct {
	Schema      int              `json:"schema,omitempty"`
	Epoch       uint64           `json:"epoch"`
	LSN         uint64           `json:"lsn,omitempty"`
	Session     SessionStats     `json:"session"`
	Store       StoreStats       `json:"store"`
	Engine      EngineStats      `json:"engine"`
	Durability  DurabilityStats  `json:"durability"`
	Admission   AdmissionStats   `json:"admission"`
	Replication ReplicationStats `json:"replication"`
	// Query is the cumulative /v1/query activity (wire schema 6).
	Query QueryTotals `json:"query"`
	// Cluster is present only on sharded servers (wire schema 5).
	Cluster *ClusterStats `json:"cluster,omitempty"`
}

// CheckpointResponse answers POST /v1/admin/checkpoint: the compacted
// snapshot's watermark. Every WAL batch with LSN <= the response LSN is
// folded into the snapshot; the log was rotated behind it.
type CheckpointResponse struct {
	Epoch    uint64 `json:"epoch"`
	LSN      uint64 `json:"lsn"`
	Snapshot string `json:"snapshot"` // snapshot file name inside the data dir
}

// PromoteResponse answers POST /v1/admin/promote: the server's role
// after the call. Promote is idempotent — promoting a primary answers
// 200 with WasReplica false. Promoting a replica stops its WAL tail at
// the reported LSN; any primary-durable batches beyond it must be
// salvaged from the old primary's WAL before the promote (see the
// replication runbook) or they are lost.
type PromoteResponse struct {
	Role string `json:"role"`
	// WasReplica reports whether this call actually changed the role.
	WasReplica bool   `json:"was_replica"`
	Epoch      uint64 `json:"epoch"`
	LSN        uint64 `json:"lsn,omitempty"`
}

// DeleteResponse answers DELETE /v1/objects/{key}: the deleted key and
// the current epoch (deliberately not the remaining key list, which can
// be huge — GET /v1/objects lists keys).
type DeleteResponse struct {
	Deleted string `json:"deleted"`
	Epoch   uint64 `json:"epoch"`
	LSN     uint64 `json:"lsn,omitempty"`
}

// ErrorResponse is the body of every non-2xx response. Applied and Epoch
// are set on failed mutate batches: ops before the failing one were
// applied and published. Limit is set on 413s: the configured bound
// (batch ops or body bytes) the request exceeded, so a client can split
// its batch without guessing.
type ErrorResponse struct {
	Message string `json:"error"`
	Applied int    `json:"applied,omitempty"`
	Epoch   uint64 `json:"epoch,omitempty"`
	Limit   int    `json:"limit,omitempty"`
	// Primary is set on 421 Misdirected Request: the base URL of the
	// primary that accepts mutations (also in the PrimaryHeader header).
	Primary string `json:"primary,omitempty"`
}

// TxApplier is the mutation surface an Op batch applies to. It is
// satisfied by trustmap.StoreTx; keeping it as an interface here lets
// the one op-dispatch live next to the schema without the wire package
// depending on the library.
type TxApplier interface {
	SetTrust(truster, trusted string, priority int) error
	AddTrust(truster, trusted string, priority int) error
	UpdateTrust(truster, trusted string, priority int) (bool, error)
	RemoveTrust(truster, trusted string) (bool, error)
	SetDefault(user, value string) error
	DeleteDefault(user string) error
}

// Apply dispatches one op onto tx with the documented strictness:
// add-trust fails on duplicates, update-trust and remove-trust fail on
// absent mappings, set-trust upserts.
func (op Op) Apply(tx TxApplier) error {
	switch op.Op {
	case OpSetTrust:
		return tx.SetTrust(op.Truster, op.Trusted, op.Priority)
	case OpAddTrust:
		return tx.AddTrust(op.Truster, op.Trusted, op.Priority)
	case OpRemoveTrust:
		ok, err := tx.RemoveTrust(op.Truster, op.Trusted)
		if err == nil && !ok {
			return fmt.Errorf("remove-trust: no mapping %s -> %s", op.Trusted, op.Truster)
		}
		return err
	case OpUpdateTrust:
		ok, err := tx.UpdateTrust(op.Truster, op.Trusted, op.Priority)
		if err == nil && !ok {
			return fmt.Errorf("update-trust: no mapping %s -> %s", op.Trusted, op.Truster)
		}
		return err
	case OpSetBelief:
		return tx.SetDefault(op.User, op.Value)
	case OpRemoveBelief:
		return tx.DeleteDefault(op.User)
	case OpPutObject, OpDeleteObject, OpPutBelief, OpDeleteBelief:
		// Object ops live in the WAL and the object endpoints; a mutate
		// batch is a trust-network transaction and cannot carry them.
		return fmt.Errorf("object op %q is not valid in a mutate batch; use the /v1/objects endpoints", op.Op)
	case OpRegisterRoots:
		// Like the object ops, register-roots lives in the WAL only: it is
		// written by the cluster router's spine broadcast (and replayed on
		// recovery), never submitted through /v1/mutate.
		return fmt.Errorf("op %q is not valid in a mutate batch", op.Op)
	default:
		return fmt.Errorf("unknown mutation op %q", op.Op)
	}
}

// ShardHash names the object-routing scheme of wire schema 5: FNV-1a
// 64-bit over the object key fed into Lamping–Veach jump consistent
// hashing. ClusterStats.Hash carries it so a client can refuse to do
// shard-aware batching against a router speaking a different scheme.
const ShardHash = "fnv1a64-jump"

// ShardOwner maps an object key onto one of shards buckets using the
// ShardHash scheme. It is the routing contract shared by the server-side
// router and shard-aware clients: both MUST agree, which is why it lives
// in wire rather than an internal package. shards <= 1 always returns 0.
//
// Jump consistent hashing (Lamping & Veach, "A Fast, Minimal Memory,
// Consistent Hash Algorithm") keeps the assignment stable under growth:
// going from N to N+1 shards moves only ~1/(N+1) of the keys. The
// implementation is the published algorithm verbatim — a linear
// congruential walk whose last jump inside [0, shards) is the bucket.
func ShardOwner(key string, shards int) int {
	if shards <= 1 {
		return 0
	}
	// Inlined FNV-1a 64 (hash/fnv forces an allocation via the hash.Hash
	// interface; routing sits on the per-op hot path).
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	// Jump consistent hash of h into [0, shards).
	var b int64 = -1
	j := int64(0)
	for j < int64(shards) {
		b = j
		h = h*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((h>>33)+1)))
	}
	return int(b)
}
