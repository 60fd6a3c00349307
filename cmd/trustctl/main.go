// Command trustctl resolves a trust network described in a JSON file and
// prints every user's possible and certain values, with optional lineage,
// agreement analysis, and constraint-aware (Skeptic) resolution.
//
// Usage:
//
//	trustctl -f network.json [-skeptic] [-pairs] [-lineage user=value]
//	trustctl bulk-par -f network.json -objects objects.json [-workers N] [-users a,b]
//	trustctl session -f network.json -objects objects.json -mutations muts.json [-workers N] [-users a,b]
//	trustctl query -f network.json -objects objects.json -q query.json [-naive]
//	trustctl remote -addr http://host:7171 <verb> [flags]
//
// Network file format:
//
//	{
//	  "trust":       [{"truster": "Alice", "trusted": "Bob", "priority": 100}],
//	  "beliefs":     {"Bob": "fish", "Charlie": "knot"},
//	  "constraints": {"Dan": ["cow", "jar"]}
//	}
//
// The bulk-par subcommand resolves many objects over one network on the
// compiled concurrent engine (Section 4). Its objects file maps object
// keys to the root users' explicit beliefs:
//
//	{
//	  "obj1": {"Bob": "fish", "Charlie": "knot"},
//	  "obj2": {"Bob": "cow",  "Charlie": "cow"}
//	}
//
// The session subcommand demonstrates the live lifecycle on a
// trustmap.Store: it compiles the network once, stores and resolves the
// objects, folds a mutation script into the compiled artifact through the
// incremental delta path, and resolves again — re-resolving only what the
// mutations touched. The mutations file is an ordered op list in the wire
// schema:
//
//	[
//	  {"op": "remove-trust", "truster": "Alice", "trusted": "Bob"},
//	  {"op": "add-trust", "truster": "Alice", "trusted": "Dan", "priority": 30},
//	  {"op": "update-trust", "truster": "Alice", "trusted": "Charlie", "priority": 10},
//	  {"op": "set-belief", "user": "Dan", "value": "cow"},
//	  {"op": "remove-belief", "user": "Charlie"}
//	]
//
// The query subcommand runs a relational query pattern (wire.Query,
// the same AST POST /v1/query accepts) over the resolved beliefs of a
// local network + objects pair and prints the result table. -q takes a
// JSON file, or the pattern inline when the argument starts with '{':
//
//	trustctl query -f network.json -objects objects.json \
//	  -q '{"where":[{"col":"disagrees","op":"eq"}],"group_by":["object"],"aggs":[{"fn":"count"}]}'
//
// -naive skips the greedy predicate reordering (plans predicates in
// written order) — useful for comparing plans; results are identical.
//
// The remote subcommand drives a running trustd server through the typed
// client package (the same wire schema the server speaks):
//
//	trustctl remote -addr URL stats
//	trustctl remote -addr URL objects
//	trustctl remote -addr URL put-object -key o1 -beliefs Bob=fish,Charlie=knot
//	trustctl remote -addr URL resolve-object -key o1 -users Alice,Bob
//	trustctl remote -addr URL resolve -users Alice [-beliefs Bob=cow]
//	trustctl remote -addr URL query -q query.json
//	trustctl remote -addr URL mutate -f muts.json
//	trustctl remote -addr URL checkpoint
//	trustctl remote -addr REPLICA_URL promote
//
// -addr also accepts a comma-separated fleet for a replicated
// deployment (reads load-balance across endpoints, mutations follow the
// primary through 421 redirects), and -retry N arms N-attempt failover
// retries:
//
//	trustctl remote -addr http://p:7171,http://r1:7171 -retry 4 resolve -users Alice
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"trustmap"
	"trustmap/client"
	"trustmap/internal/query"
	"trustmap/wire"
)

type networkFile struct {
	Trust []struct {
		Truster  string `json:"truster"`
		Trusted  string `json:"trusted"`
		Priority int    `json:"priority"`
	} `json:"trust"`
	Beliefs     map[string]string   `json:"beliefs"`
	Constraints map[string][]string `json:"constraints"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "session" {
		fs := flag.NewFlagSet("session", flag.ExitOnError)
		file := fs.String("f", "", "network JSON file (required)")
		objects := fs.String("objects", "", "objects JSON file (required)")
		mutations := fs.String("mutations", "", "mutation script JSON file (required)")
		workers := fs.Int("workers", 0, "concurrent workers (0 = GOMAXPROCS)")
		users := fs.String("users", "", "comma-separated users to report (default: all)")
		fs.Parse(os.Args[2:])
		if *file == "" || *objects == "" || *mutations == "" {
			fs.Usage()
			os.Exit(2)
		}
		if err := runSession(os.Stdout, *file, *objects, *mutations, *workers, *users); err != nil {
			fmt.Fprintln(os.Stderr, "trustctl:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "query" {
		fs := flag.NewFlagSet("query", flag.ExitOnError)
		file := fs.String("f", "", "network JSON file (required)")
		objects := fs.String("objects", "", "objects JSON file (required)")
		qArg := fs.String("q", "", "query pattern: a JSON file, or inline JSON starting with '{' (required)")
		naive := fs.Bool("naive", false, "plan predicates in written order (skip greedy reordering)")
		workers := fs.Int("workers", 0, "concurrent workers (0 = GOMAXPROCS)")
		fs.Parse(os.Args[2:])
		if *file == "" || *objects == "" || *qArg == "" {
			fs.Usage()
			os.Exit(2)
		}
		if err := runQuery(os.Stdout, *file, *objects, *qArg, *naive, *workers); err != nil {
			fmt.Fprintln(os.Stderr, "trustctl:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "remote" {
		if err := runRemote(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "trustctl:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "bulk-par" {
		fs := flag.NewFlagSet("bulk-par", flag.ExitOnError)
		file := fs.String("f", "", "network JSON file (required)")
		objects := fs.String("objects", "", "objects JSON file (required)")
		workers := fs.Int("workers", 0, "concurrent workers (0 = GOMAXPROCS)")
		users := fs.String("users", "", "comma-separated users to report (default: all)")
		fs.Parse(os.Args[2:])
		if *file == "" || *objects == "" {
			fs.Usage()
			os.Exit(2)
		}
		if err := runBulkPar(os.Stdout, *file, *objects, *workers, *users); err != nil {
			fmt.Fprintln(os.Stderr, "trustctl:", err)
			os.Exit(1)
		}
		return
	}
	file := flag.String("f", "", "network JSON file (required)")
	skeptic := flag.Bool("skeptic", false, "resolve with constraints under the Skeptic paradigm")
	pairs := flag.Bool("pairs", false, "print agreement analysis (possible pairs)")
	lineage := flag.String("lineage", "", "explain a value: user=value")
	flag.Parse()
	if *file == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, *file, *skeptic, *pairs, *lineage); err != nil {
		fmt.Fprintln(os.Stderr, "trustctl:", err)
		os.Exit(1)
	}
}

// runBulkPar resolves the objects file over the network file on the
// compiled concurrent engine and prints one row per (object, user).
func runBulkPar(w io.Writer, netFile, objFile string, workers int, users string) error {
	n, err := loadNetwork(netFile)
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(objFile)
	if err != nil {
		return err
	}
	var objects map[string]map[string]string
	if err := json.Unmarshal(raw, &objects); err != nil {
		return fmt.Errorf("parsing %s: %w", objFile, err)
	}
	st, err := n.NewStore(trustmap.WithWorkers(workers), trustmap.WithExtraRoots(objectUsers(objects)...))
	if err != nil {
		return err
	}
	rows, err := st.ResolveBatch(context.Background(), objects)
	if err != nil {
		return err
	}
	report, err := reportUsers(st.Users(), users)
	if err != nil {
		return err
	}
	printBulkTable(w, rows, report)
	printDedupLine(w, st.Stats().Dedup)
	return nil
}

// objectUsers lists every user mentioned by the objects, sorted: the
// roots a store must declare before resolving them.
func objectUsers(objects map[string]map[string]string) []string {
	seen := map[string]bool{}
	for _, bs := range objects {
		for user := range bs {
			seen[user] = true
		}
	}
	out := make([]string, 0, len(seen))
	for user := range seen {
		out = append(out, user)
	}
	sort.Strings(out)
	return out
}

// printDedupLine summarizes what signature deduplication did for the
// store's batches.
func printDedupLine(w io.Writer, st trustmap.DedupStats) {
	if st.Objects == 0 {
		return
	}
	fmt.Fprintf(w, "\ndedup: %d objects -> %d distinct signatures\n", st.Objects, st.DistinctSignatures)
}

// runSession compiles the network once into a store, stores and resolves
// the objects, applies the mutation script through the incremental
// maintenance path, and resolves again.
func runSession(w io.Writer, netFile, objFile, mutFile string, workers int, users string) error {
	n, err := loadNetwork(netFile)
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(objFile)
	if err != nil {
		return err
	}
	var objects map[string]map[string]string
	if err := json.Unmarshal(raw, &objects); err != nil {
		return fmt.Errorf("parsing %s: %w", objFile, err)
	}
	raw, err = os.ReadFile(mutFile)
	if err != nil {
		return err
	}
	var muts []wire.Op
	if err := json.Unmarshal(raw, &muts); err != nil {
		return fmt.Errorf("parsing %s: %w", mutFile, err)
	}
	ctx := context.Background()
	st, err := n.NewStore(trustmap.WithWorkers(workers))
	if err != nil {
		return err
	}
	for _, key := range sortedKeys(objects) {
		if err := st.PutObject(ctx, key, objects[key]); err != nil {
			return err
		}
	}
	report, err := reportUsers(st.Users(), users)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== before mutations ==")
	rows, err := st.ResolveAll(ctx)
	if err != nil {
		return err
	}
	printBulkTable(w, rows, report)
	// The whole script lands as one batch: a single epoch publication and
	// one delta application, like trustd's mutate endpoint.
	if err := st.Update(func(tx *trustmap.StoreTx) error {
		for i, m := range muts {
			if err := m.Apply(tx); err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n== after %d mutations ==\n", len(muts))
	rows, err = st.ResolveAll(ctx)
	if err != nil {
		return err
	}
	printBulkTable(w, rows, report)
	sst := st.Stats()
	fmt.Fprintf(w, "\nstore: epoch %d, %d compile(s), %d incremental applies, %d value-only updates, %d threshold recompiles, %d/%d cache hits/misses\n",
		sst.Epoch, sst.Compiles, sst.IncrementalApplies, sst.ValueOnlyUpdates, sst.FullRecompiles, sst.CacheHits, sst.CacheMisses)
	return nil
}

// runQuery stores the objects over the network and runs one query
// pattern on the resolved-belief relation, printing the result table
// and the planner/executor stats line.
func runQuery(w io.Writer, netFile, objFile, qArg string, naive bool, workers int) error {
	n, err := loadNetwork(netFile)
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(objFile)
	if err != nil {
		return err
	}
	var objects map[string]map[string]string
	if err := json.Unmarshal(raw, &objects); err != nil {
		return fmt.Errorf("parsing %s: %w", objFile, err)
	}
	q, err := readQueryArg(qArg)
	if err != nil {
		return err
	}
	ctx := context.Background()
	st, err := n.NewStore(trustmap.WithWorkers(workers), trustmap.WithExtraRoots(objectUsers(objects)...))
	if err != nil {
		return err
	}
	for _, key := range sortedKeys(objects) {
		if err := st.PutObject(ctx, key, objects[key]); err != nil {
			return err
		}
	}
	compile := query.Compile
	if naive {
		compile = query.CompileNaive
	}
	plan, err := compile(q)
	if err != nil {
		return err
	}
	res, err := query.Run(ctx, st, plan)
	if err != nil {
		return err
	}
	printQueryTable(w, res.Columns, res.Rows)
	s := res.Stats
	fmt.Fprintf(w, "\nquery: %d rows scanned, %d emitted, %d groups, %d key lookups, %d predicates reordered, early-terminated=%v (epoch %d)\n",
		s.RowsScanned, s.RowsEmitted, s.Groups, s.KeyLookups, s.PredicatesReordered, s.EarlyTerminated, res.Epoch)
	return nil
}

// readQueryArg parses -q: inline JSON when the argument starts with
// '{', otherwise the path of a query JSON file.
func readQueryArg(s string) (wire.Query, error) {
	var q wire.Query
	raw := []byte(s)
	if !strings.HasPrefix(strings.TrimSpace(s), "{") {
		var err error
		raw, err = os.ReadFile(s)
		if err != nil {
			return q, err
		}
	}
	if err := json.Unmarshal(raw, &q); err != nil {
		return q, fmt.Errorf("parsing query: %w", err)
	}
	return q, nil
}

// printQueryTable prints a query result with one header row.
func printQueryTable(w io.Writer, columns []string, rows [][]any) {
	for i, col := range columns {
		if i > 0 {
			fmt.Fprint(w, "  ")
		}
		fmt.Fprintf(w, "%-16s", col)
	}
	fmt.Fprintln(w)
	for _, vals := range rows {
		for i, v := range vals {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-16s", formatCell(v))
		}
		fmt.Fprintln(w)
	}
}

// formatCell renders one query result value for the table printer.
func formatCell(v any) string {
	switch t := v.(type) {
	case nil:
		return "-"
	case string:
		return orDash(t)
	case []string:
		return orDash(strings.Join(t, ","))
	case []any: // a string list after a JSON round-trip
		parts := make([]string, len(t))
		for i, e := range t {
			parts[i] = fmt.Sprint(e)
		}
		return orDash(strings.Join(parts, ","))
	case float64:
		return strconv.FormatFloat(t, 'g', -1, 64)
	}
	return fmt.Sprint(v)
}

// clientRows flattens typed client rows back to positional values for
// the table printer.
func clientRows(columns []string, rows []client.QueryRow) [][]any {
	out := make([][]any, len(rows))
	for i, r := range rows {
		vals := make([]any, len(columns))
		for j, col := range columns {
			vals[j], _ = r.Value(col)
		}
		out[i] = vals
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// reportUsers resolves the -users flag against the store's sorted user
// list, all.
func reportUsers(all []string, users string) ([]string, error) {
	if users == "" {
		return all, nil
	}
	known := make(map[string]bool, len(all))
	for _, u := range all {
		known[u] = true
	}
	var report []string
	for _, u := range strings.Split(users, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		if !known[u] {
			return nil, fmt.Errorf("-users: unknown user %q", u)
		}
		report = append(report, u)
	}
	if len(report) == 0 {
		return nil, fmt.Errorf("-users: no user names in %q", users)
	}
	return report, nil
}

// printBulkTable prints one row per (object, user).
func printBulkTable(w io.Writer, rows []trustmap.ObjectRow, report []string) {
	fmt.Fprintf(w, "%-16s %-16s %-24s %s\n", "object", "user", "possible", "certain")
	for _, row := range rows {
		for _, u := range report {
			poss, cert, _ := row.Lookup(u)
			fmt.Fprintf(w, "%-16s %-16s %-24s %s\n", row.Object, u, strings.Join(poss, ","), orDash(cert))
		}
	}
}

// loadNetwork builds a trustmap.Network from a network JSON file.
func loadNetwork(file string) (*trustmap.Network, error) {
	raw, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var nf networkFile
	if err := json.Unmarshal(raw, &nf); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", file, err)
	}
	n := trustmap.New()
	for _, t := range nf.Trust {
		n.AddTrust(t.Truster, t.Trusted, t.Priority)
	}
	for user, v := range nf.Beliefs {
		n.SetBelief(user, v)
	}
	for user, rejected := range nf.Constraints {
		n.SetConstraint(user, rejected...)
	}
	return n, nil
}

func run(w io.Writer, file string, skeptic, pairs bool, lineage string) error {
	n, err := loadNetwork(file)
	if err != nil {
		return err
	}

	if skeptic {
		s, err := n.ResolveSkeptic()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-16s %-24s %-12s %s\n", "user", "possible+", "certain+", "belief sets")
		for _, u := range n.Users() {
			cert, _ := s.Certain(u)
			fmt.Fprintf(w, "%-16s %-24s %-12s %s\n", u,
				strings.Join(s.Possible(u), ","), orDash(cert),
				strings.Join(s.Describe(u), " | "))
		}
		return nil
	}

	r, err := n.Resolve()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-16s %-24s %s\n", "user", "possible", "certain")
	for _, u := range n.Users() {
		cert, _ := r.Certain(u)
		fmt.Fprintf(w, "%-16s %-24s %s\n", u, strings.Join(r.Possible(u), ","), orDash(cert))
	}

	if lineage != "" {
		parts := strings.SplitN(lineage, "=", 2)
		if len(parts) != 2 {
			return fmt.Errorf("-lineage wants user=value, got %q", lineage)
		}
		path, ok := r.Lineage(parts[0], parts[1])
		if !ok {
			fmt.Fprintf(w, "\n%q is not a possible value for %s\n", parts[1], parts[0])
		} else {
			fmt.Fprintf(w, "\nlineage of %s=%s: %s\n", parts[0], parts[1], strings.Join(path, " -> "))
		}
	}

	if pairs {
		c, err := n.AnalyzeConflicts()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "\nagreeing pairs (equal in every stable solution):")
		agr := c.AgreeingPairs()
		sort.Slice(agr, func(i, j int) bool { return agr[i][0]+agr[i][1] < agr[j][0]+agr[j][1] })
		for _, p := range agr {
			fmt.Fprintf(w, "  %s == %s\n", p[0], p[1])
		}
		if len(agr) == 0 {
			fmt.Fprintln(w, "  (none)")
		}
	}
	return nil
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// runRemote drives a running trustd server — or a replicated fleet of
// them — through the typed client.
func runRemote(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("remote", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:7171", "trustd base URL, or a comma-separated fleet (first = admin/promote target; reads load-balance, mutations follow the primary)")
	retries := fs.Int("retry", 0, "retry attempts per call (including the first); >1 arms failover across -addr endpoints")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), `Usage: trustctl remote [flags] VERB [verb flags]

Verbs:
  stats                                    server/cluster counters (/v1/stats)
  objects                                  list stored object keys
  put-object     -key K -beliefs u=v,...   create or replace one object
  resolve-object -key K -users u1,u2       resolve one stored object
  resolve        -users u1,u2 [-beliefs]   resolve an ad-hoc object
  query          -q FILE|'{json}'          run a relational query (/v1/query)
  mutate         -f ops.json               apply a wire op batch
  checkpoint                               compact the WAL
  promote                                  make a replica the primary
                                           (targets the FIRST -addr endpoint)

-addr takes one base URL or a comma-separated fleet, e.g.
-addr http://replica:7172,http://primary:7171 — reads load-balance
across endpoints, mutations follow the primary via 421 redirects, and
admin verbs (promote, checkpoint) hit the first endpoint only.

Flags:
`)
		fs.PrintDefaults()
	}
	fs.Parse(args)
	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf("remote: a verb is required (stats, objects, put-object, resolve-object, resolve, query, mutate, checkpoint, promote)")
	}
	endpoints := strings.Split(*addr, ",")
	opts := []client.Option{client.WithEndpoints(endpoints[1:]...)}
	if *retries > 1 {
		opts = append(opts, client.WithRetry(client.RetryPolicy{MaxAttempts: *retries}))
	}
	c := client.New(endpoints[0], opts...)
	ctx := context.Background()
	verb, verbArgs := rest[0], rest[1:]
	vfs := flag.NewFlagSet("remote "+verb, flag.ExitOnError)
	key := vfs.String("key", "", "object key")
	users := vfs.String("users", "", "comma-separated users to report")
	beliefs := vfs.String("beliefs", "", "comma-separated user=value pairs")
	file := vfs.String("f", "", "mutation script JSON file (wire op list)")
	qArg := vfs.String("q", "", "query pattern: a JSON file, or inline JSON starting with '{'")
	vfs.Parse(verbArgs)

	switch verb {
	case "stats":
		st, err := c.Stats(ctx)
		if err != nil {
			return err
		}
		return printJSON(w, st)
	case "objects":
		lst, err := c.ListObjects(ctx)
		if err != nil {
			return err
		}
		return printJSON(w, lst)
	case "put-object":
		if *key == "" {
			return fmt.Errorf("remote put-object: -key is required")
		}
		bs, err := parseBeliefs(*beliefs)
		if err != nil {
			return err
		}
		obj, err := c.PutObject(ctx, *key, bs)
		if err != nil {
			return err
		}
		return printJSON(w, obj)
	case "resolve-object":
		if *key == "" || *users == "" {
			return fmt.Errorf("remote resolve-object: -key and -users are required")
		}
		res, err := c.ResolveObject(ctx, *key, strings.Split(*users, ","))
		if err != nil {
			return err
		}
		return printJSON(w, res)
	case "resolve":
		if *users == "" {
			return fmt.Errorf("remote resolve: -users is required")
		}
		bs, err := parseBeliefs(*beliefs)
		if err != nil {
			return err
		}
		res, err := c.Resolve(ctx, bs, strings.Split(*users, ","))
		if err != nil {
			return err
		}
		return printJSON(w, res)
	case "query":
		if *qArg == "" {
			return fmt.Errorf("remote query: -q is required (a query JSON file, or inline JSON)")
		}
		q, err := readQueryArg(*qArg)
		if err != nil {
			return err
		}
		res, err := c.Query(ctx, q)
		if err != nil {
			return err
		}
		printQueryTable(w, res.Columns, clientRows(res.Columns, res.Rows))
		s := res.Stats
		fmt.Fprintf(w, "\nquery: %d rows scanned, %d emitted, %d groups, %d shard partials, %d predicates reordered, early-terminated=%v, truncated=%v (epoch %d, lsn %d)\n",
			s.RowsScanned, s.RowsEmitted, s.Groups, s.ShardPartials, s.PredicatesReordered, s.EarlyTerminated, res.Truncated, res.Epoch, res.LSN)
		return nil
	case "checkpoint":
		ck, err := c.Checkpoint(ctx)
		if err != nil {
			return err
		}
		return printJSON(w, ck)
	case "promote":
		// Targets the first -addr endpoint: point it at the replica being
		// promoted (see the replication runbook in the README).
		pr, err := c.Promote(ctx)
		if err != nil {
			return err
		}
		return printJSON(w, pr)
	case "mutate":
		if *file == "" {
			return fmt.Errorf("remote mutate: -f is required")
		}
		raw, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		var ops []wire.Op
		if err := json.Unmarshal(raw, &ops); err != nil {
			return fmt.Errorf("parsing %s: %w", *file, err)
		}
		res, err := c.Mutate(ctx, ops)
		if err != nil {
			return err
		}
		return printJSON(w, res)
	default:
		return fmt.Errorf("remote: unknown verb %q", verb)
	}
}

// parseBeliefs parses "user=value,user=value" pairs.
func parseBeliefs(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]string{}
	for _, pair := range strings.Split(s, ",") {
		user, value, ok := strings.Cut(pair, "=")
		if !ok || user == "" || value == "" {
			return nil, fmt.Errorf("-beliefs wants user=value pairs, got %q", pair)
		}
		out[user] = value
	}
	return out, nil
}

func printJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
