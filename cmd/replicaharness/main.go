// Command replicaharness is the replication stack's kill -9 acceptance
// rig: a primary/replica pair under a seeded write storm, the primary
// SIGKILLed mid-storm, the replica manually promoted, and every
// acked-durable LSN required to survive with resolved state identical
// to a deterministic oracle — while the replica's reads keep answering
// 200 with bounded staleness through the whole failover.
//
// The driver (the default mode) spawns this same binary as a killable
// primary child (-mode serve: a durable DurabilityAlways store behind
// the real internal/httpd handler), runs a read replica in-process (an
// internal/replica tailer behind its own handler), and sends the
// internal/storm stream (puts and deletes) through the failover-aware
// client — mutations pinned to the primary, reads load-balanced — one op
// per request, so op i acks at exactly LSN i.
// After -kill-after acks it SIGKILLs the child between requests (so the
// acked-durable frontier is exact), salvages the dead primary's WAL
// tail into the replica (replica.Salvage — the runbook step that closes
// the async-shipping gap to zero), promotes the replica over HTTP, and
// continues the same storm against the new primary: the client rides
// the dead endpoint's connection refusals onto the promoted one. A
// concurrent reader hammers the replica's read endpoints throughout,
// counting post-kill successes and the worst staleness it saw. At the
// end storm.Diff holds the promoted store, and its restart, to
// storm.Oracle's replay of the whole stream.
//
// Output protocol (one line each, acked repeated):
//
//	primary <url>
//	replica <url>
//	acked <lsn>
//	killed <lsn>
//	salvaged <n>
//	promoted <lsn>
//	acked <lsn>
//	parity ok <lsn>
//	reads ok <total> <post-kill> <max-staleness>
//	restart ok <lsn>
//	done
//
// Any violation exits non-zero with a message on stderr. -summary FILE
// appends a markdown run report (for CI step summaries).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"trustmap"
	"trustmap/client"
	"trustmap/internal/httpd"
	"trustmap/internal/replica"
	"trustmap/internal/storm"
	"trustmap/wire"
)

// send applies one storm op through the failover-aware client and
// returns the LSN the fleet acked it at. The client is the transport
// under test, so it gets its own dispatch rather than storm.Apply.
func send(ctx context.Context, c *client.Client, op wire.Op) (uint64, error) {
	switch op.Op {
	case wire.OpPutObject:
		res, err := c.PutObject(ctx, op.Object, op.Beliefs)
		return res.LSN, err
	case wire.OpPutBelief:
		res, err := c.PutBelief(ctx, op.Object, op.User, op.Value)
		return res.LSN, err
	case wire.OpDeleteBelief:
		res, err := c.DeleteBelief(ctx, op.Object, op.User)
		return res.LSN, err
	case wire.OpDeleteObject:
		res, err := c.DeleteObject(ctx, op.Object)
		return res.LSN, err
	default:
		res, err := c.Mutate(ctx, []wire.Op{op})
		return res.LSN, err
	}
}

// serve is the killable primary child: a durable store behind the real
// handler, its base URL announced on stdout, then serve until killed.
func serve(dir, addr string) error {
	st, err := trustmap.OpenStore(dir, trustmap.WithDurability(trustmap.DurabilityAlways))
	if err != nil {
		return err
	}
	h := httpd.New(st, httpd.Config{WALPoll: 5 * time.Millisecond})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("primary http://%s\n", ln.Addr())
	return http.Serve(ln, h)
}

// reader hammers the replica's read endpoints until stopped, requiring
// every response to be a 200 carrying a parseable staleness header.
type reader struct {
	url      string
	stop     chan struct{}
	done     chan struct{}
	total    atomic.Uint64
	postKill atomic.Uint64
	killed   atomic.Bool
	maxStale atomic.Uint64

	mu  sync.Mutex
	err error
}

func (rd *reader) run() {
	defer close(rd.done)
	hc := &http.Client{Timeout: 5 * time.Second}
	for {
		select {
		case <-rd.stop:
			return
		default:
		}
		resp, err := hc.Get(rd.url + "/v1/objects")
		if err == nil {
			staleness := resp.Header.Get(wire.StalenessHeader)
			_ = resp.Body.Close()
			var lag uint64
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("replica read answered %s", resp.Status)
			} else if lag, err = strconv.ParseUint(staleness, 10, 64); err != nil {
				err = fmt.Errorf("replica read staleness header %q: %v", staleness, err)
			}
			if err == nil {
				rd.total.Add(1)
				if rd.killed.Load() {
					rd.postKill.Add(1)
				}
				for {
					cur := rd.maxStale.Load()
					if lag <= cur || rd.maxStale.CompareAndSwap(cur, lag) {
						break
					}
				}
			}
		}
		if err != nil {
			// The staleness header disappears once the replica is promoted:
			// reads after that point only need to keep answering 200.
			if rd.killed.Load() && resp != nil && resp.StatusCode == http.StatusOK {
				rd.total.Add(1)
				rd.postKill.Add(1)
			} else {
				rd.mu.Lock()
				rd.err = err
				rd.mu.Unlock()
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func drive(primaryDir, replicaDir string, seed int64, maxOps, killAfter uint64, summary string) error {
	ctx := context.Background()
	self, err := os.Executable()
	if err != nil {
		return err
	}

	// The killable primary: this same binary in serve mode.
	child := exec.Command(self, "-mode", "serve", "-dir", primaryDir, "-addr", "127.0.0.1:0")
	child.Stderr = os.Stderr
	childOut, err := child.StdoutPipe()
	if err != nil {
		return err
	}
	if err := child.Start(); err != nil {
		return err
	}
	defer func() {
		if child.Process != nil {
			_ = child.Process.Kill()
			_, _ = child.Process.Wait()
		}
	}()
	var primaryURL string
	if _, err := fmt.Fscanf(childOut, "primary %s\n", &primaryURL); err != nil {
		return fmt.Errorf("reading primary address: %w", err)
	}
	go func() { // drain so the child never blocks on a full pipe
		buf := make([]byte, 4096)
		for {
			if _, err := childOut.Read(buf); err != nil {
				return
			}
		}
	}()
	fmt.Printf("primary %s\n", primaryURL)

	// The in-process replica: durable store + tailer + real handler.
	rst, err := trustmap.OpenStore(replicaDir, trustmap.WithDurability(trustmap.DurabilityAlways))
	if err != nil {
		return fmt.Errorf("open replica: %w", err)
	}
	defer rst.Close()
	tail := replica.Start(rst, primaryURL, replica.WithBackoff(5*time.Millisecond, 250*time.Millisecond))
	rh := httpd.New(rst, httpd.Config{WALPoll: 5 * time.Millisecond})
	rh.SetReplication(tail)
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	replicaURL := "http://" + rln.Addr().String()
	go http.Serve(rln, rh) //nolint:errcheck // torn down with the process
	defer rln.Close()
	fmt.Printf("replica %s\n", replicaURL)

	// The failover-aware client under test: mutations pinned to the
	// primary, reads load-balanced, retries riding transport failures
	// onto the next endpoint. RetryMutations is safe here: a retried op
	// that had already applied would fail the LSN check or, for a delete,
	// answer 404 — never pass silently.
	c := client.New(primaryURL, client.WithEndpoints(replicaURL),
		client.WithRetry(client.RetryPolicy{MaxAttempts: 8, BaseDelay: 10 * time.Millisecond, RetryMutations: true, Seed: seed}))

	// The replica-side reader runs through the kill and the promotion.
	rd := &reader{url: replicaURL, stop: make(chan struct{}), done: make(chan struct{})}
	go rd.run()

	ops := storm.Ops(seed, "", int(maxOps))
	for i := uint64(1); i <= killAfter; i++ {
		lsn, err := send(ctx, c, ops[i-1])
		if err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
		if lsn != i {
			return fmt.Errorf("op %d acked at lsn %d: generator produced a no-op", i, lsn)
		}
		fmt.Printf("acked %d\n", lsn)
	}

	// SIGKILL between requests: no in-flight mutation, so the acked-
	// durable frontier is exactly killAfter.
	if err := child.Process.Kill(); err != nil {
		return fmt.Errorf("kill primary: %w", err)
	}
	_, _ = child.Process.Wait()
	child.Process = nil
	rd.killed.Store(true)
	fmt.Printf("killed %d\n", killAfter)

	// Runbook: salvage the dead primary's WAL tail (async shipping may
	// have left the replica a few batches behind the acked frontier),
	// then promote over HTTP. After salvage the replica MUST hold every
	// acked LSN.
	salvaged, err := replica.Salvage(primaryDir, rst)
	if err != nil {
		return fmt.Errorf("salvage: %w", err)
	}
	fmt.Printf("salvaged %d\n", salvaged)
	if got := rst.LSN(); got != killAfter {
		return fmt.Errorf("durability violation: replica at lsn %d after salvage, acked frontier is %d", got, killAfter)
	}
	promoter := client.New(replicaURL)
	pr, err := promoter.Promote(ctx)
	if err != nil {
		return fmt.Errorf("promote: %w", err)
	}
	if !pr.WasReplica || pr.LSN != killAfter {
		return fmt.Errorf("promote = %+v, want was_replica at lsn %d", pr, killAfter)
	}
	fmt.Printf("promoted %d\n", pr.LSN)

	// Continue the same storm: the client's believed primary is dead, so
	// the retry path must walk onto the promoted replica.
	for i := killAfter + 1; i <= maxOps; i++ {
		lsn, err := send(ctx, c, ops[i-1])
		if err != nil {
			return fmt.Errorf("post-promote op %d: %w", i, err)
		}
		if lsn != i {
			return fmt.Errorf("post-promote op %d acked at lsn %d: history diverged across the failover", i, lsn)
		}
		fmt.Printf("acked %d\n", lsn)
	}

	// Oracle parity: the full stream replayed into a fresh in-memory
	// store must resolve identically to the failed-over fleet's state.
	oracle, err := storm.Oracle(ctx, ops)
	if err != nil {
		return err
	}
	if err := storm.Diff(ctx, rst, oracle); err != nil {
		return fmt.Errorf("parity violation at lsn %d: promoted state diverges from oracle: %w", maxOps, err)
	}
	fmt.Printf("parity ok %d\n", maxOps)

	close(rd.stop)
	<-rd.done
	rd.mu.Lock()
	rerr := rd.err
	rd.mu.Unlock()
	if rerr != nil {
		return fmt.Errorf("replica reads: %w", rerr)
	}
	if rd.postKill.Load() == 0 {
		return fmt.Errorf("no successful replica read after the primary died")
	}
	if rd.maxStale.Load() > maxOps {
		return fmt.Errorf("staleness %d exceeds the storm length %d", rd.maxStale.Load(), maxOps)
	}
	fmt.Printf("reads ok %d %d %d\n", rd.total.Load(), rd.postKill.Load(), rd.maxStale.Load())

	// The promoted store is itself durable: close and reopen it.
	rln.Close()
	if err := rst.Close(); err != nil {
		return fmt.Errorf("close promoted store: %w", err)
	}
	again, err := trustmap.OpenStore(replicaDir, trustmap.WithDurability(trustmap.DurabilityAlways))
	if err != nil {
		return fmt.Errorf("reopen promoted store: %w", err)
	}
	defer again.Close()
	if again.LSN() != maxOps {
		return fmt.Errorf("promoted store recovered at lsn %d, want %d", again.LSN(), maxOps)
	}
	if err := storm.Diff(ctx, again, oracle); err != nil {
		return fmt.Errorf("promoted store restart parity: %w", err)
	}
	fmt.Printf("restart ok %d\n", again.LSN())

	if summary != "" {
		md := fmt.Sprintf(`## replicaharness

| metric | value |
|---|---|
| ops acked | %d |
| primary killed after | %d |
| batches salvaged from dead primary | %d |
| replica reads (total / post-kill) | %d / %d |
| max observed staleness (batches) | %d |
| oracle parity | ok |
| promoted-store restart | ok |
`, maxOps, killAfter, salvaged, rd.total.Load(), rd.postKill.Load(), rd.maxStale.Load())
		f, err := os.OpenFile(summary, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.WriteString(md); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Println("done")
	return nil
}

func main() {
	mode := flag.String("mode", "drive", "drive (the full failover scenario) or serve (killable primary child)")
	dir := flag.String("dir", "", "serve mode: durable store directory")
	addr := flag.String("addr", "127.0.0.1:0", "serve mode: listen address")
	primaryDir := flag.String("primary-dir", "", "drive mode: primary data directory (required)")
	replicaDir := flag.String("replica-dir", "", "drive mode: replica data directory (required)")
	seed := flag.Int64("seed", 42, "storm generator seed")
	maxOps := flag.Uint64("max-ops", 300, "total storm ops across the failover")
	killAfter := flag.Uint64("kill-after", 120, "SIGKILL the primary after this many acked ops")
	summary := flag.String("summary", "", "append a markdown run report to this file")
	flag.Parse()

	var err error
	switch *mode {
	case "serve":
		if *dir == "" {
			err = fmt.Errorf("serve mode requires -dir")
		} else {
			err = serve(*dir, *addr)
		}
	case "drive":
		switch {
		case *primaryDir == "" || *replicaDir == "":
			err = fmt.Errorf("drive mode requires -primary-dir and -replica-dir")
		case *killAfter < storm.Preamble+1 || *killAfter >= *maxOps:
			err = fmt.Errorf("-kill-after must be in [%d, max-ops)", storm.Preamble+1)
		default:
			err = drive(*primaryDir, *replicaDir, *seed, *maxOps, *killAfter, *summary)
		}
	default:
		err = fmt.Errorf("unknown -mode %q", *mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "replicaharness:", err)
		os.Exit(1)
	}
}
