package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"trustmap/wire"
)

// clockTick is USER_HZ: the unit of the utime/stime fields of
// /proc/<pid>/stat. Linux fixes it at 100 on every architecture Go runs
// on, whatever the kernel's internal HZ.
const clockTick = 100

// env is where one benchmark invocation lives on disk: the repository
// root (so cmd/trustd can be built) and benchmark/out, which holds the
// binary, the data dirs, trustd's stderr and the trace files.
type env struct {
	root string
	out  string
	bin  string

	mu    sync.Mutex
	procs map[*trustd]struct{}
	dirs  map[string]struct{}
	seq   int
}

// newEnv locates the repository from the working directory (the root
// itself under `go run ./benchmark`, benchmark/ under `go test`).
func newEnv() (*env, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		raw, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(raw)), "module trustmap") {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, errors.New("benchmark: not inside the trustmap module (run from the repository root)")
		}
		dir = parent
	}
	if _, err := os.Stat(filepath.Join(dir, "cmd", "trustd", "main.go")); err != nil {
		return nil, fmt.Errorf("benchmark: cmd/trustd not found under %s: %w", dir, err)
	}
	out := filepath.Join(dir, "benchmark", "out")
	if err := os.MkdirAll(filepath.Join(out, "bin"), 0o755); err != nil {
		return nil, err
	}
	return &env{
		root:  dir,
		out:   out,
		bin:   filepath.Join(out, "bin", "trustd"),
		procs: map[*trustd]struct{}{},
		dirs:  map[string]struct{}{},
	}, nil
}

// buildTrustd compiles cmd/trustd from the checkout. Untimed: it happens
// before any set-up clock starts, and is a no-op link check when the
// binary is current.
func (e *env) buildTrustd() error {
	cmd := exec.Command("go", "build", "-o", e.bin, "./cmd/trustd")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building cmd/trustd: %w\n%s", err, out)
	}
	return nil
}

// tempDir creates a fresh directory under benchmark/out — the repository's
// own filesystem, not $TMPDIR, so fsync hits the device the checkout is on.
func (e *env) tempDir(tag string) (string, error) {
	e.mu.Lock()
	e.seq++
	dir := filepath.Join(e.out, fmt.Sprintf("run-%d-%d-%s", os.Getpid(), e.seq, tag))
	e.dirs[dir] = struct{}{}
	e.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// removeDir deletes one data dir made by tempDir.
func (e *env) removeDir(dir string) {
	os.RemoveAll(dir)
	e.mu.Lock()
	delete(e.dirs, dir)
	e.mu.Unlock()
}

// cleanup kills every child still running and removes every data dir
// still on disk: the one exit path, reached by defer and by the signal
// handler alike, so no orphan trustd skews the next run.
func (e *env) cleanup() {
	e.mu.Lock()
	procs := make([]*trustd, 0, len(e.procs))
	for p := range e.procs {
		procs = append(procs, p)
	}
	dirs := make([]string, 0, len(e.dirs))
	for d := range e.dirs {
		dirs = append(dirs, d)
	}
	e.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	for _, d := range dirs {
		e.removeDir(d)
	}
}

// trustd is one running server subprocess.
type trustd struct {
	e      *env
	cmd    *exec.Cmd
	url    string
	stderr *os.File
	waited chan struct{}
	once   sync.Once
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// start launches trustd on dataDir and returns as soon as the process
// exists; readiness is the caller's to wait for (waitReady), because
// recovery timing needs the exec instant.
func (e *env) start(sp *spec, dataDir, tag string) (*trustd, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(e.out, fmt.Sprintf("trustd-%s-%s.stderr", sp.name, tag)),
		os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	args := []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-data-dir", dataDir,
		"-durability", sp.durability,
		// Admission gates armed far above the client count: the gate code
		// is on the request path, and a shed would be a benchmark failure.
		"-read-limit", "64", "-read-queue", "64",
		"-mutate-limit", "64", "-mutate-queue", "64",
	}
	if sp.cluster > 1 {
		args = append(args, "-cluster", strconv.Itoa(sp.cluster))
	}
	cmd := exec.Command(e.bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The last line of defence against an orphan: if this process dies
	// without running cleanup (SIGKILL, panic), the kernel kills the child.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &trustd{e: e, cmd: cmd, url: fmt.Sprintf("http://127.0.0.1:%d", port), stderr: logf, waited: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting trustd: %w", err)
	}
	e.mu.Lock()
	e.procs[p] = struct{}{}
	e.mu.Unlock()
	go func() {
		_ = cmd.Wait() // the exit status of a killed child carries no information
		close(p.waited)
	}()
	return p, nil
}

// kill SIGKILLs the server and waits until it has ended. Idempotent.
func (p *trustd) kill() {
	p.once.Do(func() {
		_ = p.cmd.Process.Kill() // already-exited is fine
		<-p.waited
		p.stderr.Close()
		p.e.mu.Lock()
		delete(p.e.procs, p)
		p.e.mu.Unlock()
	})
}

// pid is the server's process id.
func (p *trustd) pid() int { return p.cmd.Process.Pid }

// probeClient polls /healthz without the client package's retry layer:
// readiness timing must see every refusal.
var probeClient = &http.Client{Timeout: 2 * time.Second}

// waitReady polls /healthz every millisecond until it answers 200 with at
// least wantLSN logged, and returns the health it saw. A child that exits
// first is an error carrying its stderr.
func (p *trustd) waitReady(ctx context.Context, wantLSN uint64) (wire.Health, error) {
	for {
		select {
		case <-p.waited:
			return wire.Health{}, fmt.Errorf("trustd exited before becoming ready:\n%s", p.stderrTail())
		case <-ctx.Done():
			return wire.Health{}, fmt.Errorf("trustd not ready: %w\n%s", ctx.Err(), p.stderrTail())
		default:
		}
		if h, ok := p.health(); ok && h.LSN >= wantLSN {
			return h, nil
		}
		time.Sleep(time.Millisecond)
	}
}

func (p *trustd) health() (wire.Health, bool) {
	resp, err := probeClient.Get(p.url + "/healthz")
	if err != nil {
		return wire.Health{}, false
	}
	defer resp.Body.Close()
	var h wire.Health
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&h) != nil {
		io.Copy(io.Discard, resp.Body)
		return wire.Health{}, false
	}
	return h, h.OK
}

func (p *trustd) stderrTail() string {
	raw, err := os.ReadFile(p.stderr.Name())
	if err != nil {
		return ""
	}
	if len(raw) > 2048 {
		raw = raw[len(raw)-2048:]
	}
	return string(raw)
}

// cpuTicks reads utime+stime of pid in clock ticks.
func cpuTicks(pid int) (uint64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(raw))
}

// parseStatCPU extracts utime+stime from one /proc/<pid>/stat line. The
// command name (field 2) may itself contain spaces and parentheses, so
// fields are counted from the last ')'.
func parseStatCPU(line string) (uint64, error) {
	i := strings.LastIndexByte(line, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(line[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return utime + stime, nil
}

// statusKB reads one kB field of /proc/<pid>/status: VmRSS, the current
// resident set, or VmHWM, its high-water mark.
func statusKB(pid int, field string) (uint64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusKB(string(raw), field)
}

// parseStatusKB extracts one "<field>: <n> kB" line of /proc/<pid>/status.
func parseStatusKB(status, field string) (uint64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, field+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed %s line %q", field, line)
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", field)
}

// copyTree copies a data dir byte for byte. Each recovery runs on its own
// copy: recovery may heal a torn tail in place, and the next one must
// start from the same bytes.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// snapshotFiles maps every snapshot file under a data dir (one store, or
// one per shard) to its size.
func snapshotFiles(dataDir string) (map[string]int64, error) {
	files := map[string]int64{}
	err := filepath.WalkDir(dataDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || filepath.Base(filepath.Dir(path)) != "snapshots" {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		files[path] = info.Size()
		return nil
	})
	return files, err
}

// fsType names the filesystem holding path (from /proc/mounts: the
// longest mount point that prefixes it).
func fsType(path string) string {
	raw, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (path == mp || strings.HasPrefix(path, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}

// runMeta is what a reader needs to judge whether two runs are
// comparable.
type runMeta struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Filesystem string `json:"filesystem"`
	Commit     string `json:"git_commit"`
}

func (e *env) meta() runMeta {
	m := runMeta{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		Filesystem: fsType(e.out),
		Commit:     "unknown",
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(raw))
	}
	// The driver's checkout is not a git repository; the ceiling keeps git
	// from adopting some unrelated repository above it.
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = e.root
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(e.root))
	if out, err := cmd.Output(); err == nil {
		m.Commit = string(bytes.TrimSpace(out))
	}
	return m
}
