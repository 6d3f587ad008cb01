package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"sdfm/internal/controlplane"
	"sdfm/internal/fleet"
	"sdfm/internal/telemetry"
	"sdfm/internal/tuner"
)

// binDir holds the sdfmd binary that the subprocess tests share, built
// once per package run on first use.
var (
	binDir  string
	binOnce sync.Once
	binErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// binary returns the path of the built daemon, building it on first use.
func binary(t *testing.T) string {
	t.Helper()
	binOnce.Do(func() {
		if binDir, binErr = os.MkdirTemp("", "sdfmd-test-"); binErr != nil {
			return
		}
		if out, err := exec.Command("go", "build", "-o", filepath.Join(binDir, "sdfmd"), ".").CombinedOutput(); err != nil {
			binErr = fmt.Errorf("building sdfmd: %v\n%s", err, out)
		}
	})
	if binErr != nil {
		t.Fatal(binErr)
	}
	return filepath.Join(binDir, "sdfmd")
}

// daemon is one sdfmd boot under test, either run in-process or the
// built binary in a child process: the address it announced, its
// collected stderr, and how it ended.
type daemon struct {
	t         *testing.T
	addr      string
	stop      func()      // the graceful path: cancel run's context, or SIGTERM
	proc      *os.Process // nil in-process
	done      chan struct{}
	err       error // how it ended, once done is closed
	mu        sync.Mutex
	buf       bytes.Buffer
	announced bool
	ready     chan string
}

// startDaemon boots run in-process on a free loopback port.
func startDaemon(t *testing.T, args ...string) *daemon {
	ctx, cancel := context.WithCancel(context.Background())
	d := newDaemon(t, cancel)
	go func() {
		d.err = run(ctx, append([]string{"-addr=127.0.0.1:0"}, args...), d)
		close(d.done)
	}()
	return d.waitReady()
}

// execDaemon boots the built binary on a free loopback port.
func execDaemon(t *testing.T, args ...string) *daemon {
	cmd := exec.Command(binary(t), append([]string{"-addr=127.0.0.1:0"}, args...)...)
	// A failed signal means the process is gone already; Wait says how.
	d := newDaemon(t, func() { _ = cmd.Process.Signal(syscall.SIGTERM) })
	cmd.Stderr = d
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting sdfmd: %v", err)
	}
	d.proc = cmd.Process
	go func() {
		d.err = cmd.Wait() // returns once the process exited and its stderr is copied
		close(d.done)
	}()
	return d.waitReady()
}

func newDaemon(t *testing.T, stop func()) *daemon {
	d := &daemon{t: t, stop: stop, done: make(chan struct{}), ready: make(chan string, 1)}
	t.Cleanup(func() {
		if d.proc != nil {
			d.proc.Kill()
		}
		d.stop()
		<-d.done
	})
	return d
}

// Write collects the daemon's stderr and passes on the address that its
// "listening on" line announces.
func (d *daemon) Write(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.buf.Write(p)
	if !d.announced {
		if _, rest, ok := strings.Cut(d.buf.String(), "listening on "); ok {
			if addr, _, ok := strings.Cut(rest, " "); ok {
				d.ready <- addr
				d.announced = true
			}
		}
	}
	return len(p), nil
}

func (d *daemon) waitReady() *daemon {
	d.t.Helper()
	select {
	case d.addr = <-d.ready:
	case <-d.done:
		d.t.Fatalf("daemon exited before announcing its listen address: %v\n%s", d.err, d.log())
	case <-time.After(10 * time.Second):
		d.t.Fatal("daemon never announced its listen address")
	}
	return d
}

// log returns the daemon's stderr collected so far.
func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.buf.String()
}

// wait returns how the daemon ended and its complete log.
func (d *daemon) wait() (string, error) {
	d.t.Helper()
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		d.t.Fatal("daemon did not exit within 15s of being stopped")
	}
	return d.log(), d.err
}

// genTrace generates a one-cluster fleet trace at 5-minute intervals.
func genTrace(t *testing.T, machines, jobs int, span time.Duration, seed int64) *telemetry.Trace {
	t.Helper()
	tr, err := fleet.Generate(fleet.Config{Clusters: 1, MachinesPerCluster: machines, JobsPerMachine: jobs,
		Duration: span, Interval: 5 * time.Minute, Seed: seed})
	if err != nil {
		t.Fatalf("fleet.Generate: %v", err)
	}
	return tr
}

// shutdown stops the daemon the graceful way and waits for it.
func (d *daemon) shutdown() (string, error) {
	d.t.Helper()
	d.stop()
	return d.wait()
}

// kill SIGKILLs the child process, the crash under test, and reaps it.
func (d *daemon) kill() {
	d.t.Helper()
	if err := d.proc.Kill(); err != nil {
		d.t.Fatal(err)
	}
	<-d.done
}

func TestParseStages(t *testing.T) {
	stages, err := parseStages("canary=0.01, early=0.1,fleet=1")
	if err != nil {
		t.Fatalf("parseStages: %v", err)
	}
	want := []tuner.RolloutStage{
		{Name: "canary", Fraction: 0.01},
		{Name: "early", Fraction: 0.1},
		{Name: "fleet", Fraction: 1},
	}
	if len(stages) != len(want) {
		t.Fatalf("stages = %+v, want %+v", stages, want)
	}
	for i := range want {
		if stages[i] != want[i] {
			t.Errorf("stage %d = %+v, want %+v", i, stages[i], want[i])
		}
	}
	if got, err := parseStages(""); err != nil || got != nil {
		t.Errorf("empty spec = %+v, %v; want nil, nil (controller defaults)", got, err)
	}
	for _, bad := range []string{"canary", "canary=", "canary=0", "canary=1.5", "canary=x", "canary=0.5,fleet=0.1"} {
		if _, err := parseStages(bad); err == nil {
			t.Errorf("parseStages(%q) accepted", bad)
		}
	}
}

// TestHTTPServerBoundsReads pins the slow-client defence: the server
// main serves with gives up on a request line, a body, or an idle
// keep-alive connection that never completes.
func TestHTTPServerBoundsReads(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout=%v ReadTimeout=%v IdleTimeout=%v; all three must be set",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
	if srv.Handler == nil {
		t.Error("server has no handler")
	}
}

// TestRunUsage pins the exit status of each kind of command line: a
// flag the daemon does not have and a bad -stages value are usage errors
// (2), -h is not, and a runtime failure is 1. None of them boots a
// server that stays up.
func TestRunUsage(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-shards", "8"}, 2, "flag provided but not defined: -shards"},
		{[]string{"-h"}, 0, "Usage of sdfmd"},
		{[]string{"-stages", "canary=x"}, 2, `invalid value "canary=x" for flag -stages`},
		{[]string{"-addr", "127.0.0.1:http-nope"}, 1, "http-nope"},
	} {
		var stderr bytes.Buffer
		err := run(context.Background(), tc.args, &stderr)
		if got := exitCode(err); got != tc.code {
			t.Errorf("%q: exit %d (%v), want %d", tc.args, got, err, tc.code)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%q: stderr lacks %q:\n%s", tc.args, tc.want, stderr.String())
		}
	}
}

// TestDaemonSmoke is the boot-and-scrape test: run the daemon, register
// three agents over real HTTP, stream a small fleet trace, force a tuning
// round (with its staged push) once every report has drained into the
// window, scrape /metrics and /statusz, then cancel and assert a clean
// drain and a nil error.
func TestDaemonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the daemon")
	}
	ctx := context.Background()
	// -round-every far beyond the trace span: the round is forced below
	// via POST /v1/round once every report has drained, so the test is not
	// racing the wall-clock ticker over which agents reported first.
	d := startDaemon(t, "-round-every=24h", "-tick=20ms", "-iterations=4", "-stages=canary=0.5,fleet=1")
	cl := controlplane.NewClient("http://" + d.addr)

	// Three agents, one per machine, stream 6 hours of telemetry: each of
	// the two rollout rings judges a 3-hour slice of the window, longer
	// than the largest S the tuner can propose (2h), so a healthy
	// candidate is evaluable in every ring.
	tr := genTrace(t, 3, 4, 6*time.Hour, 11)
	sent := streamTrace(t, d.addr, tr, 0, 1<<62) // fails on any backpressure drop

	// Wait for the wall-clock ticker to drain every accepted report into
	// the tuning window, then force the round.
	st := waitIngested(t, d.addr, uint64(sent))
	if len(st.Agents) != 3 {
		t.Fatalf("trace spans %d machines, want 3", len(st.Agents))
	}
	if st.WindowEntries != len(tr.Entries) {
		t.Fatalf("window holds %d entries after the drain, want %d", st.WindowEntries, len(tr.Entries))
	}
	rr, err := cl.ForceRound(ctx)
	if err != nil {
		t.Fatalf("forcing tuning round: %v", err)
	}
	if rr.Round != 1 {
		t.Errorf("forced round numbered %d, want 1", rr.Round)
	}
	if !rr.Accepted {
		t.Errorf("round rolled back at %q (%s), want the candidate accepted through every ring", rr.RolledBackAt, rr.Reason)
	}
	if st, err = cl.Status(ctx); err != nil {
		t.Fatalf("statusz after round: %v", err)
	}
	if st.LastRound == nil || st.LastRound.Entries != len(tr.Entries) {
		t.Errorf("round judged %+v, want all %d entries", st.LastRound, len(tr.Entries))
	}
	if st.Incumbent != st.LastRound.Chosen {
		t.Errorf("incumbent %+v != round choice %+v", st.Incumbent, st.LastRound.Chosen)
	}

	metrics, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatalf("scraping /metrics: %v", err)
	}
	foundRounds := false
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "sdfm_cp_rounds_total") && strings.HasSuffix(line, " 1") {
			foundRounds = true
		}
	}
	if !foundRounds {
		t.Errorf("/metrics does not report sdfm_cp_rounds_total 1:\n%s", metrics)
	}
	for _, want := range []string{"sdfm_cp_agents", "sdfm_cp_stage_pushes_total", "sdfm_cp_deployed_k"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Graceful shutdown: cancel → drain → nil.
	log, err := d.shutdown()
	if err != nil {
		t.Errorf("daemon exited uncleanly: %v", err)
	}
	for _, want := range []string{"round 1:", "shutting down", "drained", "final:"} {
		if !strings.Contains(log, want) {
			t.Errorf("daemon log missing %q:\n%s", want, log)
		}
	}
}
