package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"sdfm/internal/controlplane"
	"sdfm/internal/controlplane/ckpt"
	"sdfm/internal/telemetry"
)

// streamTrace registers one agent per machine, all before the first
// report, so every checkpoint generation the reports trigger holds every
// agent; it then reports entries for timestamps in [fromSec, toSec), in
// timestamp order.
func streamTrace(t *testing.T, addr string, tr *telemetry.Trace, fromSec, toSec int64) int {
	t.Helper()
	ctx := context.Background()
	cl := controlplane.NewClient("http://" + addr)
	byAgent := make(map[string][]telemetry.Entry)
	var ids []string
	for _, e := range tr.Entries {
		if e.TimestampSec < fromSec || e.TimestampSec >= toSec {
			continue
		}
		id := e.Key.Cluster + "/" + e.Key.Machine
		if _, ok := byAgent[id]; !ok {
			ids = append(ids, id)
		}
		byAgent[id] = append(byAgent[id], e)
	}
	sort.Strings(ids)
	agents := make([]*controlplane.Agent, len(ids))
	for i, id := range ids {
		agents[i] = controlplane.NewAgent(id, cl)
		if err := agents[i].Register(ctx); err != nil {
			t.Fatalf("registering %s: %v", id, err)
		}
	}
	sent := 0
	for i, id := range ids {
		resp, err := agents[i].Report(ctx, byAgent[id])
		if err != nil {
			t.Fatalf("reporting for %s: %v", id, err)
		}
		if resp.Dropped != 0 {
			t.Fatalf("agent %s hit backpressure: %+v", id, resp)
		}
		sent += resp.Accepted
	}
	return sent
}

// waitIngested polls /statusz until the lifetime ingested counter
// reaches want.
func waitIngested(t *testing.T, addr string, want uint64) controlplane.Status {
	t.Helper()
	ctx := context.Background()
	cl := controlplane.NewClient("http://" + addr)
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := cl.Status(ctx)
		if err == nil && st.Ingest.Ingested >= want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("ingested did not reach %d in 30s; status=%+v err=%v", want, st, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// checkpointFiles lists the .sdfmcp files in dir, oldest first.
func checkpointFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".sdfmcp") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

// TestRestartAfterSIGKILL is the crash half of the restart matrix:
// SIGKILL mid-ingest leaves a recoverable checkpoint directory, and when
// the newest generation is torn (the crash interrupted a write), the
// restarted daemon falls back to the older generation — with the skip
// visible in its log — instead of booting empty.
func TestRestartAfterSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the daemon")
	}
	ckptDir := filepath.Join(t.TempDir(), "ckpt")
	tr := genTrace(t, 2, 3, 6*time.Hour, 17)
	args := []string{
		"-round-every=24h", "-tick=10ms",
		"-ckptdir=" + ckptDir, "-ckpt-every=1h",
	}
	d1 := execDaemon(t, args...)

	// Two telemetry pushes, each advancing the telemetry clock ≥1h past
	// the last checkpoint, so at least two generations hit the disk.
	const halfSec = 3 * 3600
	sent := streamTrace(t, d1.addr, tr, 0, halfSec)
	waitIngested(t, d1.addr, uint64(sent))
	sent2 := streamTrace(t, d1.addr, tr, halfSec, 1<<62)
	st1 := waitIngested(t, d1.addr, uint64(sent+sent2))

	deadline := time.Now().Add(15 * time.Second)
	for len(checkpointFiles(t, ckptDir)) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("fewer than 2 checkpoint generations after 15s: %v", checkpointFiles(t, ckptDir))
		}
		time.Sleep(25 * time.Millisecond)
	}
	d1.kill() // no drain, no final checkpoint — a real crash

	// Tear the newest generation: keep the header so the file looks
	// plausible, then cut it off mid-section.
	files := checkpointFiles(t, ckptDir)
	newest := filepath.Join(ckptDir, files[len(files)-1])
	buf, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, buf[:len(buf)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	// The survivor boots in-process: the crash, not the restart, needs a
	// process boundary.
	d2 := startDaemon(t, args...)
	bootLog := d2.log()
	if !strings.Contains(bootLog, "skipped "+files[len(files)-1]) {
		t.Errorf("restart log does not account for the torn newest file:\n%s", bootLog)
	}
	m := regexp.MustCompile(`restored: generation=(\d+) file=(\S+)`).FindStringSubmatch(bootLog)
	if m == nil {
		t.Fatalf("restart log has no restored line:\n%s", bootLog)
	}
	if m[2] == files[len(files)-1] {
		t.Errorf("daemon restored the torn file %s", m[2])
	}

	// The survivor must carry the campaign's state: both agents, and an
	// ingested total from an older-but-valid generation (≤ the crash
	// total, > the first push — the older generation was cut after it).
	st2, err := controlplane.NewClient("http://" + d2.addr).Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.Agents) != len(st1.Agents) {
		t.Errorf("restored %d agents, want %d", len(st2.Agents), len(st1.Agents))
	}
	if st2.Ingest.Ingested == 0 || st2.Ingest.Ingested > st1.Ingest.Ingested {
		t.Errorf("restored ingested=%d, want in (0, %d]", st2.Ingest.Ingested, st1.Ingest.Ingested)
	}
	// Agents re-register idempotently against the restored registry.
	a := controlplane.NewAgent(st2.Agents[0].ID, controlplane.NewClient("http://"+d2.addr))
	if err := a.Register(context.Background()); err != nil {
		t.Fatalf("re-registering against restored daemon: %v", err)
	}
	if _, err := d2.shutdown(); err != nil {
		t.Errorf("daemon exited uncleanly: %v", err)
	}
}

// TestSIGTERMAtReadiness signals the daemon the moment it logs
// "listening on", as a supervisor that waits for readiness would. The
// daemon must already catch SIGTERM there: a clean drain, a final
// checkpoint and exit 0, never death by the signal's default action. The
// window it closes is microseconds wide, so the test boots many times.
func TestSIGTERMAtReadiness(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the daemon")
	}
	for i := 0; i < 40; i++ {
		// execDaemon returns as soon as "listening on" is written, and
		// shutdown sends SIGTERM at once.
		all, err := execDaemon(t, "-tick=10ms", "-ckptdir="+filepath.Join(t.TempDir(), "ckpt")).shutdown()
		if err != nil {
			t.Fatalf("boot %d: daemon signalled at readiness exited uncleanly: %v\n%s", i, err, all)
		}
		if !strings.Contains(all, "final checkpoint: ") {
			t.Fatalf("boot %d: no final checkpoint after SIGTERM at readiness:\n%s", i, all)
		}
	}
}

// TestGracefulShutdownWritesFinalCheckpoint is the clean half: a stop
// drains the queues and writes a final checkpoint whose restore loses
// zero acked entries — everything the daemon ever ingested is in the
// snapshot, and nothing is left queued.
func TestGracefulShutdownWritesFinalCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the daemon")
	}
	ckptDir := filepath.Join(t.TempDir(), "ckpt")
	tr := genTrace(t, 2, 3, 2*time.Hour, 23)
	d := startDaemon(t, "-round-every=24h", "-tick=10ms", "-ckptdir="+ckptDir)
	sent := streamTrace(t, d.addr, tr, 0, 1<<62)
	st := waitIngested(t, d.addr, uint64(sent))
	log, err := d.shutdown()
	if err != nil {
		t.Errorf("daemon exited uncleanly: %v", err)
	}
	if !strings.Contains(log, "final checkpoint: ") {
		t.Fatalf("shutdown log has no final checkpoint line:\n%s", log)
	}

	s, rep, err := ckpt.Restore(ckptDir)
	if err != nil || !rep.Restored {
		t.Fatalf("ckpt.Restore: %v (restored=%v)", err, rep.Restored)
	}
	// Zero lost acked entries: the drain flushed every queue into the
	// snapshot before the final checkpoint.
	if got := s.QueuedEntries(); got != 0 {
		t.Errorf("final checkpoint still holds %d queued entries, want 0", got)
	}
	if s.Counters.Ingested != uint64(sent) {
		t.Errorf("final checkpoint ingested=%d, want every acked entry (%d)", s.Counters.Ingested, sent)
	}
	if int(s.Counters.Received) != sent {
		t.Errorf("final checkpoint received=%d, want %d", s.Counters.Received, sent)
	}
	if len(s.Agents) != len(st.Agents) {
		t.Errorf("final checkpoint has %d agents, want %d", len(s.Agents), len(st.Agents))
	}

	// And a full controller restore agrees.
	restored, crep, err := controlplane.Restore(controlplane.Config{CheckpointDir: ckptDir})
	if err != nil {
		t.Fatalf("controlplane.Restore: %v", err)
	}
	t.Cleanup(restored.Close)
	if !crep.Restored || crep.QueuedEntries != 0 || crep.Ingested != uint64(sent) {
		t.Errorf("RestoreReport %+v, want restored with 0 queued and %d ingested", crep, sent)
	}
}

// TestListenRetry pins the bind-retry bugfix: a transiently occupied
// address is retried with backoff and eventually bound, a persistently
// occupied one fails after the bounded attempts, and a structurally bad
// address fails immediately.
func TestListenRetry(t *testing.T) {
	// Occupy a port, free it while listenRetry is backing off.
	occupant, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := occupant.Addr().String()
	go func() {
		time.Sleep(30 * time.Millisecond)
		occupant.Close()
	}()
	logger := log.New(io.Discard, "", 0)
	ln, err := listenRetry(logger, addr, 5, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("listenRetry on a transiently busy port: %v", err)
	}
	ln.Close()

	// Persistently occupied: bounded give-up, not an infinite loop.
	occupant2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer occupant2.Close()
	start := time.Now()
	if _, err := listenRetry(logger, occupant2.Addr().String(), 3, 5*time.Millisecond); err == nil {
		t.Fatal("listenRetry bound an occupied port")
	} else if !strings.Contains(err.Error(), "giving up after 3 attempts") {
		t.Fatalf("exhaustion error %q does not name the attempt bound", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("bounded retry took %s", elapsed)
	}

	// Structurally bad address: immediate failure, no retries.
	start = time.Now()
	if _, err := listenRetry(logger, "127.0.0.1:http-nope", 5, time.Second); err == nil {
		t.Fatal("listenRetry accepted a bad address")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("non-transient error was retried for %s", elapsed)
	}
}

// TestIsTransientBindError pins the classification.
func TestIsTransientBindError(t *testing.T) {
	if !isTransientBindError(fmt.Errorf("wrap: %w", syscall.EADDRINUSE)) {
		t.Error("EADDRINUSE not classified transient")
	}
	if isTransientBindError(fmt.Errorf("wrap: %w", syscall.EACCES)) {
		t.Error("EACCES classified transient")
	}
	if isTransientBindError(fmt.Errorf("plain failure")) {
		t.Error("unrelated error classified transient")
	}
}
