package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdfm/internal/controlplane"
	"sdfm/internal/controlplane/ckpt"
	"sdfm/internal/obs"
)

// TestGracefulShutdownWithInFlightBinaryReports pins the drain
// guarantee end to end over the binary wire format: agents hammer
// /v1/report with application/x-sdfm-telemetry frames while the daemon
// is stopped, and every entry the daemon *acked* must appear in
// the final ingested count — an acked-then-dropped entry would be a
// silent telemetry hole in the next tuning window.
func TestGracefulShutdownWithInFlightBinaryReports(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the daemon")
	}
	ctx := context.Background()
	d := startDaemon(t, "-round-every=24h", "-tick=10ms", "-queue-cap=200000")
	tr := genTrace(t, 1, 3, time.Hour, 17)

	// Four agents report binary frames back-to-back until the daemon
	// stops answering; acked counts only entries the daemon accepted.
	const nAgents = 4
	var acked atomic.Int64
	var reporters sync.WaitGroup
	stopReporting := make(chan struct{})
	for i := 0; i < nAgents; i++ {
		cl := controlplane.NewClient("http://" + d.addr)
		id := fmt.Sprintf("drain/agent-%d", i)
		if _, err := cl.Register(ctx, controlplane.RegisterRequest{AgentID: id}); err != nil {
			t.Fatalf("registering %s: %v", id, err)
		}
		reporters.Add(1)
		go func(cl *controlplane.Client, id string) {
			defer reporters.Done()
			for {
				resp, err := cl.Report(ctx, controlplane.ReportRequest{
					AgentID: id, Entries: tr.Entries,
				})
				if err != nil {
					// Shutdown reached: connection refused or 503 draining.
					return
				}
				acked.Add(int64(resp.Accepted))
				select {
				case <-stopReporting:
					return
				default:
				}
			}
		}(cl, id)
	}

	// Let a real backlog build, then stop the daemon mid-hammer so
	// reports are in flight while the listener closes and the drain runs.
	deadline := time.Now().Add(20 * time.Second)
	for acked.Load() < int64(10*len(tr.Entries)) {
		if time.Now().After(deadline) {
			t.Fatalf("agents only got %d entries acked in 20s", acked.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.stop()
	time.Sleep(50 * time.Millisecond)
	close(stopReporting)
	reporters.Wait()
	ackedTotal := acked.Load()
	logs, err := d.wait()
	if err != nil {
		t.Errorf("daemon exited uncleanly: %v", err)
	}

	var ingested, dropped int64
	found := false
	for _, line := range strings.Split(logs, "\n") {
		if _, rest, ok := strings.Cut(line, "final: "); ok {
			var agents, rounds int
			var k float64
			var s string
			if _, err := fmt.Sscanf(rest, "agents=%d rounds=%d ingested=%d dropped=%d incumbent=(K=%f,S=%s",
				&agents, &rounds, &ingested, &dropped, &k, &s); err != nil {
				t.Fatalf("parsing final line %q: %v", line, err)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("daemon log has no final accounting line:\n%s", logs)
	}
	// The drain guarantee: every acked entry was ingested into the fleet
	// snapshot before exit. (ingested can exceed ackedTotal: a report in
	// flight at the stop may be acked by the server after the client side
	// stopped counting.)
	if ingested < ackedTotal {
		t.Errorf("daemon ingested %d entries but acked %d — acked telemetry was dropped during shutdown",
			ingested, ackedTotal)
	}
	if !strings.Contains(logs, "drained") {
		t.Errorf("daemon log missing drain line:\n%s", logs)
	}
}

// TestFailedFinalCheckpointFailsRun pins that a final checkpoint the
// daemon cannot write is a failed exit: the drain and the final
// accounting still happen, and run's error names the checkpoint.
func TestFailedFinalCheckpointFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the daemon")
	}
	ckptDir := filepath.Join(t.TempDir(), "ckpt")
	tr := genTrace(t, 1, 2, time.Hour, 29)
	d := startDaemon(t, "-round-every=24h", "-tick=10ms", "-ckptdir="+ckptDir)
	waitIngested(t, d.addr, uint64(streamTrace(t, d.addr, tr, 0, 1<<62)))
	if err := os.RemoveAll(ckptDir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckptDir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	logs, err := d.shutdown()
	if err == nil || !strings.Contains(err.Error(), "final checkpoint") || exitCode(err) != 1 {
		t.Errorf("run returned %v (exit %d), want a final checkpoint error and exit 1", err, exitCode(err))
	}
	for _, want := range []string{"final checkpoint failed: ", "final: "} {
		if !strings.Contains(logs, want) {
			t.Errorf("daemon log missing %q:\n%s", want, logs)
		}
	}
}

// brokenListener is a listener that dies under a serving daemon: once
// broken, Accept fails with a permanent error.
type brokenListener struct {
	net.Listener
	broken atomic.Bool
}

var errListenerBroken = errors.New("listener broken")

func (l *brokenListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if l.broken.Load() {
		if c != nil {
			c.Close()
		}
		return nil, errListenerBroken
	}
	return c, err
}

// TestServeErrorDrains pins that a failing listener takes the signal's
// shutdown path: serve returns the listener's error, and the drain
// writes a final checkpoint that holds every acked entry.
func TestServeErrorDrains(t *testing.T) {
	ckptDir := filepath.Join(t.TempDir(), "ckpt")
	tr := genTrace(t, 2, 2, time.Hour, 31)
	hub := obs.NewMulti()
	ctrl, _, err := controlplane.Restore(controlplane.Config{
		RoundEvery: 24 * time.Hour, CheckpointDir: ckptDir, Obs: hub.Observer("controlplane"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctrl.Close)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &brokenListener{Listener: inner}
	var logs bytes.Buffer
	logger := log.New(&logs, "", 0)
	served := make(chan error, 1)
	go func() {
		served <- serve(context.Background(), logger, ctrl, controlplane.NewServer(ctrl, hub).Handler(), ln, time.Hour)
	}()
	acked := streamTrace(t, inner.Addr().String(), tr, 0, 1<<62)
	ln.broken.Store(true)
	inner.Close() // wakes the blocked Accept
	select {
	case err = <-served:
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not return within 15s of the listener failing")
	}
	if !errors.Is(err, errListenerBroken) {
		t.Fatalf("serve returned %v, want the listener's error", err)
	}
	if err := drain(logger, ctrl); err != nil {
		t.Fatalf("drain: %v", err)
	}
	s, rep, err := ckpt.Restore(ckptDir)
	if err != nil || !rep.Restored {
		t.Fatalf("ckpt.Restore: %v (restored=%v)", err, rep.Restored)
	}
	if got := s.QueuedEntries(); got != 0 {
		t.Errorf("final checkpoint still holds %d queued entries, want 0", got)
	}
	if s.Counters.Ingested != uint64(acked) {
		t.Errorf("final checkpoint ingested=%d, want every acked entry (%d)", s.Counters.Ingested, acked)
	}
	if !strings.Contains(logs.String(), "serve: listener broken; shutting down") {
		t.Errorf("log does not name the serve error:\n%s", logs.String())
	}
}
