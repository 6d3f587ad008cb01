package main

import (
	"bufio"
	"context"
	"net/http"
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

// TestDaemonSmoke is the boot-and-scrape test: build the real binary,
// start it, register three agents over real HTTP, stream a small fleet
// trace, force a tuning round (with its staged push) once every report
// has drained into the window, scrape /metrics and /statusz, then
// SIGTERM and assert a clean drain and exit 0.
func TestDaemonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the daemon binary")
	}
	ctx := context.Background()
	bin := filepath.Join(t.TempDir(), "sdfmd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building sdfmd: %v\n%s", err, out)
	}

	// -round-every far beyond the trace span: the round is forced below
	// via POST /v1/round once every report has drained, so the test is not
	// racing the wall-clock ticker over which agents reported first.
	cmd := exec.Command(bin,
		"-addr=127.0.0.1:0",
		"-round-every=24h",
		"-tick=20ms",
		"-iterations=4",
		"-stages=canary=0.5,fleet=1",
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting sdfmd: %v", err)
	}
	defer cmd.Process.Kill()

	// Scan the daemon's log: the first line announces the bound address;
	// everything is kept for the post-shutdown assertions.
	addrCh := make(chan string, 1)
	scanDone := make(chan struct{})
	var logMu sync.Mutex
	var logLines []string
	go func() {
		defer close(scanDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			logMu.Lock()
			logLines = append(logLines, line)
			logMu.Unlock()
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never announced its listen address")
	}
	cl := controlplane.NewClient("http://" + addr)

	// Three agents, one per machine, stream 6 hours of telemetry: each of
	// the two rollout rings judges a 3-hour slice of the window, longer
	// than the largest S the tuner can propose (2h), so a healthy
	// candidate is evaluable in every ring.
	tr, err := fleet.Generate(fleet.Config{
		Clusters:           1,
		MachinesPerCluster: 3,
		JobsPerMachine:     4,
		Duration:           6 * time.Hour,
		Interval:           5 * time.Minute,
		Seed:               11,
	})
	if err != nil {
		t.Fatalf("fleet.Generate: %v", err)
	}
	byAgent := make(map[string][]telemetry.Entry)
	for _, e := range tr.Entries {
		id := e.Key.Cluster + "/" + e.Key.Machine
		byAgent[id] = append(byAgent[id], e)
	}
	if len(byAgent) != 3 {
		t.Fatalf("trace spans %d machines, want 3", len(byAgent))
	}
	for id, entries := range byAgent {
		a := controlplane.NewAgent(id, cl)
		if err := a.Register(ctx); err != nil {
			t.Fatalf("registering %s: %v", id, err)
		}
		resp, err := a.Report(ctx, entries)
		if err != nil {
			t.Fatalf("reporting for %s: %v", id, err)
		}
		if resp.Dropped != 0 {
			t.Errorf("agent %s hit backpressure: %+v", id, resp)
		}
	}

	// Wait for the wall-clock ticker to drain every accepted report into
	// the tuning window, then force the round.
	deadline := time.Now().Add(30 * time.Second)
	var st controlplane.Status
	for {
		st, err = cl.Status(ctx)
		if err == nil && st.WindowEntries == len(tr.Entries) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reports not drained after 30s; status=%+v err=%v", st, err)
		}
		time.Sleep(50 * time.Millisecond)
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
	st, err = cl.Status(ctx)
	if err != nil {
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

	// Graceful shutdown: SIGTERM → drain → exit 0. Wait for the log
	// scanner's EOF before cmd.Wait — Wait closes the stderr pipe and
	// would race the scanner out of the daemon's final lines.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-scanDone:
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not close stderr within 15s of SIGTERM")
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("daemon exited uncleanly: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit within 15s of SIGTERM")
	}
	logMu.Lock()
	log := strings.Join(logLines, "\n")
	logMu.Unlock()
	for _, want := range []string{"round 1:", "shutting down", "drained", "final:"} {
		if !strings.Contains(log, want) {
			t.Errorf("daemon log missing %q:\n%s", want, log)
		}
	}
}
