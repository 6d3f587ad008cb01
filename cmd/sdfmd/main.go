// Command sdfmd is the online fleet control plane daemon: the §5.3
// tuning loop as a long-lived network service. Node agents POST
// /v1/register once, stream telemetry batches to /v1/report, and poll
// /v1/poll for the (K, S) parameters the controller has assigned to
// them. The controller drains its bounded ingest queues on a wall-clock
// tick; once the ingested telemetry spans -round-every of trace time it
// compiles the window into the fast far memory model, runs the
// GP-bandit, and pushes the winner through staged deployment rings with
// per-ring health checks and rollback.
//
// Operational endpoints: /metrics (Prometheus text), /statusz (JSON),
// /healthz, and POST /v1/round to force a tuning round. SIGINT/SIGTERM
// shut down gracefully: the listener stops, in-flight requests finish,
// and every queued batch is drained into the tuning window before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sdfm/internal/controlplane"
	"sdfm/internal/obs"
	"sdfm/internal/tuner"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sdfmd: ")
	var (
		addr       = flag.String("addr", "127.0.0.1:8300", "listen address")
		roundEvery = flag.Duration("round-every", 6*time.Hour, "telemetry-time span of one tuning window")
		tick       = flag.Duration("tick", 250*time.Millisecond, "wall-clock ingest drain interval")
		queueCap   = flag.Int("queue-cap", 8192, "per-agent ingest queue bound, entries")
		batch      = flag.Int("batch", 1024, "entries drained per agent per tick")
		seed       = flag.Int64("seed", 1, "GP-bandit seed (reused every round)")
		iterations = flag.Int("iterations", 15, "GP-bandit iterations per round")
		stagesFlag = flag.String("stages", "", `deployment rings as "name=frac,..." (empty: canary/early/half/fleet)`)
		ckptDir    = flag.String("ckptdir", "", "checkpoint directory; empty disables durable state")
		ckptEvery  = flag.Duration("ckpt-every", 0, "telemetry-time span between checkpoints (0: -round-every)")
		ckptKeep   = flag.Int("ckpt-keep", 4, "checkpoint generations retained on disk")

		loadgen        = flag.Bool("loadgen", false, "run as an ingest load generator against -target instead of serving")
		target         = flag.String("target", "", "loadgen: daemon base URL (default http://<-addr>)")
		loadgenAgents  = flag.Int("loadgen-agents", 32, "loadgen: concurrent reporting agents")
		loadgenReports = flag.Int("loadgen-reports", 100, "loadgen: reports per agent")
		loadgenBatch   = flag.Int("loadgen-batch", 64, "loadgen: entries per report")
	)
	flag.Parse()

	if *loadgen {
		base := *target
		if base == "" {
			base = "http://" + *addr
		}
		rep, err := runLoadgen(loadgenConfig{
			Target:  base,
			Agents:  *loadgenAgents,
			Reports: *loadgenReports,
			Batch:   *loadgenBatch,
			Seed:    *seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("loadgen: %d agents x %d reports x %d entries: sent=%d accepted=%d dropped=%d in %s (%.0f entries/s)",
			*loadgenAgents, *loadgenReports, *loadgenBatch,
			rep.Sent, rep.Accepted, rep.Dropped, rep.Elapsed.Round(time.Millisecond), rep.EntriesPerSec())
		return
	}

	// Catch SIGTERM before the daemon announces anything: a supervisor may
	// signal the moment it reads "listening on", and the default action
	// would kill the process with no drain and no final checkpoint.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	stages, err := parseStages(*stagesFlag)
	if err != nil {
		log.Fatal(err)
	}

	hub := obs.NewMulti(obs.Label{Key: "run", Value: "sdfmd"})
	observer := hub.Observer("controlplane")
	ctrl, restore, err := controlplane.Restore(controlplane.Config{
		RoundEvery:      *roundEvery,
		QueueCap:        *queueCap,
		BatchSize:       *batch,
		Stages:          stages,
		Tuner:           tuner.Config{Seed: *seed, Iterations: *iterations},
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEvery,
		CheckpointKeep:  *ckptKeep,
		Obs:             observer,
		OnRound: func(rr controlplane.RoundReport) {
			log.Printf("round %d: window [%ds, %ds] entries=%d jobs=%d gaps=%d candidate=(K=%.1f,S=%s) -> %s",
				rr.Round, rr.WindowStartSec, rr.WindowEndSec, rr.Entries, rr.Jobs, rr.GapIntervals,
				rr.Candidate.K, rr.Candidate.S, rr.Reason)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if *ckptDir != "" {
		for _, sk := range restore.Skipped {
			log.Printf("checkpoint: skipped %s: %v", sk.Name, sk.Err)
		}
		if restore.Restored {
			log.Printf("restored: generation=%d file=%s agents=%d rounds=%d queued=%d ingested=%d",
				restore.Generation, restore.File, restore.Agents, restore.Rounds,
				restore.QueuedEntries, restore.Ingested)
		} else {
			log.Printf("no checkpoint in %s; fresh boot", *ckptDir)
		}
	}

	ln, err := listenRetry(*addr, bindAttempts, bindBackoff)
	if err != nil {
		log.Fatal(err)
	}
	srv := newHTTPServer(controlplane.NewServer(ctrl, hub).Handler())
	log.Printf("listening on %s (round-every=%s tick=%s queue-cap=%d)", ln.Addr(), roundEvery, tick, *queueCap)

	// Ingest drains run on a wall-clock ticker; tuning rounds trigger
	// from inside Tick when the telemetry window spans -round-every.
	tickDone, tickExited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(tickExited)
		t := time.NewTicker(*tick)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				ctrl.Tick()
			case <-tickDone:
				return
			}
		}
	}()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case s := <-sig:
		log.Printf("received %s; shutting down", s)
	case err := <-serveErr:
		log.Fatalf("serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("shutdown: %v", err)
	}
	close(tickDone)
	<-tickExited
	rep := ctrl.Drain()
	st := ctrl.Status()
	log.Printf("drained %d queued entries in %d ticks (%d corrupt, %d invalid rejected)",
		rep.Drained, rep.Ticks, rep.RejectedCorrupt, rep.RejectedInvalid)
	if *ckptDir != "" {
		// Final snapshot: every entry the daemon ever acked is either in
		// the tuning window (Drain just flushed the queues) or in a
		// completed round — the checkpoint a successor restores loses
		// nothing.
		if path, err := ctrl.Checkpoint(); err != nil {
			log.Printf("final checkpoint failed: %v", err)
		} else {
			log.Printf("final checkpoint: %s", path)
		}
	}
	ctrl.Close() // joins the periodic checkpoint writer: nothing is mid-write at exit
	log.Printf("final: agents=%d rounds=%d ingested=%d dropped=%d incumbent=(K=%.1f,S=%s)",
		len(st.Agents), st.Rounds, st.Ingest.Ingested, st.Ingest.DroppedBackpressure,
		st.Incumbent.K, st.Incumbent.S)
}

// Read-side deadlines, so a client that never finishes its request line
// or body cannot hold a connection and a goroutine forever. The largest
// legitimate request is one report batch, which a healthy agent sends in
// milliseconds. WriteTimeout stays unset: /metrics and /statusz copy
// what they serve out of the controller before writing, so a slow reader
// of a response stalls only itself.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the daemon's HTTP server around h.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// Transient bind errors (a predecessor's socket still in TIME_WAIT, a
// slow-exiting old instance) get a bounded retry instead of an
// immediate fatal — a restarting supervisor would otherwise flap.
const (
	bindAttempts = 5
	bindBackoff  = 100 * time.Millisecond
)

// listenRetry binds addr, retrying transient failures with doubling
// backoff: attempts tries spaced backoff, 2×backoff, 4×backoff, …
// Non-transient errors (bad address, permission denied) fail
// immediately.
func listenRetry(addr string, attempts int, backoff time.Duration) (net.Listener, error) {
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			log.Printf("bind %s: %v; retrying in %s", addr, lastErr, backoff)
			time.Sleep(backoff)
			backoff *= 2
		}
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln, nil
		}
		lastErr = err
		if !isTransientBindError(err) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("sdfmd: bind %s: giving up after %d attempts: %w", addr, attempts, lastErr)
}

// isTransientBindError reports whether a Listen failure is worth
// retrying: address in use (or the platform's transient unavailability
// errnos), not structural failures like an unparseable address.
func isTransientBindError(err error) bool {
	return errors.Is(err, syscall.EADDRINUSE) ||
		errors.Is(err, syscall.EAGAIN) ||
		errors.Is(err, syscall.ECONNREFUSED)
}

// parseStages parses "canary=0.01,early=0.1,fleet=1" into rollout rings;
// an empty spec selects the paper's default rings.
func parseStages(spec string) ([]tuner.RolloutStage, error) {
	if spec == "" {
		return nil, nil // controlplane defaults to tuner.DefaultRolloutStages
	}
	var stages []tuner.RolloutStage
	for _, part := range strings.Split(spec, ",") {
		name, fracStr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf(`sdfmd: -stages entry %q is not "name=fraction"`, part)
		}
		frac, err := strconv.ParseFloat(fracStr, 64)
		if err != nil {
			return nil, fmt.Errorf("sdfmd: -stages entry %q: %v", part, err)
		}
		stages = append(stages, tuner.RolloutStage{Name: name, Fraction: frac})
	}
	if err := tuner.ValidateStages(stages); err != nil {
		return nil, fmt.Errorf("sdfmd: -stages: %w", err)
	}
	return stages, nil
}
