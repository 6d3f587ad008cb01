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
// and a failed listener take one shutdown path: in-flight requests
// finish, every queued batch is drained into the tuning window, and the
// final checkpoint is written. The exit status is 0 after a clean
// shutdown, 1 when serving or the final checkpoint failed, 2 on a bad
// command line.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
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
	// The handler is installed before run announces anything: a
	// supervisor may signal the moment it reads "listening on".
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stderr)
	stop()
	os.Exit(exitCode(err))
}

// usageError is a command line the daemon cannot run with.
type usageError struct{ error }

// exitCode maps run's result to the process status: 0 clean, 2 a bad
// command line (as the flag package exits on a bad flag), 1 otherwise.
func exitCode(err error) int {
	if errors.As(err, new(usageError)) {
		return 2
	} else if err != nil {
		return 1
	}
	return 0
}

// run parses args and serves until ctx is cancelled or the listener
// fails, then drains and writes the final checkpoint. It logs to stderr,
// every error it returns included.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	logger := log.New(stderr, "sdfmd: ", 0)
	fs := flag.NewFlagSet("sdfmd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg, lg := controlplane.Config{}, loadgenConfig{}
	addr := fs.String("addr", "127.0.0.1:8300", "listen address")
	fs.DurationVar(&cfg.RoundEvery, "round-every", 6*time.Hour, "telemetry-time span of one tuning window")
	tick := fs.Duration("tick", 250*time.Millisecond, "wall-clock ingest drain interval")
	fs.IntVar(&cfg.QueueCap, "queue-cap", 8192, "per-agent ingest queue bound, entries")
	fs.IntVar(&cfg.BatchSize, "batch", 1024, "entries drained per agent per tick")
	fs.Int64Var(&cfg.Tuner.Seed, "seed", 1, "GP-bandit seed (reused every round)")
	fs.IntVar(&cfg.Tuner.Iterations, "iterations", 15, "GP-bandit iterations per round")
	fs.Func("stages", `deployment rings as "name=frac,..." (empty: canary/early/half/fleet)`, func(spec string) (err error) {
		cfg.Stages, err = parseStages(spec)
		return err
	})
	fs.StringVar(&cfg.CheckpointDir, "ckptdir", "", "checkpoint directory; empty disables durable state")
	fs.DurationVar(&cfg.CheckpointEvery, "ckpt-every", 0, "telemetry-time span between checkpoints (0: -round-every)")
	fs.IntVar(&cfg.CheckpointKeep, "ckpt-keep", 4, "checkpoint generations retained on disk")
	loadgen := fs.Bool("loadgen", false, "run as an ingest load generator against -target instead of serving")
	fs.StringVar(&lg.Target, "target", "", "loadgen: daemon base URL (default http://<-addr>)")
	fs.IntVar(&lg.Agents, "loadgen-agents", 32, "loadgen: concurrent reporting agents")
	fs.IntVar(&lg.Reports, "loadgen-reports", 100, "loadgen: reports per agent")
	fs.IntVar(&lg.Batch, "loadgen-batch", 64, "loadgen: entries per report")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return usageError{err} // the flag set has printed it, with the usage
	}
	if *loadgen {
		if lg.Target == "" {
			lg.Target = "http://" + *addr
		}
		lg.Seed = cfg.Tuner.Seed
		rep, err := runLoadgen(ctx, lg)
		if err != nil {
			logger.Print(err)
			return err
		}
		logger.Printf("loadgen: %d agents x %d reports x %d entries: sent=%d accepted=%d dropped=%d in %s (%.0f entries/s)", lg.Agents, lg.Reports,
			lg.Batch, rep.Sent, rep.Accepted, rep.Dropped, rep.Elapsed.Round(time.Millisecond), rep.EntriesPerSec())
		return nil
	}
	hub := obs.NewMulti(obs.Label{Key: "run", Value: "sdfmd"})
	cfg.Obs = hub.Observer("controlplane")
	cfg.OnRound = func(rr controlplane.RoundReport) {
		logger.Printf("round %d: window [%ds, %ds] entries=%d jobs=%d gaps=%d candidate=(K=%.1f,S=%s) -> %s",
			rr.Round, rr.WindowStartSec, rr.WindowEndSec, rr.Entries, rr.Jobs, rr.GapIntervals,
			rr.Candidate.K, rr.Candidate.S, rr.Reason)
	}
	ctrl, restore, err := controlplane.Restore(cfg)
	if err != nil {
		logger.Print(err)
		return err
	}
	for _, sk := range restore.Skipped {
		logger.Printf("checkpoint: skipped %s: %v", sk.Name, sk.Err)
	}
	if restore.Restored {
		logger.Printf("restored: generation=%d file=%s agents=%d rounds=%d queued=%d ingested=%d",
			restore.Generation, restore.File, restore.Agents, restore.Rounds, restore.QueuedEntries, restore.Ingested)
	} else if cfg.CheckpointDir != "" {
		logger.Printf("no checkpoint in %s; fresh boot", cfg.CheckpointDir)
	}
	ln, err := listenRetry(logger, *addr, bindAttempts, bindBackoff)
	if err != nil {
		ctrl.Close()
		logger.Print(err)
		return err
	}
	logger.Printf("listening on %s (round-every=%s tick=%s queue-cap=%d)", ln.Addr(), cfg.RoundEvery, *tick, cfg.QueueCap)
	serveErr := serve(ctx, logger, ctrl, controlplane.NewServer(ctrl, hub).Handler(), ln, *tick)
	return errors.Join(serveErr, drain(logger, ctrl))
}

// serve answers HTTP on ln and drains the ingest queues every tick (a
// tuning round triggers from inside Tick) until ctx is cancelled or the
// server fails. It then lets in-flight requests finish and returns the
// server's error, nil after a cancel.
func serve(ctx context.Context, logger *log.Logger, ctrl *controlplane.Controller, h http.Handler, ln net.Listener, tick time.Duration) error {
	srv := newHTTPServer(h)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t := time.NewTicker(tick)
	defer t.Stop()
	var err error
	for running := true; running; {
		select {
		case <-t.C:
			ctrl.Tick()
		case <-ctx.Done():
			logger.Print("received signal; shutting down")
			running = false
		case err = <-served:
			logger.Printf("serve: %v; shutting down", err)
			running = false
		}
	}
	sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 10*time.Second)
	defer cancel()
	if serr := srv.Shutdown(sctx); serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		logger.Printf("shutdown: %v", serr)
	}
	return err
}

// drain flushes every queued batch into the tuning window, writes the
// final checkpoint if ctrl has a directory, closes ctrl and logs the
// final accounting. It returns the checkpoint's error.
func drain(logger *log.Logger, ctrl *controlplane.Controller) error {
	rep := ctrl.Drain()
	st := ctrl.Status()
	logger.Printf("drained %d queued entries in %d ticks (%d corrupt, %d invalid rejected)",
		rep.Drained, rep.Ticks, rep.RejectedCorrupt, rep.RejectedInvalid)
	// Every entry the daemon ever acked is now in the tuning window or in
	// a completed round: the checkpoint a successor restores loses nothing.
	path, err := ctrl.Checkpoint()
	switch {
	case errors.Is(err, controlplane.ErrNoCheckpointDir):
		err = nil
	case err != nil:
		logger.Printf("final checkpoint failed: %v", err)
		err = fmt.Errorf("sdfmd: final checkpoint: %w", err)
	default:
		logger.Printf("final checkpoint: %s", path)
	}
	ctrl.Close() // joins the periodic checkpoint writer: nothing is mid-write at exit
	logger.Printf("final: agents=%d rounds=%d ingested=%d dropped=%d incumbent=(K=%.1f,S=%s)",
		len(st.Agents), st.Rounds, st.Ingest.Ingested, st.Ingest.DroppedBackpressure,
		st.Incumbent.K, st.Incumbent.S)
	return err
}

// Read-side deadlines, so a client that never finishes its request line
// or body (the largest is one report batch, milliseconds for a healthy
// agent) cannot hold a connection and a goroutine forever. WriteTimeout
// stays unset: /metrics and /statusz copy what they serve out of the
// controller before writing, so a slow reader stalls only itself.
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

// Transient bind errors (a predecessor's socket still in TIME_WAIT, a slow-exiting
// old instance) get a bounded retry: a restarting supervisor would otherwise flap.
const (
	bindAttempts = 5
	bindBackoff  = 100 * time.Millisecond
)

// listenRetry binds addr, retrying transient failures with doubling backoff:
// attempts tries spaced backoff, 2×backoff, 4×backoff, … Non-transient
// errors (bad address, permission denied) fail immediately.
func listenRetry(logger *log.Logger, addr string, attempts int, backoff time.Duration) (net.Listener, error) {
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			logger.Printf("bind %s: %v; retrying in %s", addr, lastErr, backoff)
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
			return nil, fmt.Errorf(`entry %q is not "name=fraction"`, part)
		}
		frac, err := strconv.ParseFloat(fracStr, 64)
		if err != nil {
			return nil, fmt.Errorf("entry %q: %v", part, err)
		}
		stages = append(stages, tuner.RolloutStage{Name: name, Fraction: frac})
	}
	return stages, tuner.ValidateStages(stages)
}
