package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"time"

	"sdfm/internal/controlplane"
	"sdfm/internal/core"
	"sdfm/internal/fleet"
	"sdfm/internal/model"
	"sdfm/internal/telemetry"
	"sdfm/internal/tracestore"
	"sdfm/internal/tuner"
)

// sdfmd's default tuner: the seed is reused every round, so a round's
// decision depends only on its window.
var roundsTuner = tuner.Config{Seed: 1, Iterations: 15}

// interval is one reporting interval of the replayed fleet trace.
type interval struct {
	ts      int64
	entries []telemetry.Entry   // grouped by agent, trace order within one
	reports [][]telemetry.Entry // entries cut per agent, indexed like roundsRig.ids; nil when silent
}

// roundsRig is a cp_rounds episode's set-up.
type roundsRig struct {
	ids       []string
	intervals []interval
	entries   int

	scan      time.Duration // tracestore.Open → Scan
	fileBytes int64

	cfg controlplane.Config
	srv *cpServer
	cl  *controlplane.Client
}

func roundsFleet(e *env, span time.Duration) fleet.Config {
	return fleet.Config{
		Clusters: e.sz.RoundsClusters, MachinesPerCluster: e.sz.RoundsMachines, JobsPerMachine: e.sz.RoundsJobs,
		Duration: span, Interval: telemetry.DefaultAggregation, Seed: e.seed,
	}
}

// writeFleetTrace streams a generated fleet trace through a tracestore.Writer
// into path.
func writeFleetTrace(cfg fleet.Config, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := tracestore.NewWriter(f, tracestore.MetaOf(telemetry.NewTrace()))
	if err != nil {
		return err
	}
	if err := fleet.GenerateTo(cfg, w); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	return f.Close()
}

func newRoundsRig(e *env) (*roundsRig, error) {
	r := &roundsRig{}
	path := filepath.Join(e.tmp, "fleet.sdfmts")
	if err := writeFleetTrace(roundsFleet(e, e.sz.RoundsSpan), path); err != nil {
		return nil, fmt.Errorf("generating trace: %w", err)
	}
	if st, err := os.Stat(path); err == nil {
		r.fileBytes = st.Size()
	}

	// Read it back the way an operator's tooling would, grouping into the
	// per-interval, per-agent reports the replay sends.
	t0 := time.Now()
	h, err := tracestore.Open(path)
	if err != nil {
		return nil, err
	}
	byTS := make(map[int64]*interval)
	agentOf := make(map[string]bool)
	var all []telemetry.Entry
	err = h.Scan(func(en telemetry.Entry) error {
		all = append(all, en)
		return nil
	})
	h.Close()
	if err != nil {
		return nil, fmt.Errorf("scanning trace: %w", err)
	}
	if sk := h.Skipped(); sk.Entries > 0 || sk.Chunks > 0 {
		return nil, fmt.Errorf("trace store skipped %d entries in %d chunks of a file it just wrote", sk.Entries, sk.Chunks)
	}
	r.scan = time.Since(t0)
	r.entries = len(all)

	for i := range all {
		agentOf[all[i].Key.Cluster+"/"+all[i].Key.Machine] = true
	}
	for id := range agentOf {
		r.ids = append(r.ids, id)
	}
	sort.Strings(r.ids)
	index := make(map[string]int, len(r.ids))
	for i, id := range r.ids {
		index[id] = i
	}
	for i := range all {
		iv := byTS[all[i].TimestampSec]
		if iv == nil {
			iv = &interval{ts: all[i].TimestampSec, reports: make([][]telemetry.Entry, len(r.ids))}
			byTS[iv.ts] = iv
		}
		a := index[all[i].Key.Cluster+"/"+all[i].Key.Machine]
		iv.reports[a] = append(iv.reports[a], all[i])
	}
	for _, iv := range byTS {
		// Lay the agents' batches out in one slice and cut the reports
		// from it, so a window's entries and its reports share storage.
		for _, b := range iv.reports {
			iv.entries = append(iv.entries, b...)
		}
		lo := 0
		for a, b := range iv.reports {
			if len(b) > 0 {
				iv.reports[a] = iv.entries[lo : lo+len(b) : lo+len(b)]
				lo += len(b)
			}
		}
		r.intervals = append(r.intervals, *iv)
	}
	sort.Slice(r.intervals, func(i, j int) bool { return r.intervals[i].ts < r.intervals[j].ts })
	e.inputsReady()

	r.cfg = controlplane.Config{
		RoundEvery:    e.sz.RoundEvery,
		Tuner:         roundsTuner,
		CheckpointDir: filepath.Join(e.tmp, "ckpt"), // CheckpointEvery defaults to RoundEvery
	}
	c, err := controlplane.New(r.cfg)
	if err != nil {
		return nil, err
	}
	if r.srv, err = startServer(c); err != nil {
		return nil, err
	}
	r.cl = newClient(r.srv.url)
	if err := registerAgents(context.Background(), []*controlplane.Client{r.cl}, r.ids); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *roundsRig) close() error {
	r.cl.HTTP.CloseIdleConnections()
	return r.srv.stop()
}

// decision is what a tuning round decided, online or offline.
type decision struct {
	candidate, chosen core.Params
	accepted          bool
	rolledBackAt      string
}

func decisionOf(rr *controlplane.RoundReport) decision {
	return decision{rr.Candidate, rr.Chosen, rr.Accepted, rr.RolledBackAt}
}

func decisionsHash(ds []decision) uint64 {
	h := fnv.New64a()
	for _, d := range ds {
		fmt.Fprintf(h, "%v|%v|%v|%s\n", d.candidate, d.chosen, d.accepted, d.rolledBackAt)
	}
	return h.Sum64()
}

func cpRoundsEpisode(e *env) (*episode, error) {
	r, err := newRoundsRig(e)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	c := r.srv.c
	ep := &episode{}
	var tally ingestTally
	var online []decision
	var polls, badPolls, roundErrs int64

	w := e.begin(ep, len(r.intervals))
	for i := range r.intervals {
		iv := &r.intervals[i]
		for a, batch := range iv.reports {
			if len(batch) == 0 {
				continue
			}
			n := int64(len(batch))
			sp := e.tr.begin("controlplane.Client.Report", laneMain, int64(len(online)), noSpan)
			resp, err := r.cl.Report(ctx, controlplane.ReportRequest{AgentID: r.ids[a], Entries: batch})
			e.tr.end(sp)
			tally.sent += n
			if err != nil {
				tally.transportErrs += n
				continue
			}
			tally.accepted += int64(resp.Accepted)
			tally.dropped += int64(resp.Dropped)
		}
		round := int64(len(online))
		t0 := time.Now()
		sp := e.tr.begin("controlplane.Tick", laneMain, round, noSpan)
		rep := c.Tick()
		e.tr.end(sp)
		if rep.RoundRan {
			// The round's span tree: the closing Tick (compile, autotune,
			// staged pushes) and the polls that deliver its decision.
			e.tr.rename(sp, "controlplane.Tick+round")
			e.tr.count("cp.rounds", 1)
			rr := rep.Round
			online = append(online, decisionOf(rr))
			// A rollback carries the SLO violation in Err and is a decision,
			// not a failure; a round that failed left RolledBackAt empty.
			if rr.Err != "" && rr.RolledBackAt == "" {
				roundErrs++
			}
			if err := rr.Chosen.Validate(); err != nil {
				ep.violate("round %d chose invalid params %+v: %v", rr.Round, rr.Chosen, err)
			}
			got := make([]controlplane.PollResponse, len(r.ids))
			for a, id := range r.ids {
				ps := e.tr.begin("controlplane.Client.Poll", laneMain, round, noSpan)
				resp, err := r.cl.Poll(ctx, controlplane.PollRequest{AgentID: id})
				e.tr.end(ps)
				polls++
				if err != nil {
					badPolls++
					ep.violate("round %d: poll %s: %v", rr.Round, id, err)
					continue
				}
				got[a] = resp
			}
			ep.lat = append(ep.lat, time.Since(t0))
			epoch := c.Status().Epoch
			for a, resp := range got {
				if resp.Params != rr.Chosen || resp.Epoch != epoch {
					badPolls++
					ep.violate("round %d: %s polled (%+v, epoch %d), controller is on (%+v, epoch %d)",
						rr.Round, r.ids[a], resp.Params, resp.Epoch, rr.Chosen, epoch)
				}
			}
		}
		w.lap()
	}
	w.finish()

	// Join the background checkpoint writer through the public API before
	// the episode's directory goes away: Drain seals ingest, Checkpoint
	// waits for any write in flight and lands one more.
	c.Drain()
	if _, err := c.Checkpoint(); err != nil {
		ep.violate("final checkpoint: %v", err)
	}
	tally.st = c.Status().Ingest
	e.tr.count("cp.entries_sent", tally.sent)
	e.tr.count("cp.entries_ingested", int64(tally.st.Ingested))

	ep.work = int64(tally.st.Ingested)
	ep.attempted = tally.sent + polls + int64(len(online))
	ep.failed = tally.failedEntries() + badPolls + roundErrs
	checkConservation(ep, tally)
	checkRounds(ep, online, c.Rounds())
	ep.exactf("cp.decisions_hash", "%016x", decisionsHash(online))
	ep.exactf("cp.rounds", "%d", len(online))
	ep.exactf("cp.entries_sent", "%d", tally.sent)
	ep.exactf("cp.entries_ingested", "%d", tally.st.Ingested)
	ep.exactf("cp.polls", "%d", polls)
	ep.exactf("cp.ops_failed", "%d", ep.failed)

	if e.tr.on && len(ep.violations) == 0 {
		offline, err := offlineDecisions(e, r)
		if err != nil {
			ep.violate("offline pipeline: %v", err)
		} else {
			checkOffline(ep, online, offline)
		}
		if e.probe && len(ep.violations) == 0 {
			ep.layer = probeRounds(e, r, c.Rounds())
		}
	}
	if err := r.close(); err != nil {
		return nil, err
	}
	return ep, nil
}

// checkRounds is cp_rounds' output check on the round history: the replay
// saw at least one round, and what Tick reported is what the controller
// recorded.
func checkRounds(ep *episode, online []decision, recorded []controlplane.RoundReport) {
	if len(online) == 0 {
		ep.violate("no tuning round ran")
	}
	if len(recorded) != len(online) {
		ep.violate("Tick reported %d rounds, the controller recorded %d", len(online), len(recorded))
		return
	}
	for i := range recorded {
		if d := decisionOf(&recorded[i]); d != online[i] {
			ep.violate("round %d: Tick reported %+v, the controller recorded %+v", i+1, online[i], d)
		}
	}
}

// checkOffline requires every online round decision to equal the offline
// pipeline's on the same window.
func checkOffline(ep *episode, online, offline []decision) {
	if len(online) != len(offline) {
		ep.violate("controller ran %d rounds, the offline pipeline %d", len(online), len(offline))
		return
	}
	for i := range online {
		if online[i] != offline[i] {
			ep.violate("round %d: online %+v, offline %+v", i+1, online[i], offline[i])
		}
	}
}

// offlineDecisions replays the controller's windowing rule over the raw
// trace — accumulate intervals in timestamp order, cut a window once its
// telemetry span reaches RoundEvery — and runs the paper's offline
// pipeline on each window with the incumbent chained through:
// model.Compile → tuner.Autotune → tuner.StagedRollout.
func offlineDecisions(e *env, r *roundsRig) ([]decision, error) {
	roundSec := int64(e.sz.RoundEvery / time.Second)
	slo := core.DefaultSLO
	tcfg := roundsTuner
	tcfg.SLO = slo
	mcfg := model.Config{SLO: slo}
	stages := tuner.DefaultRolloutStages
	incumbent := core.DefaultParams
	meta := telemetry.NewTrace()

	var out []decision
	var win []telemetry.Entry
	winStart := int64(-1)
	for i := range r.intervals {
		iv := &r.intervals[i]
		win = append(win, iv.entries...)
		if winStart < 0 {
			winStart = iv.ts
		}
		if iv.ts-winStart < roundSec {
			continue
		}
		round := int64(len(out))
		parent := e.tr.begin("offline round", laneMain, round, noSpan)
		wt := &telemetry.Trace{ScanPeriodSeconds: meta.ScanPeriodSeconds, Thresholds: meta.Thresholds, Entries: win}
		sp := e.tr.begin("model.Compile", laneMain, round, parent)
		ct := model.Compile(wt)
		e.tr.end(sp)
		sp = e.tr.begin("tuner.Autotune", laneMain, round, parent)
		res, err := tuner.Autotune(func(p core.Params) (model.FleetResult, error) {
			mc := mcfg
			mc.Params = p
			run := e.tr.begin("model.CompiledTrace.Run", laneMain, round, sp)
			defer e.tr.end(run)
			return ct.Run(mc)
		}, tcfg)
		e.tr.end(sp)
		if err != nil {
			e.tr.end(parent)
			return nil, fmt.Errorf("window %d: Autotune: %w", len(out)+1, err)
		}
		sp = e.tr.begin("tuner.StagedRollout", laneMain, round, parent)
		dep, err := tuner.StagedRollout(res.Best.Params, incumbent,
			tuner.TraceStageObjective(wt, mcfg, len(stages)), stages, slo)
		e.tr.end(sp)
		e.tr.end(parent)
		if err != nil {
			return nil, fmt.Errorf("window %d: StagedRollout: %w", len(out)+1, err)
		}
		e.tr.count("model.window_entries", int64(len(win)))
		out = append(out, decision{res.Best.Params, dep.Chosen, dep.Accepted, dep.RolledBackAt})
		incumbent = dep.Chosen
		win, winStart = nil, -1
	}
	return out, nil
}

type countingSink struct{ n int }

func (s *countingSink) Append(telemetry.Entry) error { s.n++; return nil }

// probeRounds produces cp_rounds' per-layer metrics: spans of the traced
// replays and of their offline re-runs, the round history, and probes of
// fleet, tracestore, ckpt and gp.
func probeRounds(e *env, r *roundsRig, rounds []controlplane.RoundReport) map[string]float64 {
	L := make(map[string]float64)
	tr := e.tr
	dur := func(name string, unit time.Duration) []float64 {
		return sortedCopy(durationsIn(tr.durations(name), unit))
	}
	reportUs := dur("controlplane.Client.Report", time.Microsecond)
	L["controlplane.http_report_us_p50"] = quantile(reportUs, 0.50)
	L["controlplane.http_report_us_p99"] = quantile(reportUs, 0.99)
	L["controlplane.tick_ms_p99"] = quantile(dur("controlplane.Tick", time.Millisecond), 0.99)
	roundMs := dur("controlplane.Tick+round", time.Millisecond)
	L["controlplane.round_ms_p50"] = quantile(roundMs, 0.50)
	L["controlplane.round_ms_p90"] = quantile(roundMs, 0.90)
	L["controlplane.poll_us_p50"] = quantile(dur("controlplane.Client.Poll", time.Microsecond), 0.50)
	L["model.compile_ms_p50"] = quantile(dur("model.Compile", time.Millisecond), 0.50)
	L["model.replay_us_per_eval"] = quantile(dur("model.CompiledTrace.Run", time.Microsecond), 0.50)
	L["tuner.autotune_ms_p50"] = quantile(dur("tuner.Autotune", time.Millisecond), 0.50)
	L["tuner.rollout_ms_p50"] = quantile(dur("tuner.StagedRollout", time.Millisecond), 0.50)

	var totalEvals, rollbacks, windowEntries int
	for i := range rounds {
		totalEvals += rounds[i].TunerEvals
		windowEntries += rounds[i].Entries
		if !rounds[i].Accepted {
			rollbacks++
		}
	}
	n := float64(len(rounds))
	L["tuner.evals_per_round"] = per(float64(totalEvals), n)
	L["tuner.rollbacks"] = float64(rollbacks)
	L["model.window_entries"] = per(float64(windowEntries), n)

	L["tracestore.scan_entries_per_s"] = float64(r.entries) / r.scan.Seconds()
	L["tracestore.bytes_per_entry"] = float64(r.fileBytes) / float64(r.entries)
	e.span("probe fleet.GenerateTo", func() { probeGenerate(e, L) })
	e.span("probe tracestore.Writer", func() { probeWriter(e, r, L) })
	probeCheckpoint(e, r, L)
	e.span("probe gp sessions", func() { probeGP(e, L) })
	st := r.srv.c.Status().Ingest
	L["controlplane.dropped_entries"] = float64(st.DroppedBackpressure)
	L["controlplane.rejected_entries"] = float64(st.RejectedCorrupt + st.RejectedInvalid)
	return L
}

// probeGenerate and probeWriter separate what set-up does in one streaming
// pass: the generator alone into a discarding sink, and the writer alone
// fed already-generated entries — each over a quarter of the trace.
func probeGenerate(e *env, L map[string]float64) {
	sink := &countingSink{}
	t0 := time.Now()
	err := fleet.GenerateTo(roundsFleet(e, e.sz.RoundsSpan/4), sink)
	d := time.Since(t0)
	if err != nil || sink.n == 0 {
		return
	}
	L["fleet.generate_entries_per_s"] = float64(sink.n) / d.Seconds()
}

func probeWriter(e *env, r *roundsRig, L map[string]float64) {
	f, err := os.Create(filepath.Join(e.tmp, "probe.sdfmts"))
	if err != nil {
		return
	}
	defer f.Close()
	w, err := tracestore.NewWriter(f, tracestore.MetaOf(telemetry.NewTrace()))
	if err != nil {
		return
	}
	written := 0
	t0 := time.Now()
	for i := range r.intervals {
		if written >= r.entries/4 {
			break
		}
		for _, en := range r.intervals[i].entries {
			if w.Append(en) != nil {
				return
			}
			written++
		}
	}
	if w.Close() != nil {
		return
	}
	L["tracestore.write_entries_per_s"] = float64(written) / time.Since(t0).Seconds()
}

// probeCheckpoint times forced snapshots of the drained controller and a
// Restore from the directory they land in.
func probeCheckpoint(e *env, r *roundsRig, L map[string]float64) {
	var writes []float64
	var last string
	for i := 0; i < 5; i++ {
		sp := e.tr.begin("controlplane.Checkpoint", laneMain, int64(i), noSpan)
		t0 := time.Now()
		path, err := r.srv.c.Checkpoint()
		d := time.Since(t0)
		e.tr.end(sp)
		if err != nil {
			return
		}
		writes = append(writes, ms(d))
		last = path
	}
	L["ckpt.write_ms_p50"] = median(writes)
	if st, err := os.Stat(last); err == nil {
		L["ckpt.bytes"] = float64(st.Size())
	}
	var restores []float64
	for i := 0; i < 3; i++ {
		sp := e.tr.begin("controlplane.Restore", laneMain, int64(i), noSpan)
		t0 := time.Now()
		_, rep, err := controlplane.Restore(r.cfg)
		d := time.Since(t0)
		e.tr.end(sp)
		if err != nil || !rep.Restored {
			return
		}
		restores = append(restores, ms(d))
	}
	L["ckpt.restore_ms"] = median(restores)
}

// probeGP times a 20-evaluation Autotune session on a free objective, so
// the GP fit and acquisition are all that is left.
func probeGP(e *env, L map[string]float64) {
	obj := func(p core.Params) (model.FleetResult, error) {
		return model.FleetResult{Coverage: (100 - p.K) / 100 * 0.3, P98Rate: 0.001}, nil
	}
	var sessions []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		_, err := tuner.Autotune(obj, tuner.Config{SLO: core.DefaultSLO, Seed: e.seed + int64(i), InitSamples: 5, Iterations: 15})
		d := time.Since(t0)
		if err != nil {
			return
		}
		sessions = append(sessions, ms(d))
	}
	L["gp.session_ms"] = median(sessions)
}
