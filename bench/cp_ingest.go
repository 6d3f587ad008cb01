package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"sdfm/internal/controlplane"
	"sdfm/internal/controlplane/wire"
	"sdfm/internal/fleet"
	"sdfm/internal/telemetry"
)

// ingestTick is how often the campaign's Tick goroutine drains the queues.
const ingestTick = 20 * time.Millisecond

// neverRound is a tuning window no campaign's telemetry can span.
const neverRound = (1 << 30) * time.Second

// ingestRig is one campaign's set-up: a fresh controller (daemon defaults,
// rounds off) behind a real listener, one keep-alive client per load
// worker, the registered agents and each agent's report batch.
type ingestRig struct {
	srv     *cpServer
	cls     []*controlplane.Client
	ids     []string
	batches [][]telemetry.Entry // per agent
	reports int
}

// ingestBatches derives every agent's batch from the seed: one generated
// machine's entries (the sdfmd -loadgen template), re-keyed per agent so
// the controller sees distinct jobs per agent, checksums restamped.
func ingestBatches(seed int64, ids []string, batch int) ([][]telemetry.Entry, error) {
	tr, err := fleet.Generate(fleet.Config{
		Clusters: 1, MachinesPerCluster: 1, JobsPerMachine: 4,
		Duration: 2 * time.Hour, Interval: 5 * time.Minute, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	if tr.Len() == 0 {
		return nil, fmt.Errorf("fleet.Generate produced no entries")
	}
	out := make([][]telemetry.Entry, len(ids))
	for a, id := range ids {
		b := make([]telemetry.Entry, batch)
		for i := range b {
			b[i] = tr.Entries[i%tr.Len()]
			b[i].Key.Machine = id
			b[i].Checksum = b[i].ComputeChecksum()
		}
		out[a] = b
	}
	return out, nil
}

// newIngestRig sets a campaign up. With handler nil the server is a fresh
// controller's; otherwise handler stands in for it (the null-server probe).
func newIngestRig(e *env, handler http.Handler) (*ingestRig, error) {
	sz := e.sz
	r := &ingestRig{reports: sz.IngestReports}
	r.ids = make([]string, sz.IngestAgents)
	for a := range r.ids {
		r.ids[a] = fmt.Sprintf("bench/agent-%03d", a)
	}
	var err error
	if r.batches, err = ingestBatches(e.seed, r.ids, sz.IngestBatch); err != nil {
		return nil, err
	}
	e.inputsReady()
	if handler != nil {
		r.srv, err = serveHandler(nil, handler)
	} else {
		var c *controlplane.Controller
		if c, err = controlplane.New(controlplane.Config{RoundEvery: neverRound}); err == nil {
			r.srv, err = startServer(c)
		}
	}
	if err != nil {
		return nil, err
	}
	r.cls = make([]*controlplane.Client, loadWorkers())
	for k := range r.cls {
		r.cls[k] = newClient(r.srv.url)
	}
	if handler == nil {
		if err := registerAgents(context.Background(), r.cls, r.ids); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

func (r *ingestRig) close() error {
	for _, cl := range r.cls {
		cl.HTTP.CloseIdleConnections()
	}
	return r.srv.stop()
}

// drive sends the campaign: every load worker reports its share of the
// agents, closed loop, while a Tick goroutine drains the queues; it returns
// once every report is answered and the ticker has stopped. parent is the
// campaign's span.
func (r *ingestRig) drive(e *env, id int64, parent spanRef) (ingestTally, []time.Duration) {
	ctx := context.Background()
	tallies := make([]ingestTally, len(r.cls)) // one per worker, summed at the end
	lats := make([][]time.Duration, len(r.cls))

	stop := make(chan struct{})
	var ticker sync.WaitGroup
	if c := r.srv.c; c != nil {
		ticker.Add(1)
		go func() {
			defer ticker.Done()
			t := time.NewTicker(ingestTick)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if e.tr.on {
						depth := 0
						for _, a := range c.Status().Agents {
							depth += a.QueueDepth
						}
						e.tr.max("cp.queue_depth_max", int64(depth))
					}
					sp := e.tr.begin("controlplane.Tick", laneTicker, id, parent)
					rep := c.Tick()
					e.tr.end(sp)
					e.tr.count("cp.entries_drained", int64(rep.Drained))
				case <-stop:
					return
				}
			}
		}()
	}

	var workers sync.WaitGroup
	for k := range r.cls {
		workers.Add(1)
		go func(k int) {
			defer workers.Done()
			cl := r.cls[k]
			t := &tallies[k]
			lat := make([]time.Duration, 0, r.reports*(len(r.ids)/len(r.cls)+1))
			for rep := 0; rep < r.reports; rep++ {
				for a := k; a < len(r.ids); a += len(r.cls) {
					n := int64(len(r.batches[a]))
					sp := e.tr.begin("controlplane.Client.Report", laneWorker0+k, id, parent)
					t0 := time.Now()
					resp, err := cl.Report(ctx, controlplane.ReportRequest{AgentID: r.ids[a], Entries: r.batches[a]})
					lat = append(lat, time.Since(t0))
					e.tr.end(sp)
					t.sent += n
					if err != nil {
						t.transportErrs += n
						continue
					}
					t.accepted += int64(resp.Accepted)
					t.dropped += int64(resp.Dropped)
				}
			}
			e.tr.count("cp.entries_sent", t.sent)
			lats[k] = lat
		}(k)
	}
	workers.Wait()
	close(stop)
	ticker.Wait()
	var tally ingestTally
	var all []time.Duration
	for k, t := range tallies {
		tally.sent += t.sent
		tally.accepted += t.accepted
		tally.dropped += t.dropped
		tally.transportErrs += t.transportErrs
		all = append(all, lats[k]...)
	}
	return tally, all
}

// campaign is one fixed catch-up campaign, first send → Drain return.
func (r *ingestRig) campaign(e *env, id int64) (ingestTally, []time.Duration) {
	parent := e.tr.begin("campaign", laneMain, id, noSpan)
	tally, lats := r.drive(e, id, parent)
	sp := e.tr.begin("controlplane.Drain", laneMain, id, parent)
	r.srv.c.Drain()
	e.tr.end(sp)
	e.tr.end(parent)
	tally.st = r.srv.c.Status().Ingest
	e.tr.count("cp.entries_ingested", int64(tally.st.Ingested))
	return tally, lats
}

func cpIngestEpisode(e *env) (*episode, error) {
	r, err := newIngestRig(e, nil)
	if err != nil {
		return nil, err
	}
	ep := &episode{}
	w := e.begin(ep, 1)
	tally, lats := r.campaign(e, e.idx)
	w.lap()
	w.finish()

	ep.work = int64(tally.st.Ingested)
	ep.lat = lats
	ep.attempted = tally.sent
	ep.failed = tally.failedEntries()
	checkConservation(ep, tally)
	ep.exactf("cp.entries_sent", "%d", tally.sent)
	ep.exactf("cp.entries_ingested", "%d", tally.st.Ingested)
	ep.exactf("cp.reports", "%d", tally.st.Reports)
	ep.exactf("cp.entries_failed", "%d", ep.failed)

	if e.probe && len(ep.violations) == 0 {
		ep.layer = probeIngest(e, r, ep, tally)
	}
	if err := r.close(); err != nil {
		return nil, err
	}
	return ep, nil
}

// probeIngest produces cp_ingest's per-layer metrics: spans of the traced
// campaigns, the controller's counters, and probes of wire, telemetry
// validation, direct enqueue and Tick, a null server, and GOMAXPROCS=1.
func probeIngest(e *env, r *ingestRig, ep *episode, tally ingestTally) map[string]float64 {
	L := make(map[string]float64)
	reportUs := sortedCopy(durationsIn(e.tr.durations("controlplane.Client.Report"), time.Microsecond))
	L["controlplane.http_report_us_p50"] = quantile(reportUs, 0.50)
	L["controlplane.http_report_us_p99"] = quantile(reportUs, 0.99)
	L["controlplane.tick_ms_p99"] = quantile(sortedCopy(durationsIn(e.tr.durations("controlplane.Tick"), time.Millisecond)), 0.99)
	L["controlplane.drain_ms_p50"] = median(durationsIn(e.tr.durations("controlplane.Drain"), time.Millisecond))
	L["controlplane.queue_depth_max"] = float64(e.tr.counts["cp.queue_depth_max"])
	L["controlplane.dropped_entries"] = float64(tally.dropped)
	L["controlplane.rejected_entries"] = float64(tally.st.RejectedCorrupt + tally.st.RejectedInvalid)

	batch := r.batches[0]
	e.span("probe wire", func() { probeWire(r.ids[0], batch, L) })
	e.span("probe telemetry", func() {
		L["telemetry.validate_ns_per_entry"] = validateNsPerEntry(batch, len(telemetry.DefaultThresholds))
	})
	e.span("probe direct ingest", func() { probeDirectIngest(r, L) })
	// The remaining probes run whole campaigns of their own; their spans
	// would pollute the measured campaigns' statistics, so each is one
	// span and its campaigns run untraced.
	untraced := func(f func()) {
		e.tr.on = false
		f()
		e.tr.on = true
	}
	e.span("probe null server", func() { untraced(func() { probeNullServer(e, ep, L) }) })
	e.span("probe GOMAXPROCS=1", func() { untraced(func() { probeScaling(e, L) }) })
	return L
}

// probeWire times the report frame codec on one agent's batch.
func probeWire(agent string, batch []telemetry.Entry, L map[string]float64) {
	const iters = 2000
	n := float64(iters * len(batch))
	frame, err := wire.AppendReportBatch(nil, agent, batch)
	if err != nil {
		return
	}
	buf := append([]byte(nil), frame...)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if buf, err = wire.AppendReportBatch(buf[:0], agent, batch); err != nil {
			return
		}
	}
	L["wire.encode_ns_per_entry"] = float64(time.Since(t0)) / n
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		if _, _, err := wire.DecodeReportBatch(frame); err != nil {
			return
		}
	}
	L["wire.decode_ns_per_entry"] = float64(time.Since(t0)) / n
	runtime.ReadMemStats(&b)
	L["wire.decode_allocs_per_report"] = float64(b.Mallocs-a.Mallocs) / iters
	L["wire.bytes_per_entry"] = float64(len(frame)) / float64(len(batch))
}

// probeDirectIngest feeds a fresh controller the campaign's reports through
// Controller.Report with no HTTP in between, then drains it with Tick.
func probeDirectIngest(r *ingestRig, L map[string]float64) {
	c, err := controlplane.New(controlplane.Config{RoundEvery: neverRound})
	if err != nil {
		return
	}
	for _, id := range r.ids {
		if _, err := c.Register(controlplane.RegisterRequest{AgentID: id}); err != nil {
			return
		}
	}
	var entries int
	t0 := time.Now()
	for rep := 0; rep < r.reports; rep++ {
		for a, id := range r.ids {
			resp, err := c.Report(controlplane.ReportRequest{AgentID: id, Entries: r.batches[a]})
			if err != nil {
				return
			}
			entries += resp.Accepted
		}
	}
	L["controlplane.enqueue_ns_per_entry"] = per(float64(time.Since(t0)), float64(entries))
	var drained int
	t0 = time.Now()
	for {
		rep := c.Tick()
		drained += rep.Drained
		if rep.Remaining == 0 {
			break
		}
	}
	L["controlplane.tick_ns_per_entry"] = per(float64(time.Since(t0)), float64(drained))
}

// probeNullServer sends one campaign's reports at a handler that discards
// them, pricing the load generator plus the HTTP stack; its CPU per report
// over the real campaign's is an upper bound on the share of the measured
// window's CPU that is the harness itself.
func probeNullServer(e *env, ep *episode, L map[string]float64) {
	null := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		io.Copy(io.Discard, req.Body)
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"accepted":0,"dropped":0,"queue_free":0,"epoch":0}`)
	})
	r, err := newIngestRig(e, null)
	if err != nil {
		return
	}
	defer r.close()
	cpu0 := processCPU()
	_, lats := r.drive(e, 0, noSpan)
	nullCPU := processCPU() - cpu0
	L["bench.gen_cpu_share"] = per(float64(nullCPU)/float64(len(lats)), float64(ep.cpu)/float64(len(ep.lat)))
}

// probeScaling runs campaigns at GOMAXPROCS 1 and at the host's setting,
// alternating: Tick's ingest under the control mutex is the serial part
// the ratio exposes as cores are added.
func probeScaling(e *env, L map[string]float64) {
	const pairs = 4
	full := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(full)
	rates := map[int][]float64{}
	for i := 0; i < 2*pairs; i++ {
		procs := full
		if i%2 == 0 {
			procs = 1
		}
		runtime.GOMAXPROCS(procs)
		r, err := newIngestRig(e, nil)
		if err != nil {
			return
		}
		t0 := time.Now()
		tally, _ := r.campaign(e, 0)
		d := time.Since(t0)
		r.close()
		rates[procs] = append(rates[procs], float64(tally.st.Ingested)/d.Seconds())
	}
	L["controlplane.ingest_entries_per_s_p1"] = median(rates[1])
	L["controlplane.ingest_scaling_x"] = per(median(rates[full]), median(rates[1]))
}
