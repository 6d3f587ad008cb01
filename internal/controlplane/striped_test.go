package controlplane

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdfm/internal/obs"
)

// TestConcurrentReportersAgainstTickingController hammers the striped
// ingest path under the race detector: 32 agents, twice the stripe
// count, report concurrently while one goroutine ticks, one scrapes
// /metrics, and one snapshots Status. Afterwards the lifetime accounting
// must balance exactly — every received entry is either ingested,
// backpressure-dropped, or rejected, and nothing is double- or
// under-counted across stripes.
func TestConcurrentReportersAgainstTickingController(t *testing.T) {
	hub := obs.NewMulti()
	c := newTestController(t, Config{
		QueueCap:   256,
		BatchSize:  64,
		RoundEvery: 1000 * time.Hour,
		Obs:        hub.Observer("controlplane"),
	})
	tr := testTrace(t, 1, 2, 2, time.Hour, 3)
	const agents = 32
	const reportsPerAgent = 25
	ids := make([]string, agents)
	for i := range ids {
		ids[i] = fmt.Sprintf("racer-%02d", i)
		if _, err := c.Register(RegisterRequest{AgentID: ids[i]}); err != nil {
			t.Fatalf("Register %s: %v", ids[i], err)
		}
	}

	var accepted, dropped, sent atomic.Int64
	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(2)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Tick()
			}
		}
	}()
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Status()
				var sb strings.Builder
				if err := c.RenderMetrics(hub, &sb); err != nil {
					t.Errorf("RenderMetrics: %v", err)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(id string, seed int) {
			defer wg.Done()
			for r := 0; r < reportsPerAgent; r++ {
				n := 1 + (seed+r)%16
				if n > len(tr.Entries) {
					n = len(tr.Entries)
				}
				resp, err := c.Report(ReportRequest{AgentID: id, Entries: tr.Entries[:n]})
				if err != nil {
					t.Errorf("Report %s: %v", id, err)
					return
				}
				if resp.Accepted+resp.Dropped != n {
					t.Errorf("Report %s: accepted %d + dropped %d != sent %d",
						id, resp.Accepted, resp.Dropped, n)
				}
				sent.Add(int64(n))
				accepted.Add(int64(resp.Accepted))
				dropped.Add(int64(resp.Dropped))
			}
		}(ids[i], i)
	}
	wg.Wait()
	close(stop)
	aux.Wait()

	c.Drain()
	st := c.Status()
	in := st.Ingest
	if in.Received != uint64(sent.Load()) {
		t.Errorf("received %d, agents sent %d", in.Received, sent.Load())
	}
	if in.DroppedBackpressure != uint64(dropped.Load()) {
		t.Errorf("dropped %d, agents saw %d drops", in.DroppedBackpressure, dropped.Load())
	}
	// Every acknowledged entry must reach the tuning window (entries in
	// the generated trace are valid, so no rejects).
	if in.Ingested != uint64(accepted.Load()) || in.RejectedCorrupt != 0 || in.RejectedInvalid != 0 {
		t.Errorf("ingested %d (rejects %d/%d), agents had %d entries acked",
			in.Ingested, in.RejectedCorrupt, in.RejectedInvalid, accepted.Load())
	}
	if in.Received != in.Ingested+in.DroppedBackpressure {
		t.Errorf("conservation: received %d != ingested %d + dropped %d",
			in.Received, in.Ingested, in.DroppedBackpressure)
	}
	if in.Reports != uint64(agents*reportsPerAgent) {
		t.Errorf("reports %d, want %d", in.Reports, agents*reportsPerAgent)
	}

	// The rendered exposition must agree with the striped totals.
	var sb strings.Builder
	if err := c.RenderMetrics(hub, &sb); err != nil {
		t.Fatalf("RenderMetrics: %v", err)
	}
	want := fmt.Sprintf("sdfm_cp_entries_received_total %d", in.Received)
	if !strings.Contains(sb.String(), want) {
		t.Errorf("exposition missing %q", want)
	}
}

// gatedWriter simulates a stalled metrics scraper: the first Write
// parks until released.
type gatedWriter struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (w *gatedWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		close(w.entered)
		<-w.release
	})
	return len(p), nil
}

// TestReportNotBlockedBySlowScrape pins the RenderMetrics fix: the
// exposition is rendered into a buffer under the control mutex and
// written to the scraper with no locks held, and Report never takes the
// control mutex at all — so a scraper that stalls mid-read cannot stall
// ingest.
func TestReportNotBlockedBySlowScrape(t *testing.T) {
	hub := obs.NewMulti()
	c := newTestController(t, Config{Obs: hub.Observer("controlplane")})
	if _, err := c.Register(RegisterRequest{AgentID: "a"}); err != nil {
		t.Fatal(err)
	}
	tr := testTrace(t, 1, 1, 1, time.Hour, 5)

	gw := &gatedWriter{entered: make(chan struct{}), release: make(chan struct{})}
	scrapeDone := make(chan error, 1)
	go func() { scrapeDone <- c.RenderMetrics(hub, gw) }()
	<-gw.entered // scraper is now parked mid-Write

	reported := make(chan error, 1)
	go func() {
		_, err := c.Report(ReportRequest{AgentID: "a", Entries: tr.Entries[:4]})
		reported <- err
	}()
	select {
	case err := <-reported:
		if err != nil {
			t.Fatalf("Report during stalled scrape: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Report blocked behind a stalled metrics scrape")
	}
	// Tick and Status take the control mutex, which the stalled scrape
	// must not be holding either.
	tickDone := make(chan TickReport, 1)
	go func() { tickDone <- c.Tick() }()
	select {
	case rep := <-tickDone:
		if rep.Drained != 4 {
			t.Errorf("tick drained %d, want 4", rep.Drained)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Tick blocked behind a stalled metrics scrape")
	}

	close(gw.release)
	if err := <-scrapeDone; err != nil {
		t.Fatalf("RenderMetrics: %v", err)
	}
}
