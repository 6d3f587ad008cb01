package controlplane

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sdfm/internal/core"
	"sdfm/internal/obs"
)

// TestHTTPTransportRoundTrip exercises the full JSON protocol through a
// real HTTP server: register → report → tick → forced round → poll →
// statusz → metrics, plus the error mapping. The Client implements
// Transport, so the same Agent code used against Loopback drives it.
func TestHTTPTransportRoundTrip(t *testing.T) {
	ctx := context.Background()
	hub := obs.NewMulti(obs.Label{Key: "run", Value: "test"})
	c := newTestController(t, Config{Obs: hub.Observer("controlplane")})
	srv := httptest.NewServer(NewServer(c, hub).Handler())
	defer srv.Close()
	cl := NewClient(srv.URL)

	tr := testTrace(t, 1, 1, 3, 2*time.Hour, 4)
	a := NewAgent("cluster-00/m0000", cl)
	if err := a.Register(ctx); err != nil {
		t.Fatalf("Register over HTTP: %v", err)
	}
	resp, err := a.Report(ctx, tr.Entries)
	if err != nil {
		t.Fatalf("Report over HTTP: %v", err)
	}
	if resp.Accepted != len(tr.Entries) || resp.Dropped != 0 {
		t.Errorf("report = accepted %d dropped %d, want %d/0", resp.Accepted, resp.Dropped, len(tr.Entries))
	}
	c.Tick()

	rr, err := cl.ForceRound(ctx)
	if err != nil {
		t.Fatalf("ForceRound: %v", err)
	}
	if rr.Round != 1 || rr.Entries != len(tr.Entries) {
		t.Errorf("forced round = %+v, want round 1 over %d entries", rr, len(tr.Entries))
	}

	params, _, err := a.Poll(ctx)
	if err != nil {
		t.Fatalf("Poll over HTTP: %v", err)
	}
	if params != rr.Chosen {
		t.Errorf("polled params %+v, round chose %+v", params, rr.Chosen)
	}

	st, err := cl.Status(ctx)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if st.Rounds != 1 || len(st.Agents) != 1 || st.Incumbent != rr.Chosen {
		t.Errorf("statusz = rounds %d agents %d incumbent %+v, want 1/1/%+v",
			st.Rounds, len(st.Agents), st.Incumbent, rr.Chosen)
	}

	metrics, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	for _, want := range []string{"sdfm_cp_agents", "sdfm_cp_rounds_total", "sdfm_cp_deployed_k"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	ctx := context.Background()
	c := newTestController(t, Config{})
	srv := httptest.NewServer(NewServer(c, nil).Handler())
	defer srv.Close()
	cl := NewClient(srv.URL)

	// Unknown agent → 404.
	if _, err := cl.Poll(ctx, PollRequest{AgentID: "ghost"}); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("poll of unknown agent: err = %v, want HTTP 404", err)
	}
	// Empty window → 409.
	if _, err := cl.ForceRound(ctx); err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("forced round on empty window: err = %v, want HTTP 409", err)
	}
	// Wrong method → 405 with Allow.
	resp, err := http.Get(srv.URL + "/v1/register")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
		t.Errorf("GET /v1/register = %d Allow=%q, want 405 Allow=POST", resp.StatusCode, resp.Header.Get("Allow"))
	}
	// Malformed body → 400.
	resp, err = http.Post(srv.URL+"/v1/register", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed register body = %d, want 400", resp.StatusCode)
	}
	// Health endpoint is always up.
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d, want 200", resp.StatusCode)
	}
}

// TestStatusJSONPinned pins the JSON /statusz and /v1/round serve: every
// key, its order and its encoding, for a fully populated Status and for
// an accepted round (whose empty rolled_back_at and err are omitted). The
// literals were captured before RoundReport and IngestStats became the
// checkpoint's own types; a change here is a change to the HTTP API.
func TestStatusJSONPinned(t *testing.T) {
	rolledBack := RoundReport{
		Round: 2, WindowStartSec: 3600, WindowEndSec: 7200, Entries: 14, Jobs: 3, TunerEvals: 96,
		Candidate:    core.Params{K: 99, S: 10 * time.Minute},
		Chosen:       core.Params{K: 98.5, S: 17 * time.Minute},
		RolledBackAt: "canary", Reason: `rolled back at "canary": p98 above SLO`,
		Coverage: 0.21, P98Rate: 0.0011, GapIntervals: 4, Completeness: 0.96,
		Err: "tuner: SLO violated",
	}
	st := Status{
		Agents: []AgentStatus{{
			ID: "c0/m0", QueueDepth: 3, Dropped: 1, Reports: 24, LastReportSec: 7500,
			Params: core.Params{K: 98.5, S: 17 * time.Minute}, Epoch: 9,
		}},
		Epoch:          9,
		Incumbent:      core.Params{K: 98.5, S: 17 * time.Minute},
		Draining:       true,
		WindowStartSec: 7500,
		WindowEndSec:   7800,
		WindowEntries:  6,
		Ingest: IngestStats{
			Reports: 47, Received: 188, Ingested: 185,
			DroppedBackpressure: 1, RejectedCorrupt: 1, RejectedInvalid: 1,
		},
		Rounds:    2,
		LastRound: &rolledBack,
	}
	accepted := RoundReport{
		Round: 1, WindowEndSec: 3600, Entries: 12, Jobs: 2, TunerEvals: 96,
		Candidate: core.Params{K: 98.5, S: 17 * time.Minute},
		Chosen:    core.Params{K: 98.5, S: 17 * time.Minute},
		Accepted:  true, Reason: "accepted after 2 stages",
		Coverage: 0.19, P98Rate: 0.0004, Completeness: 1,
	}
	for _, tc := range []struct {
		name string
		v    any
		want string
	}{
		{"status", st, `{"agents":[{"id":"c0/m0","queue_depth":3,"dropped":1,"reports":24,"last_report_sec":7500,"params":{"K":98.5,"S":1020000000000},"epoch":9}],"epoch":9,"incumbent":{"K":98.5,"S":1020000000000},"draining":true,"window_start_sec":7500,"window_end_sec":7800,"window_entries":6,"ingest":{"reports":47,"received":188,"ingested":185,"dropped_backpressure":1,"rejected_corrupt":1,"rejected_invalid":1},"rounds":2,"last_round":{"round":2,"window_start_sec":3600,"window_end_sec":7200,"entries":14,"jobs":3,"tuner_evals":96,"candidate":{"K":99,"S":600000000000},"chosen":{"K":98.5,"S":1020000000000},"accepted":false,"rolled_back_at":"canary","reason":"rolled back at \"canary\": p98 above SLO","coverage":0.21,"p98_rate":0.0011,"gap_intervals":4,"completeness":0.96,"err":"tuner: SLO violated"}}`},
		{"round", accepted, `{"round":1,"window_start_sec":0,"window_end_sec":3600,"entries":12,"jobs":2,"tuner_evals":96,"candidate":{"K":98.5,"S":1020000000000},"chosen":{"K":98.5,"S":1020000000000},"accepted":true,"reason":"accepted after 2 stages","coverage":0.19,"p98_rate":0.0004,"gap_intervals":0,"completeness":1}`},
	} {
		got, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(got) != tc.want {
			t.Errorf("%s JSON changed:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
