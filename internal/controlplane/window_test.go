package controlplane

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"sdfm/internal/controlplane/ckpt"
	"sdfm/internal/controlplane/wire"
	"sdfm/internal/core"
	"sdfm/internal/model"
	"sdfm/internal/telemetry"
)

// ingestAll reports entries for agent id in batches of batch, damaging
// every 97th entry's checksum, and Ticks after each batch. It returns the
// entries that pass validation, in ingest order.
func ingestAll(t *testing.T, c *Controller, id string, entries []telemetry.Entry, batch int) []telemetry.Entry {
	t.Helper()
	var valid []telemetry.Entry
	for lo := 0; lo < len(entries); lo += batch {
		b := append([]telemetry.Entry(nil), entries[lo:min(lo+batch, len(entries))]...)
		for i := range b {
			if (lo+i)%97 == 0 {
				b[i].Checksum ^= 1
			} else {
				valid = append(valid, b[i])
			}
		}
		if _, err := c.Report(ReportRequest{AgentID: id, Entries: b}); err != nil {
			t.Fatal(err)
		}
		c.Tick()
	}
	return valid
}

// checkWindow holds the segmented window to the flat slice of validated
// entries the controller kept before its window had segments: the same
// entries in ingest order, and segments of windowSegMin doubling up to
// windowSegMax, none copied.
func checkWindow(t *testing.T, c *Controller, want []telemetry.Entry) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if got := flattenWindow(c.window); c.windowLen != len(want) || !reflect.DeepEqual(got, want) {
		t.Fatalf("window holds %d entries (windowLen %d), want the %d validated ones in ingest order",
			len(got), c.windowLen, len(want))
	}
	if st := c.windowStartLocked(); st != want[0].TimestampSec {
		t.Errorf("window starts at %d, want %d", st, want[0].TimestampSec)
	}
	for i, seg := range c.window[:max(len(c.window)-1, 0)] {
		if len(seg) != cap(seg) {
			t.Errorf("segment %d of %d holds %d of %d entries before the last", i, len(c.window), len(seg), cap(seg))
		}
	}
}

// TestSegmentedWindowMatchesFlat ingests across several segment
// boundaries, past the largest segment size, and holds what the window
// feeds — a round's compile, a checkpoint's bytes, a restore — to what
// the flat slice of the same entries gives.
func TestSegmentedWindowMatchesFlat(t *testing.T) {
	dir := t.TempDir()
	cfg := ckptTestConfig(dir)
	cfg.RoundEvery = 1000 * time.Hour
	cfg.CheckpointEvery = 1000 * time.Hour
	cfg.QueueCap = 1 << 20
	cfg.BatchSize = 1 << 20
	c := newTestController(t, cfg)
	if _, err := c.Register(RegisterRequest{AgentID: "a"}); err != nil {
		t.Fatal(err)
	}
	tr := testTrace(t, 1, 4, 5, 24*time.Hour, 3) // 5,760 entries
	half := len(tr.Entries) / 2

	// Each window: segments of 64, 128, …, 1024, then 1024 again.
	want := ingestAll(t, c, "a", tr.Entries[:half], 37)
	checkWindow(t, c, want)
	if n := len(c.window); n < 4 || cap(c.window[0]) != windowSegMin || cap(c.window[n-1]) != windowSegMax {
		t.Fatalf("%d segments of first cap %d and last cap %d, want several from %d up to %d",
			n, cap(c.window[0]), cap(c.window[n-1]), windowSegMin, windowSegMax)
	}
	flat := telemetry.NewTrace()
	flat.Entries = want
	segCT := model.CompileSegments(telemetry.DefaultThresholds, c.window)
	flatCT := model.Compile(flat)
	mcfg := model.Config{SLO: core.DefaultSLO, Params: core.DefaultParams}
	segRes, err := segCT.Run(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	flatRes, err := flatCT.Run(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if segCT.Jobs() != flatCT.Jobs() || segCT.Intervals() != flatCT.Intervals() || !reflect.DeepEqual(segRes, flatRes) {
		t.Fatalf("the segments compile to %d jobs / %d intervals, the flat window to %d / %d, replays equal: %v",
			segCT.Jobs(), segCT.Intervals(), flatCT.Jobs(), flatCT.Intervals(), reflect.DeepEqual(segRes, flatRes))
	}
	rr, err := c.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if rr.Entries != len(want) || rr.Jobs != flatCT.Jobs() || rr.WindowStartSec != want[0].TimestampSec {
		t.Errorf("round judged %d entries of %d jobs from %d, want %d of %d from %d",
			rr.Entries, rr.Jobs, rr.WindowStartSec, len(want), flatCT.Jobs(), want[0].TimestampSec)
	}
	if st := c.Status(); st.WindowEntries != 0 || st.WindowStartSec != -1 {
		t.Errorf("after the round the window holds %d entries from %d, want none", st.WindowEntries, st.WindowStartSec)
	}

	// Window two, checkpointed: the file holds a flat window's bytes.
	want = ingestAll(t, c, "a", tr.Entries[half:], 53)
	checkWindow(t, c, want)
	path, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	s, _ := c.snapshotLocked()
	c.mu.Unlock()
	s.Window = want
	wantBytes, err := ckpt.Encode(nil, s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantBytes) {
		t.Fatalf("checkpoint of the segmented window is %d bytes, not the flat window's %d", len(got), len(wantBytes))
	}

	// Restored, the window is one segment, and ingest appends past it.
	r, _, err := Restore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	checkWindow(t, r, want)
	if st := r.Status(); st.WindowEntries != len(want) || st.WindowStartSec != want[0].TimestampSec {
		t.Errorf("restored status: %d entries from %d, want %d from %d", st.WindowEntries, st.WindowStartSec, len(want), want[0].TimestampSec)
	}
	more := testTrace(t, 1, 2, 3, 12*time.Hour, 4)
	want = append(want, ingestAll(t, r, "a", more.Entries, 41)...)
	checkWindow(t, r, want)
}

// TestReportFrameNotAliased sends report frames through the server's
// pooled buffers and scribbles over them after each one: the entries in
// the window must be the ones sent. A decoder whose keys or values were
// views of the frame, or a queue that kept the decoded entry array
// instead of copying it, would hand the window what the next report
// overwrites.
func TestReportFrameNotAliased(t *testing.T) {
	c := newTestController(t, Config{QueueCap: 1 << 16, BatchSize: 1 << 16})
	srv := NewServer(c, nil).Handler()
	tr := testTrace(t, 2, 2, 3, time.Hour, 5)
	byAgent := map[string][]telemetry.Entry{}
	var ids []string
	for _, e := range tr.Entries {
		id := e.Key.Cluster + "/" + e.Key.Machine
		if byAgent[id] == nil {
			ids = append(ids, id)
			if _, err := c.Register(RegisterRequest{AgentID: id}); err != nil {
				t.Fatal(err)
			}
		}
		byAgent[id] = append(byAgent[id], e)
	}
	sort.Strings(ids) // Tick's drain order
	for i, id := range ids {
		frame, err := wire.AppendReportBatch(nil, id, byAgent[id])
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/report", bytes.NewReader(frame))
		req.Header.Set("Content-Type", wire.ContentType)
		if i%2 == 1 {
			req.ContentLength = -1 // read to the limit, not sized up front
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("report from %s: HTTP %d: %s", id, rec.Code, rec.Body)
		}
		// Get hands back the buffers the handler just returned.
		rb := reportBufPool.Get().(*reportBufs)
		b := rb.frame.Bytes()[:rb.frame.Cap()]
		for i := range b {
			b[i] = 0xA5
		}
		junk := telemetry.Entry{Key: telemetry.JobKey{Job: "junk"}, TimestampSec: -1}
		all := rb.entries[:cap(rb.entries)]
		for i := range all {
			all[i] = junk
		}
		reportBufPool.Put(rb)
	}
	c.Tick()
	var want []telemetry.Entry
	for _, id := range ids {
		want = append(want, byAgent[id]...)
	}
	checkWindow(t, c, want)
}
