package controlplane

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
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

// windowEntries materializes the open window, in ingest order. Caller
// holds the control mutex, or owns the controller alone.
func windowEntries(c *Controller) []telemetry.Entry {
	return c.window.View().Entries()
}

// checkWindow holds the window to the validated entries it was fed: the
// same entries, in ingest order, starting at the first one's timestamp.
func checkWindow(t *testing.T, c *Controller, want []telemetry.Entry) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if got := windowEntries(c); c.window.Len() != len(want) || len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("window holds %d entries (Len %d), want the %d validated ones in ingest order",
			len(got), c.window.Len(), len(want))
	}
	if len(want) > 0 && c.windowStart != want[0].TimestampSec {
		t.Errorf("window starts at %d, want %d", c.windowStart, want[0].TimestampSec)
	}
}

// windowKeys are the jobs fuzzWindowEntries draws from: two that print
// alike ("a/b/c/d"), and one that is rare enough to hold one row.
var windowKeys = []telemetry.JobKey{
	{Cluster: "c", Machine: "m", Job: "j0"},
	{Cluster: "c", Machine: "m", Job: "j1"},
	{Cluster: "a", Machine: "b/c", Job: "d"},
	{Cluster: "a/b", Machine: "c", Job: "d"},
	{Cluster: "c", Machine: "m2", Job: "j0"},
}

// Window operations a record may ask for after its entry is reported.
const (
	opTick     = iota // drain what is queued into the window
	opSnapshot        // drain, then cut a checkpoint snapshot
	opCut             // drain, then take the window as a round would
	opNone
)

// fuzzWindowEntries decodes data, four bytes a record, into valid,
// stamped entries and the operation each asks for. Timestamps fall on
// eight 5-minute slots, so equal and out-of-order ones within a job are
// common; a fifth of entries have CompressibleFrac 0 and a fifth 1.
func fuzzWindowEntries(data []byte) ([]telemetry.Entry, []int) {
	nT := len(telemetry.DefaultThresholds)
	var entries []telemetry.Entry
	var ops []int
	for ; len(data) >= 4; data = data[4:] {
		b0, b1, b2, b3 := data[0], data[1], data[2], data[3]
		key := windowKeys[int(b0)%len(windowKeys)]
		if key.Machine == "m2" && b0%3 != 0 {
			key = windowKeys[0]
		}
		e := telemetry.Entry{
			Key:              key,
			TimestampSec:     int64(b1%8+1) * 300,
			IntervalMinutes:  float64(5 + b3%2),
			WSSPages:         uint64(b3%5) * 100,
			TotalPages:       1 << 16,
			ColdTails:        make([]uint64, nT),
			PromoTails:       make([]uint64, nT),
			CompressibleFrac: []float64{0, 1, 0.5, 0.37, 0.9}[int(b2)%5],
		}
		for i := range nT {
			e.ColdTails[i] = (uint64(b1) + 1) * 400 / uint64(i+1)
			e.PromoTails[i] = uint64(b2) / uint64(i+1)
		}
		e.Checksum = e.ComputeChecksum()
		entries = append(entries, e)
		ops = append(ops, min(int(b3>>4)%8, opNone))
	}
	return entries, ops
}

// compiledOf is what model.Compile makes of entries, with the best
// thresholds for slo derived the way a window derives them as it folds.
func compiledOf(t *testing.T, entries []telemetry.Entry, slo core.SLO) *model.CompiledTrace {
	t.Helper()
	tr := telemetry.NewTrace()
	tr.Entries = entries
	ct := model.Compile(tr)
	if _, err := ct.Run(model.Config{SLO: slo, Params: core.DefaultParams}); err != nil {
		t.Fatal(err)
	}
	return ct
}

// checkWindowOps feeds the entries data decodes to a controller, one
// agent, snapshots and round cuts where the records ask, and holds the
// window to the entries: (a) each cut window compiles exactly as
// model.Compile of the entries ingested since the previous cut; (b) each
// snapshot's window — materialized only at the end, after later folds,
// regrowths and cuts — is those entries in ingest order, and encodes to
// the bytes a snapshot holding them does; (c) restoring that snapshot
// compiles exactly as they do too.
func checkWindowOps(t *testing.T, data []byte) {
	c := newTestController(t, Config{RoundEvery: 1000 * time.Hour, QueueCap: 1 << 20, BatchSize: 1 << 20})
	if _, err := c.Register(RegisterRequest{AgentID: "a"}); err != nil {
		t.Fatal(err)
	}
	slo := c.cfg.SLO
	entries, ops := fuzzWindowEntries(data)
	var since, pending []telemetry.Entry // ingested since the last cut; reported, not drained
	flush := func() {
		if len(pending) == 0 {
			return
		}
		if _, err := c.Report(ReportRequest{AgentID: "a", Entries: pending}); err != nil {
			t.Fatal(err)
		}
		if rep := c.Tick(); rep.Drained != len(pending) {
			t.Fatalf("Tick drained %d of %d valid entries", rep.Drained, len(pending))
		}
		since, pending = append(since, pending...), nil
	}
	type snap struct {
		s    *ckpt.Snapshot
		view model.View
		want []telemetry.Entry
	}
	var snaps []snap
	for i, e := range entries {
		pending = append(pending, e)
		if ops[i] == opNone {
			continue
		}
		flush()
		c.mu.Lock()
		switch {
		case ops[i] == opSnapshot:
			s, v := c.snapshotLocked()
			snaps = append(snaps, snap{s, v, slices.Clone(since)})
		case ops[i] == opCut && len(since) > 0:
			w := c.beginRoundLocked()
			c.roundInFlight = false
			c.mu.Unlock()
			if got, want := w.compiled.Finish(), compiledOf(t, since, slo); !reflect.DeepEqual(got, want) {
				t.Fatalf("a window of %d entries compiles otherwise than model.Compile of them", len(since))
			}
			since = nil
			c.mu.Lock()
		}
		c.mu.Unlock()
	}
	flush()
	checkWindow(t, c, since)
	for k, sn := range snaps {
		got := sn.view.Entries()
		if len(got) != len(sn.want) || (len(got) > 0 && !reflect.DeepEqual(got, sn.want)) {
			t.Fatalf("snapshot %d holds %d entries, not the %d ingested before it in order", k, len(got), len(sn.want))
		}
		sn.s.Window = got
		b, err := ckpt.Encode(nil, sn.s)
		if err != nil {
			t.Fatal(err)
		}
		sn.s.Window = sn.want
		if want, _ := ckpt.Encode(nil, sn.s); !bytes.Equal(b, want) {
			t.Fatalf("snapshot %d encodes to %d bytes, not the %d of the entries ingested", k, len(b), len(want))
		}
		d, err := ckpt.Decode(b)
		if err != nil {
			t.Fatalf("snapshot %d: %v", k, err)
		}
		r := newTestController(t, c.cfg)
		r.adoptSnapshot(d)
		checkWindow(t, r, sn.want)
		if len(sn.want) > 0 {
			if got, want := r.window.Finish(), compiledOf(t, sn.want, slo); !reflect.DeepEqual(got, want) {
				t.Fatalf("snapshot %d restores a window that compiles otherwise than its entries", k)
			}
		}
	}
}

// TestWindowMatchesEntries runs checkWindowOps over random record
// streams long enough that every job's columns regrow.
func TestWindowMatchesEntries(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		data := make([]byte, 4*(50+int(seed)*150))
		rand.New(rand.NewSource(seed)).Read(data)
		checkWindowOps(t, data)
	}
}

// FuzzWindow is checkWindowOps over arbitrary record streams.
func FuzzWindow(f *testing.F) {
	f.Add([]byte{0, 7, 0, 0x10, 1, 3, 1, 0x21, 2, 3, 2, 0x00, 3, 0, 3, 0x11, 4, 5, 4, 0x70})
	f.Add([]byte{0, 1, 0, 0x70, 0, 1, 1, 0x70, 0, 0, 2, 0x10, 2, 9, 3, 0x20, 3, 9, 4, 0x20})
	f.Fuzz(checkWindowOps)
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
