package main

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"sdfm/internal/controlplane"
	"sdfm/internal/obs"
)

// TestRunLoadgen drives the saturation mode against an in-process server
// and cross-checks its accounting against the controller's: every entry
// the generator counts as accepted must be acked by a bounded queue, and
// after a drain, ingested.
func TestRunLoadgen(t *testing.T) {
	hub := obs.NewMulti()
	ctrl, err := controlplane.New(controlplane.Config{
		RoundEvery: 1000 * time.Hour,
		QueueCap:   1 << 16,
		Obs:        hub.Observer("controlplane"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctrl.Close)
	srv := httptest.NewServer(controlplane.NewServer(ctrl, hub).Handler())
	defer srv.Close()

	stop := make(chan struct{})
	tickDone := make(chan struct{})
	go func() {
		defer close(tickDone)
		for {
			select {
			case <-stop:
				return
			default:
				ctrl.Tick()
				time.Sleep(time.Millisecond)
			}
		}
	}()

	rep, err := runLoadgen(context.Background(), loadgenConfig{
		Target:  srv.URL,
		Agents:  8,
		Reports: 5,
		Batch:   16,
		Seed:    3,
	})
	if err != nil {
		t.Fatalf("runLoadgen: %v", err)
	}
	close(stop)
	<-tickDone

	if want := 8 * 5 * 16; rep.Sent != want {
		t.Errorf("sent %d entries, want %d", rep.Sent, want)
	}
	if rep.Accepted+rep.Dropped != rep.Sent {
		t.Errorf("accepted %d + dropped %d != sent %d", rep.Accepted, rep.Dropped, rep.Sent)
	}
	if rep.EntriesPerSec() <= 0 {
		t.Errorf("entries/s = %v, want > 0", rep.EntriesPerSec())
	}
	ctrl.Drain()
	st := ctrl.Status()
	if st.Ingest.Ingested != uint64(rep.Accepted) {
		t.Errorf("controller ingested %d, loadgen had %d acked", st.Ingest.Ingested, rep.Accepted)
	}

	if _, err := runLoadgen(context.Background(), loadgenConfig{Target: srv.URL}); err == nil {
		t.Error("runLoadgen with zero agents/reports/batch succeeded")
	}
}
