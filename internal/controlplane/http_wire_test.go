package controlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sdfm/internal/controlplane/wire"
)

// contentTypeRecorder counts /v1/report bodies by encoding.
type contentTypeRecorder struct {
	next          http.Handler
	binary, other atomic.Int64
}

func (rec *contentTypeRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/report" {
		if r.Header.Get("Content-Type") == wire.ContentType {
			rec.binary.Add(1)
		} else {
			rec.other.Add(1)
		}
	}
	rec.next.ServeHTTP(w, r)
}

// TestHTTPReportFrame drives a report over HTTP: a freshly registered
// client sends its first report as a wire frame, and the decoded entries
// land in the controller intact.
func TestHTTPReportFrame(t *testing.T) {
	ctx := context.Background()
	c := newTestController(t, Config{})
	rec := &contentTypeRecorder{next: NewServer(c, nil).Handler()}
	srv := httptest.NewServer(rec)
	defer srv.Close()

	cl := NewClient(srv.URL)
	if _, err := cl.Register(ctx, RegisterRequest{AgentID: "a"}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	tr := testTrace(t, 1, 1, 2, time.Hour, 8)
	resp, err := cl.Report(ctx, ReportRequest{AgentID: "a", Entries: tr.Entries})
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	if resp.Accepted != len(tr.Entries) || resp.Dropped != 0 {
		t.Errorf("report accepted %d dropped %d, want %d/0",
			resp.Accepted, resp.Dropped, len(tr.Entries))
	}
	if rec.binary.Load() != 1 || rec.other.Load() != 0 {
		t.Errorf("report encodings frame=%d other=%d, want 1/0",
			rec.binary.Load(), rec.other.Load())
	}
	if rep := c.Tick(); rep.Drained != len(tr.Entries) || rep.RejectedCorrupt != 0 {
		t.Errorf("tick after report: drained %d rejected %d, want %d/0",
			rep.Drained, rep.RejectedCorrupt, len(tr.Entries))
	}
}

// TestHTTPReportRefusesOtherContentTypes: /v1/report has one body
// encoding. A JSON body, a text body and a body with no Content-Type are
// each refused with 415 and an error naming wire.ContentType, and none
// of them counts as a report.
func TestHTTPReportRefusesOtherContentTypes(t *testing.T) {
	c := newTestController(t, Config{})
	if _, err := c.Register(RegisterRequest{AgentID: "a"}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(c, nil).Handler()
	entries := testTrace(t, 1, 1, 1, time.Hour, 3).Entries[:2]
	body, err := json.Marshal(ReportRequest{AgentID: "a", Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	for _, ct := range []string{"application/json", "text/plain", ""} {
		req := httptest.NewRequest(http.MethodPost, "/v1/report", bytes.NewReader(body))
		if ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusUnsupportedMediaType {
			t.Errorf("Content-Type %q: HTTP %d, want 415", ct, rec.Code)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, wire.ContentType) {
			t.Errorf("Content-Type %q: error body %q does not name %s", ct, rec.Body.Bytes(), wire.ContentType)
		}
	}
	if in := c.Status().Ingest; in.Received != 0 || in.Reports != 0 {
		t.Errorf("refused bodies counted: received %d, reports %d, want 0/0", in.Received, in.Reports)
	}
}

// TestHTTPReport415IsAnError: a server that refuses the frame with 415
// makes Report return that error after exactly one request, a frame; the
// client has no other encoding to retry in. The registration answer
// carries the "wire" field older servers advertised frames with, which
// the client ignores.
func TestHTTPReport415IsAnError(t *testing.T) {
	ctx := context.Background()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/register", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"params":{"K":98,"S":600000000000},"epoch":0,"wire":1}`+"\n")
	})
	mux.HandleFunc("/v1/report", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusUnsupportedMediaType, wire.ErrUnsupportedVersion)
	})
	rec := &contentTypeRecorder{next: mux}
	srv := httptest.NewServer(rec)
	defer srv.Close()

	cl := NewClient(srv.URL)
	if _, err := cl.Register(ctx, RegisterRequest{AgentID: "a"}); err != nil {
		t.Fatal(err)
	}
	tr := testTrace(t, 1, 1, 1, time.Hour, 9)
	_, err := cl.Report(ctx, ReportRequest{AgentID: "a", Entries: tr.Entries[:3]})
	if err == nil || !strings.Contains(err.Error(), "HTTP 415") {
		t.Errorf("Report against a 415 server: err %v, want an HTTP 415 error", err)
	}
	if rec.binary.Load() != 1 || rec.other.Load() != 0 {
		t.Errorf("client sent frame=%d other=%d reports, want exactly 1 frame",
			rec.binary.Load(), rec.other.Load())
	}
}
