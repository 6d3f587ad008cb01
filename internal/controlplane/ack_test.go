package controlplane

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sdfm/internal/controlplane/wire"
)

// ackValues are the integers every ack field is tried with.
var ackValues = []int64{0, 1, -1, math.MaxInt32, math.MinInt64, math.MaxInt64}

// jsonAck is what writeJSON sends for resp.
func jsonAck(t testing.TB, resp ReportResponse) []byte {
	t.Helper()
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestReportAckMatchesEncodingJSON: the server's ack is encoding/json's
// rendering byte for byte, and the client's decoder reads it back, for
// every combination of the edge values in every field.
func TestReportAckMatchesEncodingJSON(t *testing.T) {
	longest := 0
	for _, a := range ackValues {
		for _, d := range ackValues {
			for _, q := range ackValues {
				for _, e := range ackValues {
					resp := ReportResponse{Accepted: int(a), Dropped: int(d), QueueFree: int(q), Epoch: e}
					want := jsonAck(t, resp)
					got := appendReportAck(nil, resp)
					if !bytes.Equal(got, want) {
						t.Fatalf("ack of %+v is %q, encoding/json writes %q", resp, got, want)
					}
					back, err := parseReportAck(got)
					if err != nil || back != resp {
						t.Fatalf("ack %q decodes to %+v, %v; want %+v", got, back, err, resp)
					}
					longest = max(longest, len(got))
				}
			}
		}
	}
	if longest != maxAckBytes {
		t.Errorf("the longest ack is %d bytes, maxAckBytes says %d", longest, maxAckBytes)
	}
}

// TestReportAckFromServer: the bytes /v1/report sends for a frame are
// encoding/json's rendering of the response, and a JSON body is refused
// with 415 and acks nothing.
func TestReportAckFromServer(t *testing.T) {
	c := newTestController(t, Config{QueueCap: 3})
	if _, err := c.Register(RegisterRequest{AgentID: "a"}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(c, nil).Handler()
	entries := testTrace(t, 1, 1, 1, 25*time.Minute, 1).Entries[:2]
	frame, err := wire.AppendReportBatch(nil, "a", entries)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(ReportRequest{AgentID: "a", Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		ct   string
		body []byte
		code int
		want ReportResponse
	}{
		{wire.ContentType, frame, http.StatusOK, ReportResponse{Accepted: 2, QueueFree: 1}},
		{"application/json", body, http.StatusUnsupportedMediaType, ReportResponse{}},
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/report", bytes.NewReader(tc.body))
		req.Header.Set("Content-Type", tc.ct)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != tc.code || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("%s report: HTTP %d, Content-Type %q, want HTTP %d", tc.ct, rec.Code, rec.Header().Get("Content-Type"), tc.code)
		}
		if tc.code != http.StatusOK {
			if _, err := parseReportAck(rec.Body.Bytes()); err == nil {
				t.Errorf("%s report: refusal %q parses as an ack", tc.ct, rec.Body.Bytes())
			}
			continue
		}
		if got, want := rec.Body.Bytes(), jsonAck(t, tc.want); !bytes.Equal(got, want) {
			t.Errorf("%s report acked %q, want %q", tc.ct, got, want)
		}
	}
}

// TestReportAckRejects: the decoder refuses every rendering encoding/json
// would not write, and a truncated or overlong body.
func TestReportAckRejects(t *testing.T) {
	for _, s := range []string{
		"",
		"{}\n",
		`{"accepted":1,"dropped":0,"queue_free":3,"epoch":2}`,
		`{"accepted":1,"dropped":0,"queue_free":3,"epoch":2}` + "\n\n",
		`{"accepted":1,"dropped":0,"queue_free":3,"epoch":2} ` + "\n",
		`{"accepted": 1,"dropped":0,"queue_free":3,"epoch":2}` + "\n",
		`{"dropped":0,"accepted":1,"queue_free":3,"epoch":2}` + "\n",
		`{"accepted":1,"dropped":0,"queue_free":3}` + "\n",
		`{"accepted":1,"dropped":0,"queue_free":3,"epoch":2,"x":1}` + "\n",
		`{"accepted":01,"dropped":0,"queue_free":3,"epoch":2}` + "\n",
		`{"accepted":-0,"dropped":0,"queue_free":3,"epoch":2}` + "\n",
		`{"accepted":+1,"dropped":0,"queue_free":3,"epoch":2}` + "\n",
		`{"accepted":-,"dropped":0,"queue_free":3,"epoch":2}` + "\n",
		`{"accepted":1.0,"dropped":0,"queue_free":3,"epoch":2}` + "\n",
		`{"accepted":1e3,"dropped":0,"queue_free":3,"epoch":2}` + "\n",
		`{"accepted":"1","dropped":0,"queue_free":3,"epoch":2}` + "\n",
		`{"accepted":1,"dropped":0,"queue_free":3,"epoch":9223372036854775808}` + "\n",
		`{"accepted":1,"dropped":0,"queue_free":3,"epoch":-9223372036854775809}` + "\n",
		`{"accepted":1,"dropped":0,"queue_free":3,"epoch":10000000000000000000}` + "\n",
		`{"accepted":1,"dropped":0,"queue_free":3,"epoch":00000000000000000002}` + "\n",
		`{"ACCEPTED":1,"dropped":0,"queue_free":3,"epoch":2}` + "\n",
	} {
		if resp, err := parseReportAck([]byte(s)); !errors.Is(err, errMalformedAck) {
			t.Errorf("ack %q decodes to %+v, %v; want a malformed-ack error", s, resp, err)
		}
	}
	long := bytes.Repeat([]byte("x"), 4*maxAckBytes)
	if _, err := readReportAck(bytes.NewReader(long)); !errors.Is(err, errMalformedAck) {
		t.Errorf("an overlong ack body reads as %v, want a malformed-ack error", err)
	}
}

// TestReportAckAllocs: encoding and decoding an ack allocate nothing.
func TestReportAckAllocs(t *testing.T) {
	resp := ReportResponse{Accepted: 64, QueueFree: 4032, Epoch: 7}
	buf := appendReportAck(nil, resp)
	if n := testing.AllocsPerRun(50, func() { buf = appendReportAck(buf[:0], resp) }); n != 0 {
		t.Errorf("appendReportAck into a warm buffer allocates %.1f times, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { parseReportAck(buf) }); n != 0 {
		t.Errorf("parseReportAck allocates %.1f times, want 0", n)
	}
}

// FuzzReportAck holds the client's ack decoder to encoding/json: it never
// panics, whatever it accepts is exactly encoding/json's rendering of
// what it returns, and it accepts every such rendering.
func FuzzReportAck(f *testing.F) {
	for _, v := range ackValues {
		resp := ReportResponse{Accepted: int(v), Dropped: 1, QueueFree: int(v), Epoch: v}
		f.Add(jsonAck(f, resp), v, int64(0), v, -v)
	}
	f.Add([]byte(`{"accepted":01,"dropped":0,"queue_free":3,"epoch":2}`+"\n"), int64(1), int64(2), int64(3), int64(4))
	f.Add([]byte(`{"accepted":-0,"dropped":0,"queue_free":3,"epoch":2}`+"\n"), int64(0), int64(0), int64(0), int64(0))
	f.Add([]byte(`{"accepted":1,"dropped":0,"queue_free":3,"epoch":9223372036854775808}`+"\n"), int64(0), int64(0), int64(0), int64(0))
	f.Fuzz(func(t *testing.T, b []byte, a, d, q, e int64) {
		if resp, err := parseReportAck(b); err == nil {
			if want := jsonAck(t, resp); !bytes.Equal(b, want) {
				t.Fatalf("accepted %q as %+v, which encoding/json writes as %q", b, resp, want)
			}
		} else if !errors.Is(err, errMalformedAck) {
			t.Fatalf("refused %q with %v, not a malformed-ack error", b, err)
		}
		resp := ReportResponse{Accepted: int(a), Dropped: int(d), QueueFree: int(q), Epoch: e}
		enc := jsonAck(t, resp)
		if got, err := parseReportAck(enc); err != nil || got != resp {
			t.Fatalf("encoding/json's %q decodes to %+v, %v; want %+v", enc, got, err, resp)
		}
		if got := appendReportAck(nil, resp); !bytes.Equal(got, enc) {
			t.Fatalf("ack of %+v is %q, encoding/json writes %q", resp, got, enc)
		}
	})
}
