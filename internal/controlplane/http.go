package controlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"sdfm/internal/controlplane/wire"
	"sdfm/internal/obs"
	"sdfm/internal/telemetry"
)

// maxBodyBytes bounds a single request body (a report batch of a few
// thousand entries fits comfortably; anything larger is an abusive or
// broken client).
const maxBodyBytes = 32 << 20

// Server exposes a Controller over HTTP — the real-network counterpart
// of Loopback, served by cmd/sdfmd:
//
//	POST /v1/register  {"agent_id": ...}            → RegisterResponse
//	POST /v1/report    wire.ContentType frame        → ReportResponse
//	GET  /v1/poll?agent=ID                          → PollResponse
//	POST /v1/round                                  → RoundReport (forced)
//	GET  /statusz                                   → Status (JSON)
//	GET  /metrics                                   → Prometheus text
//	GET  /healthz                                   → "ok"
type Server struct {
	c   *Controller
	hub *obs.Multi
	mux *http.ServeMux
}

// NewServer builds the HTTP facade. hub may be nil when metrics are
// disabled; /metrics then serves an empty exposition.
func NewServer(c *Controller, hub *obs.Multi) *Server {
	s := &Server{c: c, hub: hub, mux: http.NewServeMux()}
	s.mux.HandleFunc("/v1/register", s.handleRegister)
	s.mux.HandleFunc("/v1/report", s.handleReport)
	s.mux.HandleFunc("/v1/poll", s.handlePoll)
	s.mux.HandleFunc("/v1/round", s.handleRound)
	s.mux.HandleFunc("/statusz", s.handleStatusz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	return s
}

// Handler returns the server's route mux.
func (s *Server) Handler() http.Handler { return s.mux }

// httpStatusFor maps controller sentinels onto HTTP statuses.
func httpStatusFor(err error) int {
	switch {
	case errors.Is(err, ErrUnknownAgent):
		return http.StatusNotFound
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrRoundInFlight), errors.Is(err, ErrNoTelemetry):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

func requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use %s", method))
		return false
	}
	return true
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req RegisterRequest
	if !decodeBody(w, r, &req) {
		return
	}
	resp, err := s.c.Register(req)
	if err != nil {
		writeError(w, httpStatusFor(err), err)
		return
	}
	writeJSON(w, resp)
}

// reportBufs is one binary report's scratch: the frame as read, which
// the ack is then written over, and the array its entries decode into.
// Nothing decoded aliases the frame — colfmt.DecodeEntriesInto copies
// every key and tail it keeps — and Controller.Report copies the entries
// into the agent's queue, so both are free again once the ack is
// written, while the keys and tails live on in queues and the window.
// Until a later report overwrites it, the entry array still points at
// the last frame's keys and tails, which keeps at most one frame's worth
// alive per pooled buffer.
type reportBufs struct {
	frame   bytes.Buffer
	entries []telemetry.Entry
}

var reportBufPool = sync.Pool{
	New: func() any { return new(reportBufs) },
}

// handleReport accepts one body encoding, a wire.ContentType frame
// decoded by the bounds-checked wire codec; any other Content-Type is
// refused with 415 before the body is read.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	// The exact media type, what every Client sends, needs no parse.
	if ct := r.Header.Get("Content-Type"); ct != wire.ContentType {
		if mt, _, _ := mime.ParseMediaType(ct); mt != wire.ContentType {
			writeError(w, http.StatusUnsupportedMediaType,
				fmt.Errorf("report Content-Type %q: want %s", ct, wire.ContentType))
			return
		}
	}
	rb := reportBufPool.Get().(*reportBufs)
	defer reportBufPool.Put(rb)
	buf := &rb.frame
	buf.Reset()
	// Content-Length sizes the read exactly, so a frame of tens of
	// kilobytes lands in one pass with no regrowth; a body without one
	// is read up to the limit.
	var frame []byte
	var err error
	if n := r.ContentLength; n >= 0 && n <= maxBodyBytes {
		buf.Grow(int(n))
		frame = buf.AvailableBuffer()[:n]
		_, err = io.ReadFull(r.Body, frame)
	} else {
		_, err = buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		frame = buf.Bytes()
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading report frame: %w", err))
		return
	}
	agentID, entries, err := wire.DecodeReportBatchInto(rb.entries, frame)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, wire.ErrUnsupportedVersion) {
			code = http.StatusUnsupportedMediaType
		}
		writeError(w, code, fmt.Errorf("decoding report frame: %w", err))
		return
	}
	rb.entries = entries
	resp, err := s.c.Report(ReportRequest{AgentID: agentID, Entries: entries})
	if err != nil {
		writeError(w, httpStatusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(appendReportAck(buf.Bytes()[:0], resp))
}

// maxAckBytes bounds a report ack: four integers of at most 20
// characters each and 48 bytes of JSON around them.
const maxAckBytes = 4*20 + 48

// appendReportAck appends resp as writeJSON sends it — encoding/json's
// rendering of a ReportResponse and a newline — without reflection.
func appendReportAck(dst []byte, resp ReportResponse) []byte {
	dst = append(dst, `{"accepted":`...)
	dst = strconv.AppendInt(dst, int64(resp.Accepted), 10)
	dst = append(dst, `,"dropped":`...)
	dst = strconv.AppendInt(dst, int64(resp.Dropped), 10)
	dst = append(dst, `,"queue_free":`...)
	dst = strconv.AppendInt(dst, int64(resp.QueueFree), 10)
	dst = append(dst, `,"epoch":`...)
	dst = strconv.AppendInt(dst, resp.Epoch, 10)
	return append(dst, "}\n"...)
}

// errMalformedAck is returned for a report ack that is not exactly what
// appendReportAck writes.
var errMalformedAck = errors.New("malformed report ack")

// parseReportAck decodes what appendReportAck writes and nothing else:
// the fields in order, integers as encoding/json renders them (no sign
// but a minus, no leading zero, no "-0", in range), no space, and the
// trailing newline. Anything else is an error wrapping errMalformedAck.
func parseReportAck(b []byte) (ReportResponse, error) {
	var resp ReportResponse
	rest, ok := b, true
	field := func(prefix string, bits int) int64 {
		if !ok || len(rest) < len(prefix) || string(rest[:len(prefix)]) != prefix {
			ok = false
			return 0
		}
		var v int64
		v, rest, ok = cutJSONInt(rest[len(prefix):], bits)
		return v
	}
	resp.Accepted = int(field(`{"accepted":`, strconv.IntSize))
	resp.Dropped = int(field(`,"dropped":`, strconv.IntSize))
	resp.QueueFree = int(field(`,"queue_free":`, strconv.IntSize))
	resp.Epoch = field(`,"epoch":`, 64)
	if !ok || string(rest) != "}\n" {
		return ReportResponse{}, fmt.Errorf("%w: %q", errMalformedAck, b)
	}
	return resp, nil
}

// cutJSONInt reads a leading integer as encoding/json writes one into a
// bits-wide signed field and returns it and the bytes after it; ok is
// false when b does not start with one.
func cutJSONInt(b []byte, bits int) (v int64, rest []byte, ok bool) {
	neg := len(b) > 0 && b[0] == '-'
	i := 0
	if neg {
		i = 1
	}
	j := i
	for j < len(b) && '0' <= b[j] && b[j] <= '9' {
		j++
	}
	// 19 digits hold every int64 and cannot overflow the uint64 sum.
	if j == i || j-i > 19 || (b[i] == '0' && (j > i+1 || neg)) {
		return 0, b, false
	}
	var u uint64
	for _, d := range b[i:j] {
		u = 10*u + uint64(d-'0')
	}
	limit := uint64(1) << (bits - 1)
	if u > limit || (u == limit && !neg) {
		return 0, b, false
	}
	if neg {
		return -int64(u), b[j:], true
	}
	return int64(u), b[j:], true
}

func (s *Server) handlePoll(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	resp, err := s.c.Poll(PollRequest{AgentID: r.URL.Query().Get("agent")})
	if err != nil {
		writeError(w, httpStatusFor(err), err)
		return
	}
	writeJSON(w, resp)
}

func (s *Server) handleRound(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	rr, err := s.c.RunRound()
	if err != nil {
		writeError(w, httpStatusFor(err), err)
		return
	}
	writeJSON(w, rr)
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.c.Status())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	// Render into a buffer under the controller mutex, then write outside
	// it, so a slow scraper never stalls ingest.
	var buf bytes.Buffer
	if err := s.c.RenderMetrics(s.hub, &buf); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(buf.Bytes())
}

// Encoding names a report body encoding. There is one, EncodingBinary;
// the type and Client.Encoding stay only because the benchmark harness
// (bench/cp.go) still assigns that constant, and nothing reads them.
type Encoding int

// EncodingBinary is the wire.ContentType frame, the only report body.
const EncodingBinary Encoding = 0

// sharedTransport is the process-wide transport every NewClient client
// rides: agents report every telemetry interval to the same daemon, so
// keep-alive connection reuse — not per-call dials — is the steady
// state. Clients that need isolation can swap in their own *http.Client.
var sharedTransport = &http.Transport{
	Proxy:               http.ProxyFromEnvironment,
	MaxIdleConns:        256,
	MaxIdleConnsPerHost: 64,
	IdleConnTimeout:     90 * time.Second,
}

// encodeBufPool recycles report encode and ack buffers across calls and
// clients, so the steady-state report path performs zero buffer
// allocations.
var encodeBufPool = sync.Pool{
	New: func() any { return new(bytes.Buffer) },
}

// Client speaks the Server's protocol; it implements Transport, so agent
// code written against Loopback works unchanged against a live sdfmd.
// Report bodies are wire.ContentType frames; every other exchange is
// JSON.
type Client struct {
	// Base is the daemon's base URL, e.g. "http://127.0.0.1:8300".
	Base string
	// HTTP is the underlying client (default: shared keep-alive
	// transport, 30 s timeout).
	HTTP *http.Client
	// Encoding is read by nothing; it stays only for bench/cp.go's
	// assignment of EncodingBinary.
	Encoding Encoding
}

// NewClient builds a client for the daemon at base.
func NewClient(base string) *Client {
	return &Client{Base: base, HTTP: &http.Client{
		Transport: sharedTransport,
		Timeout:   30 * time.Second,
	}}
}

// drainBody consumes whatever the decoder left unread so the keep-alive
// connection returns to the idle pool instead of being torn down.
func drainBody(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 64<<10))
	body.Close()
}

// errorFrom turns a non-200 response into a descriptive error.
func errorFrom(path string, resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if json.Unmarshal(msg, &e) == nil && e.Error != "" {
		return fmt.Errorf("controlplane: %s: %s (HTTP %d)", path, e.Error, resp.StatusCode)
	}
	return fmt.Errorf("controlplane: %s: HTTP %d", path, resp.StatusCode)
}

func (cl *Client) post(ctx context.Context, path, contentType string, body io.Reader, out any) error {
	method := http.MethodPost
	if body == nil && contentType == "" {
		method = http.MethodGet
	}
	req, err := http.NewRequestWithContext(ctx, method, cl.Base+path, body)
	if err != nil {
		return fmt.Errorf("controlplane: building %s request: %w", path, err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := cl.HTTP.Do(req)
	if err != nil {
		return fmt.Errorf("controlplane: %s: %w", path, err)
	}
	defer drainBody(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return errorFrom(path, resp)
	}
	switch out := out.(type) {
	case nil:
		return nil
	case *ReportResponse:
		*out, err = readReportAck(resp.Body)
	default:
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	if err != nil {
		return fmt.Errorf("controlplane: decoding %s response: %w", path, err)
	}
	return nil
}

// readReportAck reads a report ack into a pooled buffer and parses it.
// A body longer than any ack is refused unread past maxAckBytes+1.
func readReportAck(body io.Reader) (ReportResponse, error) {
	buf := encodeBufPool.Get().(*bytes.Buffer)
	defer encodeBufPool.Put(buf)
	buf.Reset()
	buf.Grow(maxAckBytes + 1)
	b := buf.AvailableBuffer()[:maxAckBytes+1]
	n, err := io.ReadFull(body, b)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return ReportResponse{}, err
	}
	return parseReportAck(b[:n])
}

func (cl *Client) do(ctx context.Context, method, path string, body, out any) error {
	if body == nil {
		if method == http.MethodPost {
			return cl.post(ctx, path, "application/json", nil, out)
		}
		return cl.post(ctx, path, "", nil, out)
	}
	buf := encodeBufPool.Get().(*bytes.Buffer)
	defer encodeBufPool.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(body); err != nil {
		return fmt.Errorf("controlplane: encoding %s request: %w", path, err)
	}
	return cl.post(ctx, path, "application/json", bytes.NewReader(buf.Bytes()), out)
}

// Register implements Transport.
func (cl *Client) Register(ctx context.Context, req RegisterRequest) (RegisterResponse, error) {
	var resp RegisterResponse
	err := cl.do(ctx, http.MethodPost, "/v1/register", req, &resp)
	return resp, err
}

// Report implements Transport. The body is a wire frame encoded into a
// pooled buffer, so the steady-state reporting path allocates no
// per-call encode buffers. A refused frame is an error; nothing is
// retried.
func (cl *Client) Report(ctx context.Context, req ReportRequest) (ReportResponse, error) {
	var resp ReportResponse
	buf := encodeBufPool.Get().(*bytes.Buffer)
	defer encodeBufPool.Put(buf)
	frame, err := wire.AppendReportBatch(buf.Bytes()[:0], req.AgentID, req.Entries)
	if err != nil {
		return resp, fmt.Errorf("controlplane: encoding report frame: %w", err)
	}
	// Hand the (possibly grown) backing array back to the pooled buffer
	// so the next call reuses it.
	*buf = *bytes.NewBuffer(frame)
	err = cl.post(ctx, "/v1/report", wire.ContentType, bytes.NewReader(frame), &resp)
	return resp, err
}

// Poll implements Transport.
func (cl *Client) Poll(ctx context.Context, req PollRequest) (PollResponse, error) {
	var resp PollResponse
	err := cl.do(ctx, http.MethodGet, "/v1/poll?agent="+url.QueryEscape(req.AgentID), nil, &resp)
	return resp, err
}

// ForceRound triggers a tuning round on whatever window the controller
// holds (POST /v1/round).
func (cl *Client) ForceRound(ctx context.Context) (RoundReport, error) {
	var rr RoundReport
	err := cl.do(ctx, http.MethodPost, "/v1/round", nil, &rr)
	return rr, err
}

// Status fetches /statusz.
func (cl *Client) Status(ctx context.Context) (Status, error) {
	var st Status
	err := cl.do(ctx, http.MethodGet, "/statusz", nil, &st)
	return st, err
}

// Metrics fetches the raw /metrics exposition.
func (cl *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cl.Base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := cl.HTTP.Do(req)
	if err != nil {
		return "", fmt.Errorf("controlplane: /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("controlplane: /metrics: HTTP %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("controlplane: reading /metrics: %w", err)
	}
	return string(b), nil
}
