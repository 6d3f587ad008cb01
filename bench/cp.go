package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"sdfm/internal/controlplane"
)

// cpServer is a controller behind its real HTTP handler on a loopback
// listener — what cmd/sdfmd serves.
type cpServer struct {
	c    *controlplane.Controller
	srv  *http.Server
	done chan error
	url  string
}

func startServer(c *controlplane.Controller) (*cpServer, error) {
	return serveHandler(c, controlplane.NewServer(c, nil).Handler())
}

func serveHandler(c *controlplane.Controller, h http.Handler) (*cpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &cpServer{c: c, srv: &http.Server{Handler: h}, done: make(chan error, 1), url: "http://" + ln.Addr().String()}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop closes the listener and every connection and waits for Serve to
// return.
func (s *cpServer) stop() error {
	err := s.srv.Close()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// newClient builds a binary-wire client with a transport of its own: one
// keep-alive connection per load worker, closed with the episode.
func newClient(url string) *controlplane.Client {
	cl := controlplane.NewClient(url)
	cl.Encoding = controlplane.EncodingBinary
	cl.HTTP = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, IdleConnTimeout: 90 * time.Second},
		Timeout:   30 * time.Second,
	}
	return cl
}

// registerAgents registers ids round-robin over the clients.
func registerAgents(ctx context.Context, cls []*controlplane.Client, ids []string) error {
	for i, id := range ids {
		if _, err := cls[i%len(cls)].Register(ctx, controlplane.RegisterRequest{AgentID: id}); err != nil {
			return fmt.Errorf("registering %s: %w", id, err)
		}
	}
	return nil
}

// ingestTally is the entry accounting of one campaign or replay, from the
// sender's side (sent, accepted, dropped) and the controller's (st).
type ingestTally struct {
	sent, accepted, dropped int64
	transportErrs           int64 // entries in reports that failed outright
	st                      controlplane.IngestStats
}

// checkConservation is the control plane's output check: every entry sent
// is accounted for exactly once.
func checkConservation(ep *episode, t ingestTally) {
	if t.sent != t.accepted+t.dropped+t.transportErrs {
		ep.violate("sent %d != accepted %d + dropped %d + failed %d", t.sent, t.accepted, t.dropped, t.transportErrs)
	}
	if uint64(t.accepted) != t.st.Ingested+t.st.RejectedCorrupt+t.st.RejectedInvalid {
		ep.violate("accepted %d != ingested %d + rejected_corrupt %d + rejected_invalid %d",
			t.accepted, t.st.Ingested, t.st.RejectedCorrupt, t.st.RejectedInvalid)
	}
	if uint64(t.sent-t.transportErrs) != t.st.Received {
		ep.violate("controller received %d entries, %d were delivered", t.st.Received, t.sent-t.transportErrs)
	}
	if uint64(t.dropped) != t.st.DroppedBackpressure {
		ep.violate("agents saw %d drops, controller counted %d", t.dropped, t.st.DroppedBackpressure)
	}
}

// failedEntries counts entries that did not reach the fleet snapshot.
func (t ingestTally) failedEntries() int64 {
	return t.dropped + t.transportErrs + int64(t.st.RejectedCorrupt+t.st.RejectedInvalid)
}
