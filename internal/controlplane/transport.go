package controlplane

import (
	"context"

	"sdfm/internal/core"
	"sdfm/internal/telemetry"
)

// RegisterRequest announces an agent to the controller. AgentID is any
// stable non-empty name; the convention is "cluster/machine".
type RegisterRequest struct {
	AgentID string `json:"agent_id"`
}

// RegisterResponse carries the agent's initial parameter assignment.
type RegisterResponse struct {
	Params core.Params `json:"params"`
	Epoch  int64       `json:"epoch"`
}

// ReportRequest streams telemetry entries to the controller.
type ReportRequest struct {
	AgentID string            `json:"agent_id"`
	Entries []telemetry.Entry `json:"entries"`
}

// ReportResponse is the explicit backpressure signal: how many entries
// the bounded queue accepted, how many it dropped, and how much queue
// headroom remains. Epoch lets a reporting agent notice a pending
// parameter change without a separate poll.
type ReportResponse struct {
	Accepted  int   `json:"accepted"`
	Dropped   int   `json:"dropped"`
	QueueFree int   `json:"queue_free"`
	Epoch     int64 `json:"epoch"`
}

// PollRequest asks for an agent's current assignment.
type PollRequest struct {
	AgentID string `json:"agent_id"`
}

// PollResponse is the agent's current (possibly mid-rollout) assignment
// plus the fleet incumbent.
type PollResponse struct {
	Params    core.Params `json:"params"`
	Epoch     int64       `json:"epoch"`
	Incumbent core.Params `json:"incumbent"`
}

// Transport is the agent's connection to the control plane: the
// deterministic in-process Loopback and the net/http Client implement it
// identically, so agent code is transport-blind.
type Transport interface {
	Register(ctx context.Context, req RegisterRequest) (RegisterResponse, error)
	Report(ctx context.Context, req ReportRequest) (ReportResponse, error)
	Poll(ctx context.Context, req PollRequest) (PollResponse, error)
}

// Loopback is the deterministic in-process transport: calls go straight
// to the controller with no serialization, no goroutines, and no clock,
// so a single-threaded driver (RunSim) is byte-identical across runs.
type Loopback struct {
	C *Controller
}

// NewLoopback wraps a controller in the in-process transport.
func NewLoopback(c *Controller) *Loopback { return &Loopback{C: c} }

// Register implements Transport.
func (l *Loopback) Register(_ context.Context, req RegisterRequest) (RegisterResponse, error) {
	return l.C.Register(req)
}

// Report implements Transport.
func (l *Loopback) Report(_ context.Context, req ReportRequest) (ReportResponse, error) {
	return l.C.Report(req)
}

// Poll implements Transport.
func (l *Loopback) Poll(_ context.Context, req PollRequest) (PollResponse, error) {
	return l.C.Poll(req)
}

// Agent is the node-side client of the control plane: it registers over
// any Transport, forwards telemetry entries, and polls for the parameters
// the controller has assigned to it.
type Agent struct {
	ID string
	T  Transport
}

// NewAgent builds an agent speaking over t.
func NewAgent(id string, t Transport) *Agent {
	return &Agent{ID: id, T: t}
}

// Register announces the agent to the controller.
func (a *Agent) Register(ctx context.Context) error {
	_, err := a.T.Register(ctx, RegisterRequest{AgentID: a.ID})
	return err
}

// Report forwards entries.
func (a *Agent) Report(ctx context.Context, entries []telemetry.Entry) (ReportResponse, error) {
	return a.T.Report(ctx, ReportRequest{AgentID: a.ID, Entries: entries})
}

// Poll returns the agent's current assignment and its epoch.
func (a *Agent) Poll(ctx context.Context) (core.Params, int64, error) {
	resp, err := a.T.Poll(ctx, PollRequest{AgentID: a.ID})
	if err != nil {
		return core.Params{}, 0, err
	}
	return resp.Params, resp.Epoch, nil
}
