package node

import (
	"time"
)

// BreakerConfig configures the per-job promotion-SLO circuit breaker: the
// node agent's graceful-degradation path when a job keeps violating the
// promotion-rate SLO despite the controller's threshold choices (bursty
// phase changes, stale histograms after a daemon stall, or injected
// faults). The response escalates the way the paper's operators would:
// first back off the cold-age threshold (compress only much colder
// pages), and if violations persist, flip the job to the disabled mode of
// §5.2 for a cooldown before cautiously re-enabling.
//
// The breaker is opt-in (Enabled); a machine with the zero value behaves
// exactly as one built before the breaker existed.
type BreakerConfig struct {
	Enabled bool
	// TripViolations is how many consecutive SLO-violating control
	// intervals escalate the breaker one step (default 3).
	TripViolations int
	// Cooldown is how long an open breaker keeps the job's zswap disabled
	// before re-enabling with the backoff retained (default 30 min).
	Cooldown time.Duration
}

func (c *BreakerConfig) fillDefaults() {
	if c.TripViolations == 0 {
		c.TripViolations = 3
	}
	if c.Cooldown == 0 {
		c.Cooldown = 30 * time.Minute
	}
}

const (
	// backoffBuckets is the cold-age penalty, in scan-period buckets, added
	// to the controller's threshold per backoff step (≈32 min at the 120 s
	// scan period).
	backoffBuckets = 16
	// maxBackoffSteps is how many backoff steps are tried before the
	// breaker opens and disables zswap for the job.
	maxBackoffSteps = 2
)

// BreakerState is a job's breaker position.
type BreakerState int

const (
	// BreakerClosed is normal operation.
	BreakerClosed BreakerState = iota
	// BreakerBackoff means the threshold is being penalized.
	BreakerBackoff
	// BreakerOpen means zswap is disabled for the job until cooldown.
	BreakerOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerBackoff:
		return "backoff"
	case BreakerOpen:
		return "open"
	default:
		return "unknown"
	}
}

// BreakerState returns the job's current breaker position.
func (j *Job) BreakerState() BreakerState {
	switch {
	case j.breakerOpen:
		return BreakerOpen
	case j.backoffSteps > 0:
		return BreakerBackoff
	default:
		return BreakerClosed
	}
}

// BreakerTrips returns how many times the job's breaker has opened.
func (j *Job) BreakerTrips() int { return j.breakerTrips }

// updateBreaker advances one job's breaker by one control interval using
// the realized (not modelled) promotion rate.
func (m *Machine) updateBreaker(j *Job, intervalMinutes float64) {
	cfg := &m.cfg.Breaker
	if j.breakerOpen {
		if m.now >= j.breakerReopenAt {
			// Half-open: re-enable, keeping the accumulated backoff as
			// the cautious first threshold.
			j.breakerOpen = false
			j.breakerConsec = 0
		}
		return
	}
	if j.lastWSS == 0 {
		return // rate undefined without a working set
	}
	rate := float64(j.intervalProm) / intervalMinutes / float64(j.lastWSS)
	if rate <= m.cfg.SLO.TargetRatePerMin {
		j.breakerConsec = 0
		if j.backoffSteps > 0 {
			j.backoffSteps-- // recover one step per healthy interval
		}
		return
	}
	j.breakerConsec++
	if j.breakerConsec < cfg.TripViolations {
		return
	}
	j.breakerConsec = 0
	if j.backoffSteps < maxBackoffSteps {
		j.backoffSteps++
		m.backoffEvents++
		return
	}
	// Backoff exhausted: disable zswap for the job (§5.2 disabled mode)
	// with a cooldown before the half-open retry.
	j.breakerOpen = true
	j.breakerReopenAt = m.now + cfg.Cooldown
	j.breakerTrips++
	m.breakerTrips++
}

// breakerPenalty returns the extra cold-age buckets the breaker imposes on
// the job's operating threshold.
func (j *Job) breakerPenalty() int {
	return j.backoffSteps * backoffBuckets
}
