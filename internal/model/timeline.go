package model

import (
	"fmt"
	"sort"
	"time"

	"sdfm/internal/core"
	"sdfm/internal/mem"
)

// Phase is one stage of a parameter rollout (Figure 5): from Start
// onwards, jobs run with Params; when Enabled is false the far-memory
// system is off entirely (the pre-rollout stage).
type Phase struct {
	Name    string
	Start   time.Duration
	Params  core.Params
	Enabled bool
}

// TimelinePoint is one interval of the fleet-wide coverage series.
type TimelinePoint struct {
	Time time.Duration
	// ColdBytes held in far memory under the operating thresholds.
	ColdBytes float64
	// ColdBytesAtMin is the cold ceiling (minimum threshold).
	ColdBytesAtMin float64
	// Coverage is their ratio.
	Coverage float64
	// Phase is the rollout stage active at this time.
	Phase string
}

// phaseAt advances ph to the index of the phase in force at t: the last
// one whose Start has passed, phases[0] before any has. Callers walk time
// forwards, so the lookup resumes where the previous one stopped.
func phaseAt(phases []Phase, ph int, t time.Duration) int {
	for ph+1 < len(phases) && phases[ph+1].Start <= t {
		ph++
	}
	return ph
}

// Timeline replays the compiled trace with a staged parameter schedule
// and returns the per-interval fleet coverage series. Phases must be
// sorted by Start; the first one also governs anything before its Start.
// Jobs keep their controller history across phase changes, as a
// production config push does. It is the same replay Run performs, so a
// single always-enabled phase charges exactly the pages Run averages, and
// the series is bit-identical for any worker count.
func (ct *CompiledTrace) Timeline(phases []Phase, cfg Config) ([]TimelinePoint, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("model: no phases")
	}
	for i, ph := range phases {
		if i > 0 && ph.Start < phases[i-1].Start {
			return nil, fmt.Errorf("model: phases not sorted at %d", i)
		}
		if err := ph.Params.Validate(); err != nil {
			return nil, fmt.Errorf("model: phase %q: %w", ph.Name, err)
		}
	}
	cold := make([][]float64, len(ct.jobs))
	if _, err := ct.replayAll(phases, cfg, cold); err != nil {
		return nil, err
	}

	// Reduce in job order, whatever order the workers finished in: float
	// addition is not associative, so completion order would leak into
	// the low bits.
	at := make(map[int64]int)
	var pts []TimelinePoint
	for ji := range ct.jobs {
		j := &ct.jobs[ji]
		for i, ts := range j.tsSec {
			k, ok := at[ts]
			if !ok {
				k = len(pts)
				at[ts] = k
				pts = append(pts, TimelinePoint{Time: time.Duration(ts) * time.Second})
			}
			pts[k].ColdBytes += cold[ji][i]
			pts[k].ColdBytesAtMin += float64(j.coldTails[i*ct.nThresh])
		}
	}
	sort.Slice(pts, func(a, b int) bool { return pts[a].Time < pts[b].Time })
	ph := 0
	for i := range pts {
		p := &pts[i]
		ph = phaseAt(phases, ph, p.Time)
		p.Phase = phases[ph].Name
		p.ColdBytes *= mem.PageSize
		p.ColdBytesAtMin *= mem.PageSize
		if p.ColdBytesAtMin > 0 {
			p.Coverage = p.ColdBytes / p.ColdBytesAtMin
		}
	}
	return pts, nil
}
