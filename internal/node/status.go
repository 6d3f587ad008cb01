package node

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"sdfm/internal/kstaled"
)

// Snapshot is a machine's monitoring view: what the node agent exports to
// the cluster monitoring system (the paper's Borglet exposes the same
// kind of per-machine far-memory statistics for fleet dashboards).
type Snapshot struct {
	Name       string        `json:"name"`
	Cluster    string        `json:"cluster"`
	Mode       string        `json:"mode"`
	SimTime    time.Duration `json:"simTime"`
	ParamsK    float64       `json:"paramsK"`
	ParamsS    time.Duration `json:"paramsS"`
	DRAMBytes  uint64        `json:"dramBytes"`
	UsedBytes  uint64        `json:"usedBytes"`
	PoolBytes  uint64        `json:"poolFootprintBytes"`
	Compressed uint64        `json:"compressedPages"`
	ColdPages  uint64        `json:"coldPagesAtMin"`
	Coverage   float64       `json:"coverage"`
	Evictions  int           `json:"evictions"`
	LimitKills int           `json:"limitKills"`
	Faults     FaultStats    `json:"faults"`
	Jobs       []JobSnapshot `json:"jobs"`
}

// JobSnapshot is one job's monitoring view.
type JobSnapshot struct {
	Name              string        `json:"name"`
	State             string        `json:"state"`
	Priority          int           `json:"priority"`
	Pages             int           `json:"pages"`
	ResidentPages     int           `json:"residentPages"`
	CompressedPages   int           `json:"compressedPages"`
	WSSPages          uint64        `json:"wssPages"`
	ThresholdBucket   int           `json:"thresholdBucket"`
	Threshold         time.Duration `json:"threshold"`
	Promotions        uint64        `json:"promotions"`
	CompressionRatio  float64       `json:"compressionRatio"`
	CompressOverhead  float64       `json:"compressOverheadFrac"`
	DecompressOverhed float64       `json:"decompressOverheadFrac"`
	Breaker           string        `json:"breaker"`
	BreakerTrips      int           `json:"breakerTrips"`
}

func jobStateName(s JobState) string {
	switch s {
	case JobRunning:
		return "running"
	case JobEvicted:
		return "evicted"
	case JobFinished:
		return "finished"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Snapshot captures the machine's current state.
func (m *Machine) Snapshot() Snapshot {
	s := Snapshot{
		Name:       m.cfg.Name,
		Cluster:    m.cfg.Cluster,
		Mode:       m.cfg.Mode.String(),
		SimTime:    m.now,
		ParamsK:    m.cfg.Params.K,
		ParamsS:    m.cfg.Params.S,
		DRAMBytes:  m.cfg.DRAMBytes,
		UsedBytes:  m.UsedBytes(),
		PoolBytes:  m.pool.FootprintBytes(),
		Compressed: m.CompressedPages(),
		ColdPages:  m.ColdPagesAtMin(),
		Coverage:   m.Coverage(),
		Evictions:  m.evictions,
		LimitKills: m.limitKills,
		Faults:     m.FaultStats(),
	}
	for _, j := range m.jobs {
		s.Jobs = append(s.Jobs, JobSnapshot{
			Name:              j.Memcg.Name(),
			State:             jobStateName(j.State),
			Priority:          j.Priority,
			Pages:             j.Memcg.NumPages(),
			ResidentPages:     j.Memcg.Resident(),
			CompressedPages:   j.Memcg.Compressed(),
			WSSPages:          j.lastWSS,
			ThresholdBucket:   j.Controller.Threshold(),
			Threshold:         j.Controller.ThresholdDuration(kstaled.DefaultScanPeriod),
			Promotions:        j.Promotions,
			CompressionRatio:  j.CompressionRatio(),
			CompressOverhead:  j.CPUOverheadCompress(),
			DecompressOverhed: j.CPUOverheadDecompress(),
			Breaker:           j.BreakerState().String(),
			BreakerTrips:      j.breakerTrips,
		})
	}
	return s
}

// StatusHandler serves the machine's snapshot over HTTP: JSON at the root
// (or with Accept: application/json), a human-readable text view at
// /text. This mirrors the node agent's monitoring export.
func StatusHandler(m *Machine) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(m.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/text", func(w http.ResponseWriter, r *http.Request) {
		s := m.Snapshot()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "machine %s/%s mode=%s t=%v\n", s.Cluster, s.Name, s.Mode, s.SimTime)
		fmt.Fprintf(w, "dram %d/%d MiB used, pool %.1f MiB, coverage %.1f%%, evictions %d\n",
			s.UsedBytes>>20, s.DRAMBytes>>20, float64(s.PoolBytes)/(1<<20), s.Coverage*100, s.Evictions)
		for _, j := range s.Jobs {
			fmt.Fprintf(w, "  job %-20s %-8s prio=%-3d pages=%d compressed=%d wss=%d threshold=%v promos=%d ratio=%.2fx\n",
				j.Name, j.State, j.Priority, j.Pages, j.CompressedPages, j.WSSPages,
				j.Threshold, j.Promotions, j.CompressionRatio)
		}
	})
	return mux
}
