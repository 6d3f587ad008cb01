package tuner

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"sdfm/internal/core"
	"sdfm/internal/fleet"
	"sdfm/internal/model"
)

// historyDigest folds every evaluation of a session — its parameters,
// score, feasibility and every fleet and per-job figure the model
// returned — into one FNV-1a value, bit for bit.
func historyDigest(history []Observation) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f := func(v float64) { put(math.Float64bits(v)) }
	for _, o := range history {
		f(o.Params.K)
		put(uint64(o.Params.S))
		f(o.Score)
		if o.Feasible {
			put(1)
		} else {
			put(0)
		}
		r := &o.Result
		f(r.ColdBytes)
		f(r.ColdBytesAtMin)
		f(r.Coverage)
		f(r.P98Rate)
		f(r.ViolationFrac)
		put(uint64(r.EnabledIntervals))
		put(uint64(r.GapIntervals))
		f(r.Completeness)
		put(uint64(len(r.Jobs)))
		for _, j := range r.Jobs {
			put(uint64(j.Intervals))
			put(uint64(j.Enabled))
			f(j.MeanColdPages)
			f(j.MeanColdAtMinPages)
			f(j.MeanTotalPages)
			f(j.MeanRate)
			put(uint64(j.Violations))
			put(uint64(j.GapIntervals))
		}
	}
	return h.Sum64()
}

// TestAutotuneHistoryPinned holds a whole tuning session over a fixed
// compiled fleet window — 20 replays, the hyperparameter grid and the UCB
// argmax of every iteration — to the digests the session gave before the
// replay, the GP scorer and the grid were made cheaper. Any change to a
// decision, or to one bit of a figure, moves them; so does a result that
// depends on the worker count.
func TestAutotuneHistoryPinned(t *testing.T) {
	tr, err := fleet.Generate(fleet.Config{
		Clusters: 1, MachinesPerCluster: 8, JobsPerMachine: 4,
		Duration: 12 * time.Hour, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	obj := CompiledObjective(model.Compile(tr), core.DefaultSLO)
	want := map[int64]uint64{1: 0x5a1f4f13f70b545c, 2: 0xc53736a1ebf28bf5, 3: 0x945aab50d883b22e}
	for _, procs := range []int{1, 2} {
		useProcs(t, procs)
		for seed := int64(1); seed <= 3; seed++ {
			res, err := Autotune(obj, Config{SLO: core.DefaultSLO, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if got := historyDigest(res.History); got != want[seed] {
				t.Errorf("GOMAXPROCS=%d seed %d: history digest %#016x, want %#016x", procs, seed, got, want[seed])
			}
		}
	}
}
