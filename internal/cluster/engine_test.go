package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"sdfm/internal/audit"
	"sdfm/internal/core"
	"sdfm/internal/fault"
	"sdfm/internal/mem"
	"sdfm/internal/node"
	"sdfm/internal/obs"
	"sdfm/internal/telemetry"
	"sdfm/internal/zswap"
)

// fullFleet is a cluster with everything attached that a run can write
// to: a collector, the default fault plan, breakers, the auditor and
// per-machine observers.
type fullFleet struct {
	c     *Cluster
	trace *telemetry.Trace
	hub   *obs.Multi
}

func newFullFleet(t *testing.T, duration time.Duration) *fullFleet {
	t.Helper()
	f := &fullFleet{trace: telemetry.NewTrace(), hub: obs.NewMulti(obs.Label{Key: "run", Value: "workers"})}
	f.c = newCluster(t, Config{
		Machines: 3, DRAMPerMachine: 512 << 20,
		Mode: node.ModeProactive, Params: core.Params{K: 95, S: 10 * time.Minute},
		Seed:      60,
		Collector: telemetry.NewCollector(f.trace),
		Faults:    fault.DefaultPlan(60, duration),
		Breaker:   node.BreakerConfig{Enabled: true},
		Audit:     audit.Config{Enabled: true, DeepEverySteps: 16},
		Obs:       f.hub,
	})
	if err := f.c.Populate(6, nil, 61); err != nil {
		t.Fatal(err)
	}
	return f
}

// sameAs fails the test unless f and ref left the same bytes everywhere a
// caller can look: the trace, each machine, the metric and span exports.
func (f *fullFleet) sameAs(t *testing.T, ref *fullFleet, what string) {
	t.Helper()
	if a, b := traceBytes(t, ref.trace), traceBytes(t, f.trace); !bytes.Equal(a, b) {
		t.Fatalf("%s: trace differs from one worker's (%d vs %d bytes, %d vs %d entries)",
			what, len(b), len(a), f.trace.Len(), ref.trace.Len())
	}
	sameMachines(t, ref.c, f.c)
	refProm, refChrome := renderObs(t, ref.hub)
	prom, chrome := renderObs(t, f.hub)
	if prom != refProm {
		t.Fatalf("%s: Prometheus export differs from one worker's:\n%s\nvs:\n%s", what, prom, refProm)
	}
	if chrome != refChrome {
		t.Fatalf("%s: Chrome trace export differs from one worker's", what)
	}
}

// TestWorkerCountIndependence runs one fully attached fleet at one, two
// and seven workers (more than it has machines) and through Run with one
// and with many processors, and compares bytes. Under the race detector
// the run is thirty simulated minutes instead of two hours, not skipped:
// this is where the detector sees machines, stages and the flush at once.
func TestWorkerCountIndependence(t *testing.T) {
	duration := 2 * time.Hour
	if raceEnabled {
		duration = 30 * time.Minute
	}
	ref := newFullFleet(t, duration)
	if err := ref.c.RunParallel(duration, 1); err != nil {
		t.Fatal(err)
	}
	if ref.trace.Len() == 0 {
		t.Fatal("run exported no telemetry")
	}
	for _, workers := range []int{2, 7} {
		f := newFullFleet(t, duration)
		if err := f.c.RunParallel(duration, workers); err != nil {
			t.Fatal(err)
		}
		f.sameAs(t, ref, fmt.Sprintf("%d workers", workers))
	}
	for _, procs := range []int{1, 4} {
		f := newFullFleet(t, duration)
		prev := runtime.GOMAXPROCS(procs)
		err := f.c.Run(duration)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		f.sameAs(t, ref, fmt.Sprintf("Run at GOMAXPROCS=%d", procs))
	}
}

// TestWorkerCountStepMatchesRun: k Steps leave the machines where one Run
// over k scan periods leaves them, and export the same entries — time
// major (a flush per Step) where Run's are machine major.
func TestWorkerCountStepMatchesRun(t *testing.T) {
	const steps = 15
	duration := steps * 120 * time.Second
	ran := newFullFleet(t, duration)
	if err := ran.c.Run(duration); err != nil {
		t.Fatal(err)
	}
	stepped := newFullFleet(t, duration)
	for i := 0; i < steps; i++ {
		if err := stepped.c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	sameMachines(t, ran.c, stepped.c)

	got := stepped.trace.Entries
	if len(got) == 0 {
		t.Fatal("stepping exported no telemetry")
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.TimestampSec > b.TimestampSec || a.TimestampSec == b.TimestampSec && a.Key.Machine > b.Key.Machine {
			t.Fatalf("stepped trace not in (time, machine) order at entry %d: %s@%d after %s@%d",
				i, b.Key, b.TimestampSec, a.Key, a.TimestampSec)
		}
	}
	byMachine := &telemetry.Trace{Entries: append([]telemetry.Entry(nil), got...)}
	sort.SliceStable(byMachine.Entries, func(i, j int) bool {
		return byMachine.Entries[i].Key.Machine < byMachine.Entries[j].Key.Machine
	})
	if !bytes.Equal(traceBytes(t, byMachine), traceBytes(t, ran.trace)) {
		t.Fatalf("stepped trace, regrouped by machine, is not Run's trace (%d vs %d entries)", len(got), ran.trace.Len())
	}
}

// breakingTier is a zswap pool whose loads fail from a simulated time on.
type breakingTier struct {
	*zswap.Pool
	from time.Duration
	err  error
	now  func() time.Duration
}

func (b *breakingTier) SetNow(now func() time.Duration) { b.now = now }

func (b *breakingTier) Load(m *mem.Memcg, id mem.PageID) (zswap.LoadResult, error) {
	if b.now() >= b.from {
		return zswap.LoadResult{}, b.err
	}
	return b.Pool.Load(m, id)
}

// TestWorkerCountFailuresAreIndependentToo: machine 1 breaks early in
// simulated time, machine 0 late, machine 2 never. Whatever the worker
// count, Run reports machine 0's error — the serial loop's answer, not
// the first failure in wall time — every machine stops where it would
// have stopped alone, and the sink holds what one worker leaves in it.
func TestWorkerCountFailuresAreIndependentToo(t *testing.T) {
	duration := 2 * time.Hour
	if raceEnabled {
		duration = time.Hour
	}
	breakAt := []time.Duration{duration * 3 / 4, duration / 4, 0}
	run := func(workers int) (*Cluster, *telemetry.Trace, error) {
		trace := telemetry.NewTrace()
		c := newCluster(t, Config{
			Machines: 3, DRAMPerMachine: 512 << 20,
			Mode: node.ModeProactive, Params: core.Params{K: 95, S: 4 * time.Minute},
			Seed:      60,
			Collector: telemetry.NewCollector(trace),
			TierFn: func(i int) zswap.FarMemory {
				if breakAt[i] == 0 {
					return nil
				}
				return &breakingTier{Pool: zswap.NewPool(), from: breakAt[i], err: fmt.Errorf("tier of machine %d broke", i)}
			},
		})
		if err := c.Populate(6, nil, 61); err != nil {
			t.Fatal(err)
		}
		return c, trace, c.RunParallel(duration, workers)
	}
	ref, refTrace, refErr := run(1)
	if refErr == nil || !errors.Is(refErr, node.ErrPromotionFailed) || !strings.Contains(refErr.Error(), "tier of machine 0 broke") {
		t.Fatalf("one worker returned %v, want machine 0's promotion failure", refErr)
	}
	now := func(c *Cluster, i int) time.Duration { return c.Machines()[i].Now() }
	if !(now(ref, 1) < now(ref, 0) && now(ref, 0) < now(ref, 2) && now(ref, 2) == duration) {
		t.Fatalf("machines stopped at %v, %v, %v: want machine 1 first, then 0, and 2 at %v",
			now(ref, 0), now(ref, 1), now(ref, 2), duration)
	}
	for _, workers := range []int{2, 7} {
		c, trace, err := run(workers)
		if err == nil || err.Error() != refErr.Error() {
			t.Fatalf("%d workers returned %v, one worker %v", workers, err, refErr)
		}
		sameMachines(t, ref, c)
		if !bytes.Equal(traceBytes(t, trace), traceBytes(t, refTrace)) {
			t.Fatalf("%d workers left %d entries in the sink, one worker %d", workers, trace.Len(), refTrace.Len())
		}
	}
}

// closedSink refuses every entry.
type closedSink struct{}

var errSinkClosed = errors.New("sink closed")

func (closedSink) Append(telemetry.Entry) error { return errSinkClosed }

// TestRunReturnsSinkError: entries reach the sink at the flush, so that is
// where a failing sink is reported.
func TestRunReturnsSinkError(t *testing.T) {
	c := newCluster(t, Config{
		Machines: 2, Mode: node.ModeProactive, Seed: 5,
		Collector: telemetry.NewCollector(closedSink{}),
	})
	if err := c.Populate(2, nil, 6); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(10 * time.Minute); !errors.Is(err, errSinkClosed) {
		t.Fatalf("Run returned %v, want the sink's error", err)
	}
}

// TestMachinePanicReachesCaller: a panic inside a machine comes out of Run
// on the caller's goroutine — where a recover can see it — after every
// other machine has finished, the lowest machine's first.
func TestMachinePanicReachesCaller(t *testing.T) {
	for _, workers := range []int{1, 3} {
		c := newCluster(t, Config{Machines: 3, Mode: node.ModeProactive, Seed: 5})
		if err := c.Populate(3, nil, 6); err != nil {
			t.Fatal(err)
		}
		got := func() (v any) {
			defer func() { v = recover() }()
			return c.advance(workers, func(m *node.Machine) error {
				if m.Name() != "m0000" {
					panic(m.Name() + " exploded")
				}
				return m.Step()
			})
		}()
		if got != "m0001 exploded" {
			t.Fatalf("%d workers: recovered %v, want m0001's panic", workers, got)
		}
		if c.Machines()[0].Now() == 0 {
			t.Fatalf("%d workers: machine 0 did not finish its step", workers)
		}
	}
}
