package main

import (
	"fmt"
	"runtime"
	"time"

	"sdfm/internal/audit"
	"sdfm/internal/compress"
	"sdfm/internal/core"
	"sdfm/internal/kreclaimd"
	"sdfm/internal/mem"
	"sdfm/internal/node"
	"sdfm/internal/obs"
	"sdfm/internal/pagedata"
	"sdfm/internal/telemetry"
	"sdfm/internal/workload"
	"sdfm/internal/zsmalloc"
	"sdfm/internal/zswap"
)

// probeBudget is roughly how long the hand-driven layer steps may take.
const probeBudget = 750 * time.Millisecond

// probeSim produces the simulator's per-layer metrics from the outside:
// the window's public counters, the Machine.Step spans, and layer probes —
// each layer's public entry point driven by hand on the episode's final
// live state (the episode is over, so disturbing that state costs nothing).
// The *.share_of_step values are count × probed unit cost ÷ step time:
// estimates, because the probed steps come after the window, not from it.
func probeSim(e *env, s *simState, ep *episode, before, after simCounters) map[string]float64 {
	L := make(map[string]float64)
	steps := float64(ep.work)
	stepNs := float64(sumDurations(ep.ops)) / steps // mean machine-step in the window

	L["zswap.stored_pages"] = float64(after.tier.StoredPages - before.tier.StoredPages)
	L["zswap.loaded_pages"] = float64(after.tier.LoadedPages - before.tier.LoadedPages)
	L["zswap.rejected_pages"] = float64(after.tier.RejectedPages - before.tier.RejectedPages)
	L["kreclaimd.stored_per_step"] = float64(after.stored-before.stored) / steps
	L["node.allocs_per_step"] = float64(ep.allocs) / steps
	stepMs := sortedCopy(durationsIn(e.tr.durations("node.Machine.Step"), time.Millisecond))
	L["node.step_ms_p50"] = quantile(stepMs, 0.50)
	L["node.step_ms_p99"] = quantile(stepMs, 0.99)

	var phys, payload uint64
	for _, m := range s.machines {
		if p, ok := m.Tier().(*zswap.Pool); ok {
			st := p.ArenaStats()
			phys += st.PhysicalBytes
			payload += st.PayloadBytes
		}
	}
	if phys > 0 {
		L["zsmalloc.fragmentation_pct"] = (1 - float64(payload)/float64(phys)) * 100
	}

	if s.cluster != nil {
		L["cluster.populate_ms"] = ms(s.populate)
		e.span("probe cluster.RunParallel", func() { probeParallel(s, L) })
	}
	e.span("probe layer steps", func() { probeLayerSteps(s, stepNs, L) })
	e.span("probe pages", func() { probePages(s, L) })
	e.span("probe memcg", func() { probeMemcg(s, L) })
	if s.trace != nil {
		e.span("probe telemetry", func() { probeTelemetry(s, L) })
	}
	if s.cluster != nil {
		e.span("probe AddJob", func() { probeAddJob(e, s, L) })
	} else {
		L["node.addjob_ms"] = s.addJobMs
		e.span("probe instrumentation", func() { probeInstrumentation(e, L) })
	}
	return L
}

// probeParallel compares RunParallel at the load-worker count against the
// sequential Run the CLIs use, on consecutive stretches of simulated time.
func probeParallel(s *simState, L map[string]float64) {
	const k = 3
	stretch := k * scanPeriod
	t0 := time.Now()
	if err := s.cluster.Run(s.now + stretch); err != nil {
		return
	}
	seq := time.Since(t0)
	s.now += stretch
	t0 = time.Now()
	if err := s.cluster.RunParallel(s.now+stretch, loadWorkers()); err != nil {
		return
	}
	par := time.Since(t0)
	s.now += stretch
	L["cluster.parallel_speedup_x"] = per(float64(seq), float64(par))
}

type access struct {
	id    mem.PageID
	write bool
}

// probeLayerSteps continues the simulation by hand for a few scan periods,
// making the same calls into workload, mem, kstaled, kreclaimd and the
// far-memory tier that Machine.Step makes, each timed on its own.
func probeLayerSteps(s *simState, stepNs float64, L map[string]float64) {
	n := int(float64(probeBudget) / (stepNs * float64(len(s.machines))))
	if n < 4 {
		n = 4
	}
	if n > 300 {
		n = 300
	}
	var tick, touch, load, scan, reclaim, idle time.Duration
	var accesses, loads, pages, calls, idleCalls int
	var compacts []float64
	var acc []access
	reclaimers := make([]*kreclaimd.Reclaimer, len(s.machines))
	for i, m := range s.machines {
		reclaimers[i] = kreclaimd.New(m.Tier())
	}
	for step := 1; step <= n; step++ {
		s.now += scanPeriod
		for mi, m := range s.machines {
			tier := m.Tier()
			for _, j := range m.Jobs() {
				if j.State != node.JobRunning {
					continue
				}
				acc = acc[:0]
				t0 := time.Now()
				j.Workload.Tick(s.now, func(id mem.PageID, write bool) {
					acc = append(acc, access{id, write})
				})
				t1 := time.Now()
				tick += t1.Sub(t0)
				var jobLoad time.Duration
				for _, a := range acc {
					if j.Memcg.Flags(a.id).Has(mem.FlagCompressed) {
						j.Tracker.RecordPromotionFault(j.Memcg.Age(a.id))
						tl := time.Now()
						if _, err := tier.Load(j.Memcg, a.id); err != nil {
							continue
						}
						jobLoad += time.Since(tl)
						loads++
					}
					j.Memcg.Touch(a.id, a.write)
				}
				touch += time.Since(t1) - jobLoad
				load += jobLoad
				accesses += len(acc)
			}
			for _, j := range m.Jobs() {
				if j.State != node.JobRunning {
					continue
				}
				t0 := time.Now()
				j.Tracker.Scan()
				scan += time.Since(t0)
				pages += j.Memcg.NumPages()
			}
			for _, j := range m.Jobs() {
				if j.State != node.JobRunning || !j.Controller.Enabled(s.now) {
					continue
				}
				t0 := time.Now()
				res := reclaimers[mi].ReclaimCold(j.Memcg, j.Controller.Threshold())
				d := time.Since(t0)
				reclaim += d
				calls++
				if res.Stored == 0 && res.Rejected == 0 {
					idle += d
					idleCalls++
				}
			}
			if p, ok := tier.(*zswap.Pool); ok && (step%10 == 0 || step == n) {
				t0 := time.Now()
				p.Compact()
				compacts = append(compacts, ms(time.Since(t0)))
			}
		}
	}
	machineSteps := float64(n * len(s.machines))
	L["workload.tick_ns_per_access"] = per(float64(tick), float64(accesses))
	L["workload.accesses_per_step"] = float64(accesses) / machineSteps
	L["workload.share_of_step"] = float64(tick) / machineSteps / stepNs
	L["mem.touch_ns_per_access"] = per(float64(touch), float64(accesses))
	L["kstaled.scan_ns_per_page"] = per(float64(scan), float64(pages))
	L["kstaled.pages_per_step"] = float64(pages) / machineSteps
	L["kstaled.share_of_step"] = float64(scan) / machineSteps / stepNs
	L["kreclaimd.reclaim_us_per_call"] = per(us(reclaim), float64(calls))
	L["kreclaimd.idle_walk_ns"] = per(float64(idle), float64(idleCalls))
	L["kreclaimd.share_of_step"] = float64(reclaim) / machineSteps / stepNs
	L["zswap.load_us_per_page"] = per(us(load), float64(loads))
	L["zsmalloc.compact_ms"] = median(compacts)
}

// biggestJob returns the running job with the most pages.
func biggestJob(s *simState) (*node.Machine, *node.Job) {
	var bm *node.Machine
	var bj *node.Job
	for _, m := range s.machines {
		for _, j := range m.Jobs() {
			if j.State == node.JobRunning && (bj == nil || j.Memcg.NumPages() > bj.Memcg.NumPages()) {
				bm, bj = m, j
			}
		}
	}
	return bm, bj
}

// probePages walks a sample of the biggest job's resident pages down the
// store path one layer at a time — pagedata.Generate, compress.Compress /
// Decompress, then the tier's own Store and Load — and replays the
// compressed sizes it saw into a fresh zsmalloc arena.
func probePages(s *simState, L map[string]float64) {
	m, j := biggestJob(s)
	if j == nil {
		return
	}
	ids := j.Memcg.AppendColdReclaimable(nil, 0)
	const sample = 2000
	if len(ids) > sample {
		stride := len(ids) / sample
		picked := ids[:0]
		for i := 0; i < sample; i++ {
			picked = append(picked, ids[i*stride])
		}
		ids = picked
	}
	if len(ids) == 0 {
		return
	}
	page := make([]byte, mem.PageSize)
	comp := make([]byte, 0, compress.CompressBound(mem.PageSize))
	out := make([]byte, 0, mem.PageSize)
	var gen, cmp, dec time.Duration
	var compressed int
	var sizes []int
	for _, id := range ids {
		meta := j.Memcg.Meta(id)
		t0 := time.Now()
		pagedata.Generate(page, meta.Class, meta.Seed)
		t1 := time.Now()
		comp = compress.Compress(comp[:0], page)
		t2 := time.Now()
		var err error
		out, err = compress.Decompress(out[:0], comp, mem.PageSize)
		t3 := time.Now()
		if err != nil {
			continue
		}
		gen += t1.Sub(t0)
		cmp += t2.Sub(t1)
		dec += t3.Sub(t2)
		compressed += len(comp)
		if n := len(comp); n > 0 && n <= zswap.DefaultCutoff {
			sizes = append(sizes, n)
		}
	}
	n := float64(len(ids))
	L["pagedata.generate_us_per_page"] = us(gen) / n
	L["compress.compress_us_per_page"] = us(cmp) / n
	L["compress.decompress_us_per_page"] = us(dec) / n
	L["compress.ratio"] = per(n*mem.PageSize, float64(compressed))

	tier := m.Tier()
	var store, load time.Duration
	var loads int
	for _, id := range ids {
		t0 := time.Now()
		tier.Store(j.Memcg, id)
		store += time.Since(t0)
	}
	for _, id := range ids {
		if !j.Memcg.Flags(id).Has(mem.FlagCompressed) {
			continue
		}
		t0 := time.Now()
		if _, err := tier.Load(j.Memcg, id); err == nil {
			load += time.Since(t0)
			loads++
		}
	}
	L["zswap.store_us_per_page"] = us(store) / n
	if L["zswap.load_us_per_page"] == 0 {
		L["zswap.load_us_per_page"] = per(us(load), float64(loads))
	}

	if len(sizes) == 0 {
		return
	}
	const objects = 20_000
	arena := zsmalloc.New()
	handles := make([]zsmalloc.Handle, 0, objects)
	t0 := time.Now()
	for i := 0; i < objects; i++ {
		h, err := arena.Alloc(sizes[i%len(sizes)], nil)
		if err != nil {
			return
		}
		handles = append(handles, h)
	}
	alloc := time.Since(t0)
	t0 = time.Now()
	for _, h := range handles {
		if err := arena.Free(h); err != nil {
			return
		}
	}
	L["zsmalloc.alloc_ns"] = float64(alloc) / objects
	L["zsmalloc.free_ns"] = float64(time.Since(t0)) / objects
}

// probeMemcg measures a fresh memcg built from the biggest job's own
// MemcgConfig: heap bytes per page, and the flat ScanAges sweep.
func probeMemcg(s *simState, L map[string]float64) {
	_, j := biggestJob(s)
	if j == nil {
		return
	}
	cfg := j.Workload.MemcgConfig(1)
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	mc := mem.NewMemcg(cfg)
	runtime.GC()
	runtime.ReadMemStats(&b)
	pages := float64(mc.NumPages())
	L["mem.heap_bytes_per_page"] = (float64(b.HeapAlloc) - float64(a.HeapAlloc)) / pages
	const sweeps = 20
	var promos [mem.NumAges]uint64
	var total time.Duration
	for r := 0; r < sweeps; r++ {
		for id := r % 10; id < mc.NumPages(); id += 10 {
			mc.Touch(mem.PageID(id), false)
		}
		t0 := time.Now()
		mc.ScanAges(&promos)
		total += time.Since(t0)
	}
	L["mem.scan_ns_per_page"] = float64(total) / sweeps / pages
	runtime.KeepAlive(mc)
}

// probeTelemetry times Collector.Record on the live jobs' own histograms,
// and Validate + VerifyChecksum on the entries that produces.
func probeTelemetry(s *simState, L map[string]float64) {
	trace := telemetry.NewTrace()
	col := telemetry.NewCollector(trace)
	const intervals = 20
	var record time.Duration
	for r := 1; r <= intervals; r++ {
		now := s.now + time.Duration(r)*telemetry.DefaultAggregation
		for _, m := range s.machines {
			for _, j := range m.Jobs() {
				if j.State != node.JobRunning {
					continue
				}
				key := telemetry.JobKey{Cluster: "probe", Machine: m.Name(), Job: j.Memcg.Name()}
				census := j.Tracker.Census()
				wss := core.WorkingSetPages(census, core.DefaultSLO)
				t0 := time.Now()
				err := col.Record(key, now, telemetry.DefaultAggregation.Minutes(), j.Tracker.Promotions(), census, wss)
				record += time.Since(t0)
				if err != nil {
					return
				}
			}
		}
	}
	if trace.Len() == 0 {
		return
	}
	L["telemetry.record_us_per_entry"] = us(record) / float64(trace.Len())
	L["telemetry.validate_ns_per_entry"] = validateNsPerEntry(trace.Entries, len(trace.Thresholds))
}

// validateNsPerEntry times the two checks the controller's ingest applies
// to every entry.
func validateNsPerEntry(entries []telemetry.Entry, thresholds int) float64 {
	const calls = 20_000
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		en := &entries[i%len(entries)]
		if en.Validate(thresholds) != nil || en.VerifyChecksum() != nil {
			return 0
		}
	}
	return float64(time.Since(t0)) / calls
}

// probeAddJob times one AddJob of a standard-archetype workload.
func probeAddJob(e *env, s *simState, L map[string]float64) {
	w, err := workload.New(workload.Config{
		Archetype: workload.BigtableServer, Name: "probe-addjob", Seed: e.seed, Start: s.machines[0].Now(),
	})
	if err != nil {
		return
	}
	t0 := time.Now()
	if _, err := s.machines[0].AddJob(w); err != nil {
		return
	}
	L["node.addjob_ms"] = ms(time.Since(t0))
}

// probeInstrumentation prices the metrics layer and the per-step invariant
// audit: three cold-store machines of a fifth the size, identical but for
// Obs and Audit, stepped in interleaved blocks; each machine's block time is
// reduced like every other repeated time.
func probeInstrumentation(e *env, L map[string]float64) {
	hub := obs.NewMulti(obs.Label{Key: "run", Value: "bench"})
	variants := []node.Config{
		{},
		{Obs: hub.Observer("bench")},
		{Audit: audit.Config{Enabled: true}},
	}
	arch := coldStore(e.sz.ColdPages / 5)
	machines := make([]*node.Machine, len(variants))
	for i, cfg := range variants {
		cfg.Name, cfg.Cluster, cfg.DRAMBytes = "probe", "bench", 4<<30
		cfg.Mode, cfg.Params, cfg.SLO, cfg.Seed = node.ModeProactive, core.DefaultParams, core.DefaultSLO, e.seed
		m, err := node.NewMachine(cfg)
		if err != nil {
			return
		}
		for j := 0; j < e.sz.ColdJobs; j++ {
			w, err := workload.New(workload.Config{Archetype: arch, Name: fmt.Sprintf("cold-%d", j), Seed: e.seed + int64(j)})
			if err != nil {
				return
			}
			if _, err := m.AddJob(w); err != nil {
				return
			}
		}
		for k := 0; k < e.sz.ColdWarmSteps; k++ {
			if m.Step() != nil {
				return
			}
		}
		machines[i] = m
	}
	const blocks, blockSteps = 20, 25
	block := make([][]float64, len(machines))
	for b := 0; b < blocks; b++ {
		for i, m := range machines {
			t0 := time.Now()
			for k := 0; k < blockSteps; k++ {
				if m.Step() != nil {
					return
				}
			}
			block[i] = append(block[i], float64(time.Since(t0)))
		}
	}
	total := make([]float64, len(machines))
	for i := range block {
		total[i] = quantile(sortedCopy(block[i]), undisturbed)
	}
	L["obs.step_overhead_pct"] = (total[1]/total[0] - 1) * 100
	L["audit.step_overhead_pct"] = (total[2]/total[0] - 1) * 100
}
