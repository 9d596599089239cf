package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"mmwave/internal/api"
	"mmwave/internal/cg"
	"mmwave/internal/core"
	"mmwave/internal/host"
	"mmwave/internal/obs"
	"mmwave/internal/pnc"
)

// replayEpochs is how many fleet epochs the traced run measures at each
// depth, after the warmEpochs every depth steps first.
const replayEpochs = 60

// depthRun is what one replay depth produced.
type depthRun struct {
	plans    [][]string       // [epoch][cell] plan bytes
	counters map[string]int64 // the program's *_total counters, all epochs
	wall     time.Duration
	counts   spanTotals // spans of the measured epochs
}

// measured keeps the spans that started at or after from.
func measured(spans []span, from int64) []span {
	var out []span
	for _, s := range spans {
		if s.start >= from {
			out = append(out, s)
		}
	}
	return out
}

// fleetFrames encodes every cell's uplink for epochs [0, n).
func fleetFrames(f *fleet, n int) ([][][][]byte, error) {
	out := make([][][][]byte, fleetCells)
	for i := range out {
		for e := 0; e < n; e++ {
			fr, err := f.frames(i, int64(e))
			if err != nil {
				return nil, err
			}
			out[i] = append(out[i], fr)
		}
	}
	return out, nil
}

// replayHost steps the fleet through an in-process host with the given
// worker count. Traced, every cell prices through a tracedPricer and
// reports its pnc.epoch and core.solve spans into its lane; untraced,
// only the benchmark's host.step spans are recorded.
func replayHost(f *fleet, frames [][][][]byte, workers int, traced bool) (depthRun, error) {
	var run depthRun
	rec := newRecorder()
	reg := obs.NewRegistry()
	h := host.New(host.WithWorkers(workers), host.WithMetrics(reg))
	lanes := make([]*lane, fleetCells)
	for i := range lanes {
		nw, err := f.network(i)
		if err != nil {
			return run, err
		}
		var p core.Pricer = core.NewBranchBoundPricer(fleetBudget)
		if traced {
			lanes[i] = newLane(rec, "pnc.epoch", "core.solve")
			p = &tracedPricer{inner: core.NewBranchBoundPricer(fleetBudget), lane: lanes[i]}
		}
		c, err := h.Admit(host.NewSpec(nw, host.SpecSolveOptions(core.WithPricer(p))))
		if err != nil {
			return run, err
		}
		if traced {
			c.Coordinator().Tracer = lanes[i].tracer()
		}
	}
	feed := func(c *host.Cell, epoch int64) [][]byte { return frames[c.ID()][epoch] }
	ctx := context.Background()
	var from int64
	var start time.Time
	for e := range frames[0] {
		if e == warmEpochs {
			from, start = rec.now(), time.Now()
		}
		id := rec.begin("host.step", 0)
		for _, l := range lanes {
			if l != nil {
				l.base = id
			}
		}
		reps := h.StepAll(ctx, feed)
		rec.finish(id)
		row := make([]string, fleetCells)
		for i, rep := range reps {
			if rep == nil {
				return run, fmt.Errorf("host depth epoch %d: no report for cell %d", e, i)
			}
			if rep.Outcome != host.OutcomeOK {
				return run, fmt.Errorf("host depth epoch %d cell %d: outcome %v: %v", e, i, rep.Outcome, rep.Err)
			}
			row[i] = planJSON(api.PlanFromModel(rep.Plan))
		}
		run.plans = append(run.plans, row)
	}
	run.wall = time.Since(start)
	run.counts = totals(measured(rec.closed(), from))
	run.counters = registryCounters(reg)
	return run, nil
}

// pncRun adds the pnc depth's per-solve counters to a depthRun.
type pncRun struct {
	depthRun
	measuredStats cg.Stats
	calls, exact  int
	warm, pool    int
}

// replayPNC drives each cell's coordinator directly, one cell at a
// time: Ingest for every frame, then RunEpochContext. It checks each
// solve's Theorem-1 bound.
func replayPNC(r *report, f *fleet, frames [][][][]byte) (pncRun, error) {
	var run pncRun
	rec := newRecorder()
	reg := obs.NewRegistry()
	coords := make([]*pnc.Coordinator, fleetCells)
	lanes := make([]*lane, fleetCells)
	pricers := make([]*tracedPricer, fleetCells)
	for i := range coords {
		nw, err := f.network(i)
		if err != nil {
			return run, err
		}
		lanes[i] = newLane(rec, "core.solve")
		pricers[i] = &tracedPricer{inner: core.NewBranchBoundPricer(fleetBudget), lane: lanes[i]}
		if coords[i], err = pnc.NewCoordinator(nw, nil, core.NewOptions(core.WithPricer(pricers[i]))); err != nil {
			return run, err
		}
		coords[i].Tracer = lanes[i].tracer()
		coords[i].Metrics = reg
	}
	ctx := context.Background()
	var from int64
	var start time.Time
	for e := range frames[0] {
		if e == warmEpochs {
			from, start = rec.now(), time.Now()
			for _, p := range pricers {
				run.calls -= p.calls
				run.exact -= p.exact
			}
		}
		row := make([]string, fleetCells)
		for i, c := range coords {
			id := rec.begin("pnc.ingest", 0)
			for _, fr := range frames[i][e] {
				if err := c.Ingest(fr); err != nil {
					return run, fmt.Errorf("pnc depth epoch %d cell %d: ingest: %w", e, i, err)
				}
			}
			rec.finish(id)
			id = rec.begin("pnc.epoch", 0)
			lanes[i].base = id
			res, err := c.RunEpochContext(ctx)
			rec.finish(id)
			if err != nil {
				return run, fmt.Errorf("pnc depth epoch %d cell %d: %w", e, i, err)
			}
			if err := checkBound(res.Solver); err != nil {
				r.violate(fmt.Errorf("pnc depth epoch %d cell %d: %w", e, i, err))
			}
			row[i] = planJSON(api.PlanFromModel(res.Plan))
			if e >= warmEpochs {
				run.measuredStats = addStats(run.measuredStats, res.Solver.Stats)
				run.pool += finalPool(res.Solver)
				if res.WarmSolve {
					run.warm++
				}
			}
		}
		run.plans = append(run.plans, row)
	}
	run.wall = time.Since(start)
	for _, p := range pricers {
		run.calls += p.calls
		run.exact += p.exact
	}
	run.counts = totals(measured(rec.closed(), from))
	run.counters = registryCounters(reg)
	return run, nil
}

// httpRun is the daemon depth: client-side times per route, body bytes,
// and the daemon's own work counters.
type httpRun struct {
	depthRun
	times httpTimes
	bytes int64
	alloc uint64
}

// replayHTTP steps the fleet through pncd over loopback HTTP in a closed
// loop and judges every epoch. The daemon is returned still running.
func replayHTTP(r *report, f *fleet, j *judge, n int) (*daemon, httpRun, error) {
	var run httpRun
	d, err := startDaemon(f)
	if err != nil {
		return nil, run, err
	}
	ctx := context.Background()
	var ms0, ms1 runtime.MemStats
	var b0 int64
	var start time.Time
	for e := 0; e < n; e++ {
		if e == warmEpochs {
			runtime.ReadMemStats(&ms0)
			b0, start = d.tr.bytes.Load(), time.Now()
		}
		s, tm := d.epoch(ctx, f)
		j.check(r, s, false)
		if e >= warmEpochs {
			run.times.demands += tm.demands
			run.times.csi += tm.csi
			run.times.step += tm.step
		}
		row := make([]string, fleetCells)
		for _, rep := range s.reports {
			if rep.Cell >= 0 && rep.Cell < fleetCells {
				row[rep.Cell] = planJSON(rep.Plan)
			}
		}
		run.plans = append(run.plans, row)
	}
	run.wall = time.Since(start)
	runtime.ReadMemStats(&ms1)
	run.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	run.bytes = d.tr.bytes.Load() - b0
	if run.counters, err = d.counters(ctx); err != nil {
		d.close()
		return nil, run, err
	}
	return d, run, nil
}

// fleetTraced replays the workload's exact frames at three depths —
// api.Client over HTTP, host.Host.StepAll in process, and
// pnc.Coordinator directly — asserts byte-identical plans and equal
// work counters, and reports the per-layer metrics and ledger.
func fleetTraced(cfg config, r *report, f *fleet) error {
	total := warmEpochs + replayEpochs
	frames, err := fleetFrames(f, total)
	if err != nil {
		return err
	}
	j, err := newJudge(f)
	if err != nil {
		return err
	}
	d, hr, err := replayHTTP(r, f, j, total)
	if err != nil {
		return err
	}
	defer d.close()
	// Host passes: with the daemon's two workers (what pncd.self_ms is
	// measured against), and with one worker untraced and traced, where
	// self time subtracts exactly and the tracing overhead shows.
	host2, err := replayHost(f, frames, fleetWorkers, false)
	if err != nil {
		return err
	}
	host1, err := replayHost(f, frames, 1, false)
	if err != nil {
		return err
	}
	traced, err := replayHost(f, frames, 1, true)
	if err != nil {
		return err
	}
	// A second untraced pass after the traced one, so warm-up and drift
	// do not read as tracing overhead; the mean wall time is the
	// reference.
	again, err := replayHost(f, frames, 1, false)
	if err != nil {
		return err
	}
	host1.wall = (host1.wall + again.wall) / 2
	pr, err := replayPNC(r, f, frames)
	if err != nil {
		return err
	}

	// Byte-identical plans at every depth, every epoch.
	depths := []struct {
		name string
		run  depthRun
	}{{"host", host2}, {"host one-worker", host1}, {"host traced", traced}, {"pnc traced", pr.depthRun}}
	for e := 0; e < total; e++ {
		for i := 0; i < fleetCells; i++ {
			for _, dp := range depths {
				if dp.run.plans[e][i] != hr.plans[e][i] {
					r.violate(fmt.Errorf("epoch %d cell %d: %s depth plan differs from the HTTP plan", e, i, dp.name))
				}
			}
		}
	}
	for _, dp := range depths {
		checkCounters(r, "pncd /metrics", hr.counters, dp.name, dp.run.counters)
	}
	fallbacks := coldFallbacks(f, hr.counters, total)
	for k := 0; k < fallbacks; k++ {
		r.fail(errWarmFallback)
	}

	cellEpochs := float64(fleetCells * replayEpochs)
	epochs := float64(replayEpochs)
	ms := func(ns int64, per float64) float64 { return float64(ns) / 1e6 / per }

	pc := pr.counts
	pricerMS := ms(pc.dur["core.pricer"], cellEpochs)
	layerCounters(r, pr.measuredStats, cellEpochs, pr.calls, pr.exact, pricerMS)
	r.add(metric{name: "cg.self_ms", unit: "ms", value: ms(pc.self["core.solve"], cellEpochs), n: pc.count["core.solve"]})
	r.add(metric{name: "schedule.pool_cols", unit: "count", value: float64(pr.pool) / cellEpochs, n: int(cellEpochs)})
	r.add(metric{name: "pnc.epoch_ms", unit: "ms", value: ms(pc.dur["pnc.epoch"], cellEpochs), n: pc.count["pnc.epoch"]})
	r.add(metric{name: "pnc.warm_frac", unit: "ratio", value: float64(pr.warm) / cellEpochs, n: int(cellEpochs)})
	r.add(metric{name: "pnc.cold_fallbacks", unit: "count", value: float64(fallbacks), n: total * fleetCells})

	hostStep := ms(host2.counts.dur["host.step"], epochs)
	hostSelf := ms(traced.counts.self["host.step"], epochs)
	r.add(metric{name: "host.step_ms", unit: "ms", value: hostStep, n: host2.counts.count["host.step"]})
	r.add(metric{name: "host.self_ms", unit: "ms", value: hostSelf, n: traced.counts.count["host.step"]})

	httpStep := float64(hr.times.step) / 1e6 / epochs
	r.add(metric{name: "pncd.http_ms.demands", unit: "ms", value: float64(hr.times.demands) / 1e6 / epochs, n: replayEpochs})
	r.add(metric{name: "pncd.http_ms.csi", unit: "ms", value: float64(hr.times.csi) / 1e6 / epochs, n: replayEpochs})
	r.add(metric{name: "pncd.http_ms.step", unit: "ms", value: httpStep, n: replayEpochs})
	r.add(metric{name: "pncd.self_ms", unit: "ms", value: httpStep - hostStep, n: replayEpochs})
	r.add(metric{name: "api.bytes_per_epoch", unit: "B", value: float64(hr.bytes) / epochs, n: replayEpochs})
	r.add(metric{name: "runtime.alloc_bytes_per_op", unit: "B", value: float64(hr.alloc) / epochs, n: replayEpochs})
	overhead := traced.wall.Seconds()/host1.wall.Seconds() - 1
	r.add(metric{name: "bench.trace_overhead_frac", unit: "ratio", value: overhead, n: replayEpochs})

	// The generator's own lateness, at the workload's offered rate.
	load := fleetLoads[f.churn]
	at := d.openLoop(f, load.offeredHz, max(int(load.offeredHz*cfg.seconds/4), 2*minBeyond), func(s stepped) { j.check(r, s, false) })
	r.add(metric{name: "bench.gen_late_ms", unit: "ms", value: at.late.mean(), n: len(at.late)})
	r.add(metric{name: "bench.missed_ticks", unit: "count", value: float64(at.missed), n: len(at.late)})

	// Ledger: CPU work per fleet epoch, from sequential depths where
	// they exist. Pricer, cg and pnc self times come from the pnc depth,
	// host self time from the one-worker host depth, and the HTTP/JSON
	// share is what the daemon path adds on top of the two-worker host
	// step, plus the submissions.
	pncSelf := pc.self["pnc.epoch"] + pc.dur["pnc.ingest"]
	r.ledger = []ledgerRow{
		{"pricer (core+netmodel)", ms(pc.dur["core.pricer"], epochs)},
		{"cg self (master LP, pool, greedy)", ms(pc.self["core.solve"], epochs)},
		{"pnc (ingest, epoch, cold setup)", ms(pncSelf, epochs)},
		{"host (supervision, checkpoint)", hostSelf},
		{"pncd+api (HTTP, JSON, queues)", float64(hr.times.demands+hr.times.csi)/1e6/epochs + httpStep - hostStep},
	}
	r.note("per-layer counters and pnc.* are per cell-epoch (pnc depth, sequential); host.*, pncd.*, api.* per fleet epoch")
	r.note("tracing overhead %.2f%% on the one-worker host depth (traced %.1f ms vs untraced %.1f ms for %d fleet epochs)",
		100*overhead, float64(traced.wall)/1e6, float64(host1.wall)/1e6, replayEpochs)
	r.note("plans byte-identical across the HTTP, host (2 and 1 workers, traced) and pnc depths for %d epochs x %d cells", total, fleetCells)
	return nil
}
