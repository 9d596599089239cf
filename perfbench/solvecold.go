package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"mmwave/internal/api"
	"mmwave/internal/cg"
	"mmwave/internal/core"
	"mmwave/internal/experiment"
)

const (
	coldInstances = 160 // distinct Table-I instances drawn per run
	coldFixed     = 24  // instance prefix every run solves: plan_s and gap read it
	coldReplay    = 10  // instances replayed by each pass of the traced run
	setupReps     = 5   // set-ups per run; setup_s is their median
)

// coldPricer is the pricer experiment.Config.pricer() builds for the
// Table-I campaign: budget 6000 and the default multi-column leaf pool.
func coldPricer() *core.BranchBoundPricer {
	p := core.NewBranchBoundPricer(experiment.DefaultConfig().PricerBudget)
	p.PoolLeaves = cg.MultiColumnPolicy{}.Columns()
	return p
}

// coldDeployment seeds the instances' networks. As for the fleet, the
// networks are part of the workload's definition and --seed drives the
// traffic: each instance pairs a fixed Table-I network with per-link
// GOP demands drawn from the seed. Solve time depends mostly on the
// network, so seeded networks would make the run-to-run spread mostly
// a matter of which networks were drawn.
const coldDeployment = 1

// drawCold draws n Table-I instances (‖L‖=30, K=5): fixed networks,
// seeded demands.
func drawCold(seed int64, n int) ([]*experiment.Instance, error) {
	cfg := experiment.DefaultConfig()
	nets := rand.New(rand.NewSource(coldDeployment))
	traffic := rand.New(rand.NewSource(seed))
	out := make([]*experiment.Instance, n)
	for i := range out {
		inst, err := experiment.NewInstance(cfg, nets)
		if err != nil {
			return nil, fmt.Errorf("draw instance %d: %w", i, err)
		}
		demands, err := experiment.NewInstance(cfg, traffic)
		if err != nil {
			return nil, fmt.Errorf("draw demands %d: %w", i, err)
		}
		inst.Demands = demands.Demands
		out[i] = inst
	}
	return out, nil
}

// coldOp is one solve-cold operation: core.New plus Solve on a fresh
// instance. With a recorder it records core.new and cg.solve spans and
// routes pricing through a tracedPricer.
type coldOp struct {
	res     *core.Result
	err     error
	elapsed time.Duration
	pricer  *tracedPricer
}

func solveCold(inst *experiment.Instance, rec *recorder) coldOp {
	var op coldOp
	var pricer core.Pricer
	var ln *lane
	if rec != nil {
		ln = newLane(rec)
		op.pricer = &tracedPricer{inner: coldPricer(), lane: ln}
		pricer = op.pricer
	} else {
		pricer = coldPricer()
	}
	start := time.Now()
	id := rec.begin("core.new", 0)
	s, err := core.New(inst.Network, inst.Demands, core.WithPricer(pricer))
	rec.finish(id)
	if err != nil {
		op.err, op.elapsed = err, time.Since(start)
		return op
	}
	id = rec.begin("cg.solve", 0)
	if ln != nil {
		ln.base = id
	}
	op.res, op.err = s.Solve(context.Background())
	rec.finish(id)
	op.elapsed = time.Since(start)
	return op
}

// judge counts one finished operation into the report and returns
// whether it succeeded.
func (op coldOp) judge(r *report, inst *experiment.Instance) bool {
	r.attempted++
	if op.err != nil {
		r.fail(op.err)
		return false
	}
	if err := checkPlan(inst.Network, inst.Demands, nil, op.res.Plan); err != nil {
		r.violate(err)
		return false
	}
	if err := checkBound(op.res); err != nil {
		r.violate(err)
		return false
	}
	return true
}

// coldSetup draws the instance set and solves one extra instance to
// warm the code paths, the set-up every run repeats setupReps times.
func coldSetup(seed int64) ([]*experiment.Instance, time.Duration, error) {
	start := time.Now()
	insts, err := drawCold(seed, coldInstances+1)
	if err != nil {
		return nil, 0, err
	}
	if op := solveCold(insts[coldInstances], nil); op.err != nil {
		return nil, 0, fmt.Errorf("warm-up solve: %w", op.err)
	}
	return insts[:coldInstances], time.Since(start), nil
}

func runSolveCold(cfg config) (*report, error) {
	r := newReport("solve-cold", "solve")
	var setups sample
	var insts []*experiment.Instance
	for i := 0; i < setupReps; i++ {
		var d time.Duration
		var err error
		if insts, d, err = coldSetup(cfg.seed); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	r.add(metric{name: "setup_s", unit: "s", value: setups.median(), pct: 50, n: len(setups)})
	if cfg.trace {
		return r, coldTraced(r, insts)
	}
	heap := startHeapPeak()

	var lat, plan, gap sample
	var offered, served float64
	start := time.Now()
	for i := 0; i < coldFixed || time.Since(start).Seconds() < cfg.seconds; i++ {
		inst := insts[i%len(insts)]
		op := solveCold(inst, nil)
		lat = append(lat, float64(op.elapsed)/1e6)
		bits := totalBits(inst.Demands)
		offered += bits
		if !op.judge(r, inst) {
			continue
		}
		served += bits
		if i < coldFixed {
			plan = append(plan, op.res.Plan.Objective)
			gap = append(gap, op.res.Gap())
		}
	}
	wall := time.Since(start).Seconds()
	peak := heap.end()

	tp, tv, _ := lat.tail()
	r.add(metric{name: "ops_per_s", unit: "1/s", value: float64(len(lat)) / wall, n: len(lat)})
	r.add(metric{name: "p50_ms", unit: "ms", value: lat.median(), pct: 50, n: len(lat)})
	r.add(metric{name: "tail_ms", unit: "ms", value: tv, pct: tp, n: len(lat)})
	r.add(metric{name: "plan_s", unit: "s", value: plan.mean(), n: len(plan)})
	r.add(metric{name: "gap", unit: "ratio", value: gap.mean(), n: len(gap)})
	r.add(metric{name: "served_frac", unit: "ratio", value: served / offered, n: r.attempted})
	r.add(metric{name: "error_rate", unit: "ratio", value: float64(r.failed) / float64(r.attempted), n: r.attempted})
	r.add(metric{name: "heap_peak_mb", unit: "MB", value: peak})
	r.note("solves_per_s = ops_per_s, solve_p50_ms = p50_ms, solve_tail_ms = tail_ms (closed loop, one caller)")
	noteQuartiles(r, "solve latency", lat)
	return r, nil
}

// coldTraced replays the first coldReplay instances untraced, traced
// and untraced again, asserts equal work counters and identical plans,
// and reports the per-layer metrics per solve.
func coldTraced(r *report, insts []*experiment.Instance) error {
	insts = insts[:coldReplay]
	type pass struct {
		stats  cg.Stats
		pool   int
		plans  [][]byte
		wall   time.Duration
		alloc  uint64
		calls  int
		exact  int
		spans  []span
		failed bool
	}
	run := func(traced bool) pass {
		var p pass
		var rec *recorder
		if traced {
			rec = newRecorder()
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for _, inst := range insts {
			op := solveCold(inst, rec)
			if !op.judge(r, inst) {
				p.failed = true
				continue
			}
			p.stats = addStats(p.stats, op.res.Stats)
			p.pool += finalPool(op.res)
			b, _ := json.Marshal(api.PlanFromModel(op.res.Plan))
			p.plans = append(p.plans, b)
			if op.pricer != nil {
				p.calls += op.pricer.calls
				p.exact += op.pricer.exact
			}
		}
		p.wall = time.Since(start)
		runtime.ReadMemStats(&ms1)
		p.alloc = ms1.TotalAlloc - ms0.TotalAlloc
		p.spans = rec.closed()
		return p
	}
	// Untraced passes on both sides of the traced one, so warm-up and
	// drift do not read as tracing overhead; their mean wall time is the
	// reference.
	plain := run(false)
	traced := run(true)
	plain.wall = (plain.wall + run(false).wall) / 2
	// A failed solve leaves the passes with different work; the
	// failure itself is already counted.
	if !plain.failed && !traced.failed {
		checkCounters(r, "untraced", statsCounters(plain.stats), "traced", statsCounters(traced.stats))
		for i := range plain.plans {
			if !bytes.Equal(plain.plans[i], traced.plans[i]) {
				r.violate(fmt.Errorf("instance %d: traced plan differs from untraced plan", i))
			}
		}
	}

	n := float64(len(insts))
	tt := totals(traced.spans)
	pricerMS := float64(tt.dur["core.pricer"]) / 1e6 / n
	solveMS := float64(tt.dur["cg.solve"]) / 1e6 / n
	st := traced.stats
	layerCounters(r, st, n, traced.calls, traced.exact, pricerMS)
	r.add(metric{name: "cg.self_ms", unit: "ms", value: float64(tt.self["cg.solve"]) / 1e6 / n, n: tt.count["cg.solve"]})
	r.add(metric{name: "schedule.pool_cols", unit: "count", value: float64(traced.pool) / n, n: len(insts)})
	zeroFleetLayers(r)
	r.add(metric{name: "bench.gen_late_ms", unit: "ms", value: 0})
	r.add(metric{name: "bench.missed_ticks", unit: "count", value: 0})
	r.add(metric{name: "runtime.alloc_bytes_per_op", unit: "B", value: float64(plain.alloc) / n, n: len(insts)})
	overhead := traced.wall.Seconds()/plain.wall.Seconds() - 1
	r.add(metric{name: "bench.trace_overhead_frac", unit: "ratio", value: overhead, n: len(insts)})

	r.ledger = []ledgerRow{
		{"pricer (core+netmodel)", pricerMS},
		{"cg self (master LP, pool, greedy)", float64(tt.self["cg.solve"]) / 1e6 / n},
		{"core.New (validate, TDMA seed)", float64(tt.dur["core.new"]) / 1e6 / n},
	}
	r.note("core.pricer.ms is %.1f%% of Solve time", 100*pricerMS/solveMS)
	r.note("tracing overhead %.2f%% (traced %.1f ms vs untraced %.1f ms for %d solves)",
		100*overhead, float64(traced.wall)/1e6, float64(plain.wall)/1e6, len(insts))
	return nil
}
