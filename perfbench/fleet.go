package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"mmwave/internal/api"
	"mmwave/internal/experiment"
	"mmwave/internal/faults"
	"mmwave/internal/netmodel"
	"mmwave/internal/obs"
	"mmwave/internal/pncd"
	"mmwave/internal/stats"
	"mmwave/internal/video"
)

// Fleet shape shared by pncd-steady and pncd-churn.
const (
	fleetCells    = 8
	fleetLinks    = 6
	fleetChannels = 2
	fleetBudget   = 2000 // tenant solve.pricer_budget
	fleetWorkers  = 2    // pncd.Config.Workers, the box's vCPU count
	warmEpochs    = 4    // epochs stepped during set-up, before timing
	csiJitter     = 0.2  // relative amplitude of churned gains

	// fleetDeployment seeds the cells' networks. The deployment is part
	// of the workload's definition and stays fixed; --seed drives the
	// traffic and CSI traces. Eight drawn networks differ enough in
	// solve cost that a seeded deployment would make the run-to-run
	// spread mostly a matter of which networks were drawn.
	fleetDeployment = 1
)

// fleetLoad is each pncd workload's open-loop schedule: the offered
// epoch rate (about half the closed-loop capacity of the commit that
// introduced the benchmark) and the latency limit the tail must meet.
type fleetLoad struct {
	offeredHz float64
	limitMS   float64
}

var fleetLoads = map[bool]fleetLoad{
	false: {offeredHz: 20, limitMS: 60}, // pncd-steady
	true:  {offeredHz: 15, limitMS: 80}, // pncd-churn
}

// fleet is the workload's input: the cell networks of the fixed
// deployment, and the demand trace and (for churn) CSI trace derived
// from the seed.
type fleet struct {
	seed  int64
	churn bool
	base  []*netmodel.Network // drawn networks; never mutated
	gen   *faults.LoadGen
}

func newFleet(seed int64, churn bool) (*fleet, error) {
	cfg := experiment.DefaultConfig()
	cfg.NumLinks, cfg.NumChannels = fleetLinks, fleetChannels
	f := &fleet{seed: seed, churn: churn}
	for i := 0; i < fleetCells; i++ {
		inst, err := experiment.NewInstance(cfg, stats.Fork(fleetDeployment, int64(i)))
		if err != nil {
			return nil, fmt.Errorf("draw cell %d: %w", i, err)
		}
		f.base = append(f.base, inst.Network)
	}
	gen, err := faults.NewLoadGen(faults.LoadConfig{
		Links:       fleetLinks,
		MeanHPBits:  2e6,
		MeanLPBits:  6e6,
		Jitter:      0.3,
		Burstiness:  0.5,
		BurstPeriod: 4, // bursts staggered across cells
		Seed:        seed,
	})
	if err != nil {
		return nil, err
	}
	f.gen = gen
	return f, nil
}

// network returns a private copy of cell i's drawn network (CSI
// updates mutate a coordinator's network in place).
func (f *fleet) network(i int) (*netmodel.Network, error) {
	// The wire form shares gain slices with the model, so copy through
	// JSON as a client would.
	b, err := json.Marshal(api.NetworkFromModel(f.base[i]))
	if err != nil {
		return nil, err
	}
	var wire api.Network
	if err := json.Unmarshal(b, &wire); err != nil {
		return nil, err
	}
	return wire.ToModel()
}

func (f *fleet) demands(cell int, epoch int64) []api.Demand {
	out := make([]api.Demand, fleetLinks)
	for l, d := range f.gen.Demands(cell, epoch) {
		out[l] = api.DemandFromModel(l, d)
	}
	return out
}

// csi is the cell's channel update for the epoch: one link, rotating
// with the epoch, its drawn gains scaled by seeded jitter. Steady
// fleets send none.
func (f *fleet) csi(cell int, epoch int64) []api.CSI {
	if !f.churn {
		return nil
	}
	link := int(epoch % fleetLinks)
	gains := append([]float64(nil), f.base[cell].Gains.Direct[link]...)
	for k := range gains {
		h := splitmix(uint64(f.seed) ^ splitmix(uint64(cell)<<32|uint64(k)) ^ splitmix(uint64(epoch)+0x9e3779b97f4a7c15))
		u := 2*float64(h>>11)/(1<<53) - 1
		gains[k] *= 1 + csiJitter*u
	}
	return []api.CSI{{Link: link, Gains: gains}}
}

// frames is the epoch's uplink for one cell in submission order:
// demand reports, then CSI.
func (f *fleet) frames(cell int, epoch int64) ([][]byte, error) {
	var out [][]byte
	for _, d := range f.demands(cell, epoch) {
		b, err := d.Frame()
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	for _, c := range f.csi(cell, epoch) {
		b, err := c.Frame()
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// countingTransport counts request and response body bytes.
type countingTransport struct {
	base  *http.Transport
	bytes atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.ContentLength > 0 {
		t.bytes.Add(req.ContentLength)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// daemon is an in-process pncd behind loopback HTTP, with the fleet's
// cells created over the v1 API.
type daemon struct {
	srv    *pncd.Server
	hs     *httptest.Server
	tr     *countingTransport
	client *api.Client
	ids    []int
	next   int64 // next epoch to step
}

func startDaemon(f *fleet) (*daemon, error) {
	srv, err := pncd.New(pncd.Config{Workers: fleetWorkers})
	if err != nil {
		return nil, err
	}
	tr := &countingTransport{base: &http.Transport{MaxConnsPerHost: fleetWorkers, MaxIdleConnsPerHost: fleetWorkers}}
	d := &daemon{srv: srv, hs: httptest.NewServer(srv.Handler()), tr: tr}
	d.client = api.NewClient(d.hs.URL, &http.Client{Transport: tr})
	ctx := context.Background()
	for i := range f.base {
		wire := api.NetworkFromModel(f.base[i])
		st, err := d.client.CreateCell(ctx, api.CellSpec{Network: &wire, Solve: &api.Solve{PricerBudget: fleetBudget}})
		if err != nil {
			d.close()
			return nil, fmt.Errorf("create cell %d: %w", i, err)
		}
		d.ids = append(d.ids, st.Cell)
	}
	return d, nil
}

func (d *daemon) close() {
	d.hs.Close()
	d.srv.Close()
	d.tr.base.CloseIdleConnections()
}

// httpTimes splits one fleet epoch's HTTP time by route.
type httpTimes struct{ demands, csi, step time.Duration }

// stepped is one fleet epoch's outcome as the client saw it.
type stepped struct {
	epoch   int64
	reports []api.EpochReport
	err     error
}

// epoch submits every cell's demands (and CSI) for the next epoch and
// steps the whole fleet.
func (d *daemon) epoch(ctx context.Context, f *fleet) (stepped, httpTimes) {
	var tm httpTimes
	e := d.next
	d.next++
	out := stepped{epoch: e}
	for i, id := range d.ids {
		t := time.Now()
		if _, err := d.client.SubmitDemands(ctx, id, f.demands(i, e)); err != nil {
			out.err = fmt.Errorf("submit demands: %w", err)
			return out, tm
		}
		tm.demands += time.Since(t)
		if c := f.csi(i, e); c != nil {
			t = time.Now()
			if _, err := d.client.SubmitCSI(ctx, id, c); err != nil {
				out.err = fmt.Errorf("submit csi: %w", err)
				return out, tm
			}
			tm.csi += time.Since(t)
		}
	}
	t := time.Now()
	out.reports, out.err = d.client.StepAll(ctx)
	tm.step = time.Since(t)
	if out.err != nil {
		out.err = fmt.Errorf("step: %w", out.err)
	}
	return out, tm
}

// counters reads the daemon's cumulative work counters from /metrics.
func (d *daemon) counters(ctx context.Context) (map[string]int64, error) {
	text, err := d.client.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	return parseCounters(text), nil
}

// registryCounters reads an in-process registry the way /metrics
// exposes it.
func registryCounters(reg *obs.Registry) map[string]int64 {
	var b strings.Builder
	_ = reg.WriteText(&b) // a strings.Builder never fails
	return parseCounters(b.String())
}

// parseCounters extracts the *_total counters of a metrics exposition.
func parseCounters(text string) map[string]int64 {
	out := map[string]int64{}
	for _, line := range strings.Split(text, "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || !strings.HasSuffix(name, "_total") {
			continue
		}
		if v, err := strconv.ParseInt(val, 10, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// errWarmFallback records an epoch whose warm re-solve failed and that
// the coordinator finished with a cold solve instead. The plan it
// serves is correct; the failed warm master costs its pivots.
var errWarmFallback = errors.New("warm re-solve failed; coordinator fell back to a cold solve")

// coldFallbacks counts the daemon's cold solves beyond those its inputs
// force: each cell's first epoch and, under churn, every epoch, since
// each one carries a CSI change.
func coldFallbacks(f *fleet, counters map[string]int64, epochs int) int {
	forced := fleetCells
	if f.churn {
		forced = fleetCells * epochs
	}
	return int(counters["pnc_cold_solves_total"]) - forced
}

// judge checks a fleet's stepped epochs in order, applying each epoch's
// CSI to the benchmark's own view of the networks first. It counts one
// attempted operation per cell-epoch.
type judge struct {
	f       *fleet
	view    []*netmodel.Network
	offered float64
	served  float64
	plan    sample // objectives of fresh plans
	age     sample // PlanAge of served plans
}

func newJudge(f *fleet) (*judge, error) {
	j := &judge{f: f}
	for i := range f.base {
		nw, err := f.network(i)
		if err != nil {
			return nil, err
		}
		j.view = append(j.view, nw)
	}
	return j, nil
}

func (j *judge) check(r *report, s stepped, keepPlan bool) {
	demands := make([][]video.Demand, fleetCells)
	for i := range j.view {
		for _, c := range j.f.csi(i, s.epoch) {
			copy(j.view[i].Gains.Direct[c.Link], c.Gains)
		}
		for _, d := range j.f.demands(i, s.epoch) {
			demands[i] = append(demands[i], d.ToModel())
		}
		j.offered += totalBits(demands[i])
	}
	r.attempted += fleetCells
	if s.err != nil {
		r.failed += fleetCells
		r.errs[s.err.Error()] += fleetCells
		return
	}
	if len(s.reports) != fleetCells {
		r.failed += fleetCells
		r.errs[fmt.Sprintf("step returned %d reports for %d cells", len(s.reports), fleetCells)] += fleetCells
		return
	}
	for _, rep := range s.reports {
		i := rep.Cell
		if i < 0 || i >= fleetCells {
			r.fail(fmt.Errorf("report for unknown cell %d", i))
			continue
		}
		if rep.Outcome != "ok" || rep.Result == nil {
			r.fail(fmt.Errorf("cell epoch outcome %s: %s", rep.Outcome, rep.Error))
			continue
		}
		if err := checkDeferred(j.view[i], rep.Result.DeferredLinks); err != nil {
			r.violate(fmt.Errorf("cell %d epoch %d: %w", i, s.epoch, err))
			continue
		}
		skip := map[int]bool{}
		served := totalBits(demands[i])
		for _, l := range rep.Result.DeferredLinks {
			skip[l] = true
			served -= demands[i][l].Total()
		}
		if err := checkPlan(j.view[i], demands[i], skip, rep.Plan.ToModel()); err != nil {
			r.violate(fmt.Errorf("cell %d epoch %d: %w", i, s.epoch, err))
			continue
		}
		j.served += served
		j.age = append(j.age, float64(rep.PlanAge))
		if keepPlan {
			j.plan = append(j.plan, rep.Plan.Objective)
		}
	}
}

// fleetSetup starts a daemon, creates the fleet's cells and steps the
// warm-up epochs, which the judge checks like any other.
func fleetSetup(f *fleet, r *report, j *judge) (*daemon, time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(f)
	if err != nil {
		return nil, 0, err
	}
	var steps []stepped
	for e := 0; e < warmEpochs; e++ {
		s, _ := d.epoch(context.Background(), f)
		steps = append(steps, s)
	}
	elapsed := time.Since(start)
	if j != nil {
		for _, s := range steps {
			j.check(r, s, false)
		}
	}
	return d, elapsed, nil
}

// loopResult is what one open-loop run saw.
type loopResult struct {
	lat    sample // ms from due time to step response
	late   sample // ms from due time to first request
	missed int    // epochs that started after the next one was due
}

// openLoop steps the fleet at a fixed rate for n epochs from one
// generator goroutine. Each epoch is timed from the moment it was due,
// so a stalled daemon shows up as latency rather than as less offered
// load. Finished epochs go to check in order, in the slack before the
// next one is due, so their reports are not kept in memory while the
// heap is measured; when the generator runs behind they wait for the
// next slack or the end of the run.
func (d *daemon) openLoop(f *fleet, rate float64, n int, check func(stepped)) loopResult {
	var out loopResult
	var pending []stepped
	period := time.Duration(float64(time.Second) / rate)
	ctx := context.Background()
	t0 := time.Now()
	for k := 0; k < n; k++ {
		due := t0.Add(time.Duration(k) * period)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		late := time.Since(due)
		if late > period {
			out.missed++
		}
		s, _ := d.epoch(ctx, f)
		out.lat = append(out.lat, float64(time.Since(due))/1e6)
		out.late = append(out.late, float64(late)/1e6)
		pending = append(pending, s)
		if time.Until(due.Add(period)) > period/2 {
			for _, p := range pending {
				check(p)
			}
			pending = pending[:0]
		}
	}
	for _, p := range pending {
		check(p)
	}
	return out
}

// ladder is the fixed set of epoch rates sustained_epoch_hz is read
// from: 5 Hz to 200 Hz in 5% steps.
func ladder() []float64 {
	var out []float64
	for r := 5.0; r <= 200; r *= 1.05 {
		out = append(out, r)
	}
	return out
}

// sustains reports whether a rung's run met the latency limit at its
// tail without a growing backlog: the generator may not start the last
// third of the run more than one tick later than the first third.
func sustains(res loopResult, limitMS float64, period time.Duration) bool {
	_, tail, ok := res.lat.tail()
	if !ok || tail > limitMS {
		return false
	}
	k := len(res.late) / 3
	first, last := res.late[:k].mean(), res.late[len(res.late)-k:].mean()
	return last-first <= float64(period)/1e6
}

func runFleet(cfg config, churn bool) (*report, error) {
	name := map[bool]string{false: "pncd-steady", true: "pncd-churn"}[churn]
	r := newReport(name, "fleet epoch of 8 cells")
	load := fleetLoads[churn]
	f, err := newFleet(cfg.seed, churn)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return r, fleetTraced(cfg, r, f)
	}
	j, err := newJudge(f)
	if err != nil {
		return nil, err
	}
	var setups sample
	var d *daemon
	for i := 0; i < setupReps; i++ {
		if d != nil {
			d.close()
		}
		var elapsed time.Duration
		var jj *judge
		if i == setupReps-1 {
			jj = j // the kept fleet's warm-up epochs are judged
		}
		if d, elapsed, err = fleetSetup(f, r, jj); err != nil {
			return nil, err
		}
		setups = append(setups, elapsed.Seconds())
	}
	defer d.close()
	r.add(metric{name: "setup_s", unit: "s", value: setups.median(), pct: 50, n: len(setups)})
	heap := startHeapPeak()

	// Offered-rate phase: half the run at the workload's fixed rate.
	// The heap peak is read over this phase.
	n := int(load.offeredHz * cfg.seconds / 2)
	at := d.openLoop(f, load.offeredHz, n, func(s stepped) { j.check(r, s, true) })
	peak := heap.end()

	// Ladder phase: bisect the fixed ladder for the highest rate that
	// sustains the limit, within the other half of the run.
	rungs := ladder()
	lo, hi := -1, len(rungs)
	budget := cfg.seconds / 2
	probe := budget / math.Ceil(math.Log2(float64(len(rungs)+1)))
	for lo+1 < hi {
		mid := (lo + hi) / 2
		rate := rungs[mid]
		res := d.openLoop(f, rate, max(int(rate*probe), 3*minBeyond), func(s stepped) { j.check(r, s, false) })
		if sustains(res, load.limitMS, time.Duration(float64(time.Second)/rate)) {
			lo = mid
		} else {
			hi = mid
		}
	}
	sustained := 0.0
	if lo >= 0 {
		sustained = rungs[lo]
	}
	counters, err := d.counters(context.Background())
	if err != nil {
		return nil, err
	}
	fallbacks := coldFallbacks(f, counters, int(d.next))
	for k := 0; k < fallbacks; k++ {
		r.fail(errWarmFallback)
	}

	tp, tv, _ := at.lat.tail()
	r.add(metric{name: "p50_ms", unit: "ms", value: at.lat.median(), pct: 50, n: len(at.lat)})
	r.add(metric{name: "tail_ms", unit: "ms", value: tv, pct: tp, n: len(at.lat)})
	r.add(metric{name: "ops_per_s", unit: "1/s", value: sustained, n: len(rungs)})
	r.add(metric{name: "plan_s", unit: "s", value: j.plan.mean(), n: len(j.plan)})
	r.add(metric{name: "served_frac", unit: "ratio", value: j.served / j.offered, n: r.attempted})
	r.add(metric{name: "plan_age", unit: "epochs", value: j.age.mean(), n: len(j.age)})
	r.add(metric{name: "error_rate", unit: "ratio", value: float64(r.failed) / float64(r.attempted), n: r.attempted})
	r.add(metric{name: "heap_peak_mb", unit: "MB", value: peak})
	r.add(metric{name: "gen_late_ms", unit: "ms", value: at.late.mean(), n: len(at.late)})
	r.add(metric{name: "missed_ticks", unit: "count", value: float64(at.missed), n: len(at.late)})
	r.add(metric{name: "warm_fallbacks", unit: "count", value: float64(fallbacks), n: int(d.next) * fleetCells})
	r.note("open loop at %g Hz, tail limit %g ms; epoch_p50_ms = p50_ms, epoch_tail_ms = tail_ms, sustained_epoch_hz = ops_per_s",
		load.offeredHz, load.limitMS)
	noteQuartiles(r, "epoch latency at the offered rate", at.lat)
	return r, nil
}

// planJSON is the byte form plans are compared in across depths. Marshal
// fails only on non-finite numbers; such a plan reads as "" and differs
// from any plan the HTTP depth could have returned.
func planJSON(p api.Plan) string {
	b, _ := json.Marshal(p)
	return string(b)
}
