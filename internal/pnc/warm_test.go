package pnc

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"mmwave/internal/core"
	"mmwave/internal/netmodel"
	"mmwave/internal/obs"
	"mmwave/internal/video"
)

// reportAll sends one demand report per link.
func reportAll(t *testing.T, c *Coordinator, n int, d video.Demand) {
	t.Helper()
	for l := 0; l < n; l++ {
		frame, err := DemandReport{Link: uint16(l), Demand: d}.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Ingest(frame); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEpochWarmReuse: with an unchanged CSI regime, every epoch after
// the first reuses the previous epoch's solver state — flagged on the
// EpochResult, counted in the metrics, and (for identical demands)
// producing a byte-identical plan.
func TestEpochWarmReuse(t *testing.T) {
	nw := testNetwork(t, 5, 5, 3)
	coord, err := NewCoordinator(nw, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	coord.Metrics = reg
	d := video.TwoClass(5e6, 1e7)

	reportAll(t, coord, 5, d)
	ep1, err := coord.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if ep1.WarmSolve {
		t.Error("first epoch flagged WarmSolve")
	}

	reportAll(t, coord, 5, d)
	ep2, err := coord.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if !ep2.WarmSolve {
		t.Error("second epoch with unchanged CSI not flagged WarmSolve")
	}
	if ep2.Plan.Objective != ep1.Plan.Objective {
		t.Errorf("warm epoch objective %v != cold %v", ep2.Plan.Objective, ep1.Plan.Objective)
	}
	if !reflect.DeepEqual(ep2.Plan.Tau, ep1.Plan.Tau) {
		t.Errorf("warm epoch tau %v != cold %v", ep2.Plan.Tau, ep1.Plan.Tau)
	}
	for i := range ep1.Plan.Schedules {
		if !reflect.DeepEqual(ep1.Plan.Schedules[i].Assignments, ep2.Plan.Schedules[i].Assignments) {
			t.Errorf("schedule %d differs between epochs", i)
		}
	}
	// The warm solve must do strictly less work than the cold one.
	if ep1.Solver.LPPivots > 0 && ep2.Solver.LPPivots >= ep1.Solver.LPPivots {
		t.Errorf("warm epoch pivots %d not below cold %d", ep2.Solver.LPPivots, ep1.Solver.LPPivots)
	}
	if len(ep2.Solver.Iterations) > len(ep1.Solver.Iterations) {
		t.Errorf("warm epoch iterations %d above cold %d", len(ep2.Solver.Iterations), len(ep1.Solver.Iterations))
	}

	if got := reg.Counter("pnc_cold_solves_total").Value(); got != 1 {
		t.Errorf("pnc_cold_solves_total = %d, want 1", got)
	}
	if got := reg.Counter("pnc_warm_solves_total").Value(); got != 1 {
		t.Errorf("pnc_warm_solves_total = %d, want 1", got)
	}
}

// solveCounters reads the pnc solve-path counters of a registry.
func solveCounters(reg *obs.Registry) (cold, warm, rebased, fallbacks int64) {
	return reg.Counter("pnc_cold_solves_total").Value(),
		reg.Counter("pnc_warm_solves_total").Value(),
		reg.Counter("pnc_rebased_solves_total").Value(),
		reg.Counter("pnc_warm_fallbacks_total").Value()
}

// checkPlanOn asserts every schedule of an epoch's plan is feasible on
// the network's current gains.
func checkPlanOn(t *testing.T, nw *netmodel.Network, ep *EpochResult) {
	t.Helper()
	for i, sc := range ep.Plan.Schedules {
		if err := sc.Validate(nw); err != nil {
			t.Fatalf("plan schedule %d infeasible on the current gains: %v", i, err)
		}
	}
}

// TestChannelUpdateInvalidation: a channel update carrying genuinely
// new gains rebases the solver state onto them — the pool carries
// over under a cold master, no TDMA-cold solver is built, and the plan
// is feasible under the new gains; re-reporting identical gains keeps
// the warm state untouched.
func TestChannelUpdateInvalidation(t *testing.T) {
	nw := testNetwork(t, 6, 4, 2)
	coord, err := NewCoordinator(nw, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	coord.Metrics = reg
	var trace bytes.Buffer
	sink := obs.NewJSONLSink(&trace)
	coord.Tracer = obs.New(sink)
	d := video.TwoClass(4e6, 8e6)

	reportAll(t, coord, 4, d)
	if _, err := coord.RunEpoch(); err != nil {
		t.Fatal(err)
	}

	// Keepalive: identical gains, warm state survives.
	same := ChannelUpdate{Link: 0, Gains: append([]float64(nil), nw.Gains.Direct[0]...)}
	frame, _ := same.MarshalBinary()
	if err := coord.Ingest(frame); err != nil {
		t.Fatal(err)
	}
	reportAll(t, coord, 4, d)
	ep, err := coord.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if !ep.WarmSolve {
		t.Error("identical-gains keepalive invalidated the warm state")
	}
	if cold, warm, rebased, _ := solveCounters(reg); cold != 1 || warm != 1 || rebased != 0 {
		t.Errorf("after the keepalive: cold %d, warm %d, rebased %d; want 1, 1, 0", cold, warm, rebased)
	}

	// Real CSI change: a rebase, not a cold start. The old basis is
	// priced on the old gains, so the master starts cold.
	poolBefore := coord.solver.Pool().Len()
	changed := ChannelUpdate{Link: 0, Gains: append([]float64(nil), nw.Gains.Direct[0]...)}
	changed.Gains[0] *= 0.5
	frame, _ = changed.MarshalBinary()
	if err := coord.Ingest(frame); err != nil {
		t.Fatal(err)
	}
	reportAll(t, coord, 4, d)
	ep, err = coord.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if ep.WarmSolve {
		t.Error("rebased solve reported the old basis as reused")
	}
	if cold, warm, rebased, fallbacks := solveCounters(reg); cold != 1 || warm != 1 || rebased != 1 || fallbacks != 0 {
		t.Errorf("after the CSI change: cold %d, warm %d, rebased %d, fallbacks %d; want 1, 1, 1, 0", cold, warm, rebased, fallbacks)
	}
	checkPlanOn(t, nw, ep)
	if poolBefore <= 2*4 {
		t.Fatalf("pool of %d columns holds nothing beyond the seeds to carry", poolBefore)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace.String(), `"ev":"epoch.rebase"`) {
		t.Error("no epoch.rebase event in the trace")
	}

	// And the epoch after the rebase is warm again.
	reportAll(t, coord, 4, d)
	ep, err = coord.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if !ep.WarmSolve {
		t.Error("epoch after the rebase not warm")
	}
	if cold, warm, rebased, _ := solveCounters(reg); cold != 1 || warm != 2 || rebased != 1 {
		t.Errorf("after the rebase: cold %d, warm %d, rebased %d; want 1, 2, 1", cold, warm, rebased)
	}
}

// TestOutOfBandMutationInvalidates: gains mutated without a control
// message (blockage sweeps, experiment drivers poking the network) are
// caught by the fingerprint check, which rebases the solver onto them
// exactly as a channel update would.
func TestOutOfBandMutationInvalidates(t *testing.T) {
	nw := testNetwork(t, 9, 4, 2)
	coord, err := NewCoordinator(nw, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	coord.Metrics = reg
	d := video.TwoClass(4e6, 8e6)

	reportAll(t, coord, 4, d)
	if _, err := coord.RunEpoch(); err != nil {
		t.Fatal(err)
	}

	nw.Gains.Direct[1][0] *= 2 // behind the coordinator's back

	reportAll(t, coord, 4, d)
	ep, err := coord.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if ep.WarmSolve {
		t.Error("out-of-band gain mutation not detected by the fingerprint")
	}
	if cold, _, rebased, _ := solveCounters(reg); cold != 1 || rebased != 1 {
		t.Errorf("cold %d, rebased %d; want the mutation rebased (1, 1)", cold, rebased)
	}
	checkPlanOn(t, nw, ep)
}

// TestWarmFallbackCounted: a warm attempt that cannot serve the epoch
// falls back to a cold solve and is counted at the source. A link that
// was unservable when the pool was seeded (deferred, so no column
// covers it) becomes servable through a noise edit the gains
// fingerprint does not see; the warm SetDemands then rejects its
// demand, and the coordinator builds a cold solver instead.
func TestWarmFallbackCounted(t *testing.T) {
	nw := testNetwork(t, 10, 4, 2)
	noise := nw.Noise[2]
	nw.Noise[2] = 1e9 // link 2 cannot reach any level
	coord, err := NewCoordinator(nw, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	coord.Metrics = reg
	d := video.TwoClass(4e6, 8e6)

	reportAll(t, coord, 4, d)
	ep, err := coord.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if len(ep.DeferredLinks) != 1 || ep.DeferredLinks[0] != 2 {
		t.Fatalf("deferred links %v, want [2]", ep.DeferredLinks)
	}

	nw.Noise[2] = noise
	reportAll(t, coord, 4, d)
	ep, err = coord.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if len(ep.DeferredLinks) != 0 || ep.WarmSolve {
		t.Errorf("deferred %v, warm %v; want link 2 served by a cold solve", ep.DeferredLinks, ep.WarmSolve)
	}
	if cold, warm, rebased, fallbacks := solveCounters(reg); cold != 2 || warm != 0 || rebased != 0 || fallbacks != 1 {
		t.Errorf("cold %d, warm %d, rebased %d, fallbacks %d; want 2, 0, 0, 1", cold, warm, rebased, fallbacks)
	}
	checkPlanOn(t, nw, ep)
}
