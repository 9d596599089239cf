package main

import (
	"fmt"
	"strings"

	"mmwave/internal/cg"
	"mmwave/internal/core"
)

// addStats sums two work-counter records.
func addStats(a, b cg.Stats) cg.Stats {
	return cg.Stats{
		Rounds:             a.Rounds + b.Rounds,
		Probes:             a.Probes + b.Probes,
		MasterSolves:       a.MasterSolves + b.MasterSolves,
		CacheHits:          a.CacheHits + b.CacheHits,
		CacheMisses:        a.CacheMisses + b.CacheMisses,
		PricerNodes:        a.PricerNodes + b.PricerNodes,
		LPPivots:           a.LPPivots + b.LPPivots,
		LPRefactorizations: a.LPRefactorizations + b.LPRefactorizations,
		LPEtaUpdates:       a.LPEtaUpdates + b.LPEtaUpdates,
		WarmMasters:        a.WarmMasters + b.WarmMasters,
		EvictedColumns:     a.EvictedColumns + b.EvictedColumns,
		StabRounds:         a.StabRounds + b.StabRounds,
		HeuristicHits:      a.HeuristicHits + b.HeuristicHits,
		ExactFallbacks:     a.ExactFallbacks + b.ExactFallbacks,
		ColumnsAdded:       a.ColumnsAdded + b.ColumnsAdded,
	}
}

// finalPool is the column-pool size at the end of a solve.
func finalPool(res *core.Result) int {
	if n := len(res.Iterations); n > 0 {
		return res.Iterations[n-1].PoolSize
	}
	return 0
}

// workCounters are the deterministic work counters the non-perturbation
// check compares, by their metric names in the program's exposition.
var workCounters = []struct{ layer, exposed string }{
	{"netmodel.probes", "core_probes_total"},
	{"cg.rounds", "core_cg_rounds_total"},
	{"lp.pivots", "core_lp_pivots_total"},
	{"core.pricer.nodes", "core_pricer_nodes_total"},
}

// statsCounters exposes a Stats record under the program's counter
// names.
func statsCounters(st cg.Stats) map[string]int64 {
	return map[string]int64{
		"core_probes_total":       int64(st.Probes),
		"core_cg_rounds_total":    int64(st.Rounds),
		"core_lp_pivots_total":    int64(st.LPPivots),
		"core_pricer_nodes_total": int64(st.PricerNodes),
	}
}

// checkCounters is the non-perturbation check: tracing must not change
// the work the program does, so the deterministic counters of two
// passes over the same inputs must be equal.
func checkCounters(r *report, an string, a map[string]int64, bn string, b map[string]int64) {
	var agree []string
	for _, w := range workCounters {
		x, y := a[w.exposed], b[w.exposed]
		if x != y {
			r.violate(fmt.Errorf("%s: %s counted %d, %s counted %d", w.layer, an, x, bn, y))
		}
		agree = append(agree, fmt.Sprintf("%s=%d", w.layer, y))
	}
	r.note("non-perturbation: %s vs %s: %s", an, bn, strings.Join(agree, " "))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerCounters reports the pricer, cg and lp work counters per
// operation. calls and exact count exact-pricer calls; pricerMS is the
// pricer's time per operation.
func layerCounters(r *report, st cg.Stats, ops float64, calls, exact int, pricerMS float64) {
	per := func(name string, v int) {
		r.add(metric{name: name, unit: "count", value: float64(v) / ops, n: int(ops)})
	}
	per("netmodel.probes", st.Probes)
	per("core.pricer.calls", calls)
	r.add(metric{name: "core.pricer.ms", unit: "ms", value: pricerMS, n: calls})
	per("core.pricer.nodes", st.PricerNodes)
	r.add(metric{name: "core.pricer.exact_frac", unit: "ratio", value: ratio(float64(exact), float64(calls)), n: calls})
	r.add(metric{name: "core.pricer.ns_per_probe", unit: "ns", value: ratio(pricerMS*1e6*ops, float64(st.Probes)), n: st.Probes})
	per("cg.rounds", st.Rounds)
	per("cg.columns_added", st.ColumnsAdded)
	r.add(metric{name: "cg.column_yield", unit: "ratio", value: ratio(float64(st.ColumnsAdded), float64(st.Rounds)), n: st.Rounds})
	per("cg.heuristic_hits", st.HeuristicHits)
	per("cg.exact_fallbacks", st.ExactFallbacks)
	per("cg.stab_rounds", st.StabRounds)
	per("cg.evicted_columns", st.EvictedColumns)
	per("lp.master_solves", st.MasterSolves)
	per("lp.pivots", st.LPPivots)
	per("lp.refactorizations", st.LPRefactorizations)
	per("lp.eta_updates", st.LPEtaUpdates)
	r.add(metric{name: "lp.warm_frac", unit: "ratio", value: ratio(float64(st.WarmMasters), float64(st.MasterSolves)), n: st.MasterSolves})
}

// zeroFleetLayers reports the daemon-side layers as zero on a workload
// that bypasses the daemon.
func zeroFleetLayers(r *report) {
	for _, m := range []metric{
		{name: "pnc.epoch_ms", unit: "ms"}, {name: "pnc.warm_frac", unit: "ratio"}, {name: "pnc.cold_fallbacks", unit: "count"},
		{name: "host.step_ms", unit: "ms"}, {name: "host.self_ms", unit: "ms"},
		{name: "pncd.http_ms.demands", unit: "ms"}, {name: "pncd.http_ms.csi", unit: "ms"},
		{name: "pncd.http_ms.step", unit: "ms"}, {name: "pncd.self_ms", unit: "ms"},
		{name: "api.bytes_per_epoch", unit: "B"},
	} {
		r.add(m)
	}
}
