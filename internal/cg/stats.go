package cg

import "mmwave/internal/obs"

// Stats consolidates the work counters of one column-generation solve.
// internal/core embeds it (via a type alias) in Result and
// QualityResult, so `res.Probes` keeps reading naturally, and it is
// the single shape the observability layer consumes: Publish folds a
// Stats into an obs.Registry as core_* counters.
type Stats struct {
	// Rounds counts column-generation rounds (pricing calls).
	Rounds int
	// Probes counts pricing feasibility probes — the unit of real work
	// in the search, and the denominator of the cache hit rate.
	Probes int
	// MasterSolves counts master-LP solves.
	MasterSolves int
	// CacheHits and CacheMisses break Probes down by whether the probe
	// cache answered from memory (hits cost no linear algebra).
	CacheHits   int
	CacheMisses int
	// PricerNodes counts branch-and-bound nodes explored by pricing.
	PricerNodes int
	// LPPivots and LPRefactorizations aggregate the master simplex's
	// pivot count and basis-factorization rebuilds across MasterSolves.
	LPPivots           int
	LPRefactorizations int
	// LPEtaUpdates counts product-form (Forrest–Tomlin-style) eta
	// updates applied to the master basis factorization between
	// refactorizations — the work the sparse core does instead of
	// rebuilding B⁻¹ on every pivot.
	LPEtaUpdates int
	// WarmMasters counts master solves that started from a usable
	// previous basis (phase 1 skipped, or repaired by the dual simplex).
	WarmMasters int
	// EvictedColumns counts pool columns dropped by the garbage
	// collector.
	EvictedColumns int
	// StabRounds counts rounds priced at smoothed (stabilized) duals
	// rather than the true master duals (DESIGN.md §17).
	StabRounds int
	// HeuristicHits counts rounds where the heuristic pricer's column
	// passed the reduced-cost test and the exact pricer never ran.
	HeuristicHits int
	// ExactFallbacks counts rounds where the heuristic pricer ran first
	// but failed the reduced-cost test, forcing the exact pricer in the
	// same round.
	ExactFallbacks int
	// ColumnsAdded counts columns admitted to the pool by pricing
	// rounds (≥ Rounds−misprices under multi-column admission).
	ColumnsAdded int
}

// delta returns s − prev, the per-solve slice of a lifetime-cumulative
// Stats.
func (s Stats) delta(prev Stats) Stats {
	return Stats{
		Rounds:             s.Rounds - prev.Rounds,
		Probes:             s.Probes - prev.Probes,
		MasterSolves:       s.MasterSolves - prev.MasterSolves,
		CacheHits:          s.CacheHits - prev.CacheHits,
		CacheMisses:        s.CacheMisses - prev.CacheMisses,
		PricerNodes:        s.PricerNodes - prev.PricerNodes,
		LPPivots:           s.LPPivots - prev.LPPivots,
		LPRefactorizations: s.LPRefactorizations - prev.LPRefactorizations,
		LPEtaUpdates:       s.LPEtaUpdates - prev.LPEtaUpdates,
		WarmMasters:        s.WarmMasters - prev.WarmMasters,
		EvictedColumns:     s.EvictedColumns - prev.EvictedColumns,
		StabRounds:         s.StabRounds - prev.StabRounds,
		HeuristicHits:      s.HeuristicHits - prev.HeuristicHits,
		ExactFallbacks:     s.ExactFallbacks - prev.ExactFallbacks,
		ColumnsAdded:       s.ColumnsAdded - prev.ColumnsAdded,
	}
}

// Publish folds the stats into the registry as `core_*_total`
// counters (the solver-level names both core solvers share). A nil
// registry is a no-op, so callers publish unconditionally.
func (s Stats) Publish(m *obs.Registry) {
	if m == nil {
		return
	}
	const prefix = "core"
	m.Counter(prefix + "_cg_rounds_total").Add(int64(s.Rounds))
	m.Counter(prefix + "_probes_total").Add(int64(s.Probes))
	m.Counter(prefix + "_master_solves_total").Add(int64(s.MasterSolves))
	m.Counter(prefix + "_probe_cache_hits_total").Add(int64(s.CacheHits))
	m.Counter(prefix + "_probe_cache_misses_total").Add(int64(s.CacheMisses))
	m.Counter(prefix + "_pricer_nodes_total").Add(int64(s.PricerNodes))
	m.Counter(prefix + "_lp_pivots_total").Add(int64(s.LPPivots))
	m.Counter(prefix + "_lp_refactorizations_total").Add(int64(s.LPRefactorizations))
	m.Counter(prefix + "_lp_ft_updates_total").Add(int64(s.LPEtaUpdates))
}
