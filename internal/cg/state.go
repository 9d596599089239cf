package cg

import (
	"mmwave/internal/lp"
	"mmwave/internal/netmodel"
	"mmwave/internal/schedule"
)

// State is the durable half of the engine: everything a solve pays for
// that stays valid when only the right-hand sides move. It holds the
// schedule pool, the incrementally built master problem, the previous
// optimal basis (the warm start), the pricing probe cache and the
// lifetime work counters. One State may serve many Run calls — the
// §III update rule and the PNC epoch loop both re-solve the same
// network under new demands, and every pooled column, every memoized
// probe, and the final basis of the previous solve carry over.
//
// A State's columns, probe cache and basis are valid for the network
// they were priced on. When only the gains move (a CSI update), Rebase
// carries the state onto the new gains: the seeds are re-derived, the
// recently useful columns are re-powered and re-validated, and
// everything gain-dependent is reset. A topology change needs a new
// State (pnc.Coordinator.InvalidateSolverState).
type State struct {
	pool    *schedule.Pool
	seedLen int // leading columns pinned by Seed (coverage set, never GC'd)

	// warmBasis carries the previous master optimal basis between
	// solves: the pool only appends columns, so the old basis stays
	// primal feasible (or dual-feasible after an RHS change) and the
	// re-solve skips phase 1.
	warmBasis []lp.BasisVar

	// prob is the incrementally built master LP: the model lays rows
	// (and any fixed variables) once, and each pooled schedule
	// contributes one column, appended the first time a solve sees it.
	// Only the right-hand sides are rewritten between solves. The lp
	// solver never mutates a Problem (the tableau copies all data), so
	// reuse across solves is safe.
	prob *lp.Problem
	cols int

	// solver is the reusable simplex engine bound to prob: it keeps its
	// tableau and pivot scratch across master solves, so a steady-state
	// re-solve allocates only its Solution. It is replaced together with
	// prob whenever the GC forces a master rebuild.
	solver *lp.Solver

	// probeCache memoizes pricing feasibility probes for the current
	// gains; see netmodel.ProbeCache. Demand changes never touch probe
	// feasibility, so it lives until Rebase replaces it.
	probeCache *netmodel.ProbeCache

	// lastBasic[j] is the run index when pool column j last sat in an
	// optimal basis (or was added); the GC evicts columns whose age
	// exceeds the policy.
	lastBasic []int
	runs      int // completed Run calls

	// lastFill is the LU fill-in ratio (factor nonzeros / basis
	// nonzeros) of the most recent master factorization, exported as a
	// gauge by the engine.
	lastFill float64

	stats Stats
}

// NewState returns an empty engine state. cacheProbes enables the
// cross-iteration probe cache (see core.Options.CacheProbes for the
// trade-off).
func NewState(cacheProbes bool) *State {
	st := &State{pool: schedule.NewPool()}
	if cacheProbes {
		st.probeCache = netmodel.NewProbeCache()
	}
	return st
}

// Seed adds the initial column set (the paper's TDMA initialization)
// and pins it: seed columns guarantee master feasibility for any
// demand vector the owner validated, so the garbage collector never
// drops them.
func (st *State) Seed(schedules []*schedule.Schedule) {
	for _, sc := range schedules {
		st.pool.Add(sc)
	}
	st.seedLen = st.pool.Len()
	st.syncBookkeeping()
}

// Pool exposes the current column pool (read-only use).
func (st *State) Pool() *schedule.Pool { return st.pool }

// syncBookkeeping grows lastBasic to match the pool, stamping new
// columns with the current run index so freshly priced columns get a
// full grace period before the GC may consider them.
func (st *State) syncBookkeeping() {
	for len(st.lastBasic) < st.pool.Len() {
		st.lastBasic = append(st.lastBasic, st.runs)
	}
}

// noteBasis stamps every pool column that sits in the optimal basis.
// offset is the model's fixed-variable count (structural indices below
// it are not schedule columns).
func (st *State) noteBasis(basis []lp.BasisVar, offset int) {
	for _, bv := range basis {
		if bv.Kind == lp.BasisStructural && bv.Index >= offset {
			if j := bv.Index - offset; j < len(st.lastBasic) {
				st.lastBasic[j] = st.runs
			}
		}
	}
}

// GCPolicy bounds pool growth across long re-solve sequences.
type GCPolicy struct {
	// MaxColumns triggers a collection at the start of a run when the
	// pool exceeds it. Zero disables the GC entirely.
	MaxColumns int
	// MinAge is how many runs a column must have stayed out of every
	// optimal basis before it may be evicted. Zero means 2.
	MinAge int
}

// OrDefault returns p, or — when p sets no MaxColumns — the default
// policy for a solver that lives across re-solves of a links-link
// network: collect past max(32·links, 256) columns at the default age.
func (p GCPolicy) OrDefault(links int) GCPolicy {
	if p.MaxColumns != 0 {
		return p
	}
	return GCPolicy{MaxColumns: max(32*links, 256)}
}

// minAge resolves the policy's age threshold (zero means 2).
func (p GCPolicy) minAge() int {
	if p.MinAge <= 0 {
		return 2
	}
	return p.MinAge
}

// recent reports whether pool column j sat in an optimal basis (or was
// added) within the last minAge runs — the columns the GC keeps.
func (st *State) recent(j, minAge int) bool {
	return st.runs-st.lastBasic[j] <= minAge
}

// gc drops long-nonbasic, non-seed columns and rebuilds the master
// incrementally from the compacted pool. The warm basis is remapped to
// the new column indices — eviction candidates are by construction
// outside the current basis, so the remap always succeeds and the next
// master solve still warm-starts. Returns the number of evicted
// columns.
func (st *State) gc(policy GCPolicy, model MasterModel) int {
	if policy.MaxColumns <= 0 || st.pool.Len() <= policy.MaxColumns {
		return 0
	}
	minAge := policy.minAge()
	// Columns in the current warm basis are always kept, whatever their
	// stamp says: evicting a basic column would invalidate the basis.
	offset := model.ColumnOffset()
	inBasis := make(map[int]bool, len(st.warmBasis))
	for _, bv := range st.warmBasis {
		if bv.Kind == lp.BasisStructural && bv.Index >= offset {
			inBasis[bv.Index-offset] = true
		}
	}

	colMap := st.pool.Compact(func(j int, _ *schedule.Schedule) bool {
		return j < st.seedLen || inBasis[j] || st.recent(j, minAge)
	})
	evicted := 0
	newLast := make([]int, 0, st.pool.Len())
	for j, nj := range colMap {
		if nj < 0 {
			evicted++
			continue
		}
		newLast = append(newLast, st.lastBasic[j])
	}
	if evicted == 0 {
		return 0
	}
	st.lastBasic = newLast
	st.stats.EvictedColumns += evicted

	// Rebuild the master from scratch on the compacted pool (the next
	// solveMaster re-appends every surviving column) and remap the warm
	// basis onto the new indices.
	st.prob = nil
	st.solver = nil
	st.cols = 0
	if remapped, ok := lp.RemapStructurals(st.warmBasis, offset, colMap); ok {
		st.warmBasis = remapped
	} else {
		st.warmBasis = nil // defensive: fall back to a cold master solve
	}
	return evicted
}

// Rebase moves the state onto new gains of the same network (a CSI
// update) instead of discarding it. seeds replace the pinned coverage
// set, which the caller re-derives under the new gains. Every non-seed
// column the GC's age rule would keep (policy.MinAge, default 2) is
// passed to carry, which returns it re-derived for the new gains — the
// same links, channels, levels and layers, so the same master
// coefficients — or nil when it is no longer feasible. Survivors follow
// the seeds in their old order and keep their run stamps. Everything
// priced on the old gains is reset: the master problem and its solver,
// the warm basis and the probe cache, so the next master solve starts
// cold on the (small) carried pool. The run counter and the lifetime
// work counters carry on. It returns the number of non-seed columns
// carried and dropped.
func (st *State) Rebase(policy GCPolicy, seeds []*schedule.Schedule, carry func(*schedule.Schedule) *schedule.Schedule) (carried, dropped int) {
	minAge := policy.minAge()
	pool := schedule.NewPool()
	for _, sc := range seeds {
		pool.Add(sc)
	}
	seedLen := pool.Len()
	last := make([]int, seedLen, seedLen+st.pool.Len()-st.seedLen)
	for j := range last {
		last[j] = st.runs
	}
	for j := st.seedLen; j < st.pool.Len(); j++ {
		if !st.recent(j, minAge) {
			dropped++
			continue
		}
		sc := carry(st.pool.At(j))
		if sc == nil {
			dropped++
			continue
		}
		if _, added := pool.Add(sc); !added {
			dropped++ // the re-derived seed set already holds it
			continue
		}
		last = append(last, st.lastBasic[j])
		carried++
	}

	st.pool = pool
	st.seedLen = seedLen
	st.lastBasic = last
	st.prob = nil
	st.solver = nil
	st.cols = 0
	st.warmBasis = nil
	if st.probeCache != nil {
		st.probeCache = netmodel.NewProbeCache()
	}
	return carried, dropped
}
