package cg

// This file holds the engine's iteration-count accelerations (DESIGN.md
// §17): multi-column admission and heuristic-first pricing. Both are
// always on; heuristic-first pricing runs only when the engine is given
// a Options.Heuristic pricer. Every round prices at the true master
// duals — the paper's §III update rule re-solves from the existing pool
// with plain column generation, and dual smoothing measured
// net-negative on warm re-solves (DESIGN.md §17).

// MultiColumnPolicy names the batch column admission bound: pricers
// that pool near-optimal leaves return them in PriceResult.Extras, and
// the engine admits every batch member whose reduced cost — recomputed
// at the true master duals — is improving, instead of only the argmax.
type MultiColumnPolicy struct{}

// Columns returns the per-round pricer-side leaf-pool bound.
func (MultiColumnPolicy) Columns() int { return 32 }

// Heuristic-first pricing: a cheap heuristic pricer (Options.Heuristic,
// typically the greedy interference-free builder) runs first, and the
// exact pricer fires only when the heuristic's best column fails the
// reduced-cost test at the true master duals or duplicates a pooled
// column. Heuristic rounds are never exact: they emit no Theorem-1
// bound and can never declare convergence, so the accounting of proven
// bounds is untouched.

// keepPace gates heuristic acceptance: a heuristic column is taken
// only while its reduced cost keeps pace with the exact walk's
// frontier, φ_h ≤ keepPace·φ_exact (both negative, φ_exact from the
// last exact round). A heuristic column far off the frontier would
// defer the exact pricer's much stronger batch and inflate the round
// count instead of shrinking the node bill.
const keepPace = 0.9
