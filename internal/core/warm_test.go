package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mmwave/internal/cg"
	"mmwave/internal/video"
)

// TestWarmResolveByteIdentical pins the cross-epoch determinism
// contract: re-solving the same instance on the same solver reuses the
// previous optimal basis (zero or near-zero pivots) and produces a
// byte-identical plan to the cold solve, flagged Warm.
func TestWarmResolveByteIdentical(t *testing.T) {
	for _, nLinks := range []int{4, 6, 8} {
		rng := rand.New(rand.NewSource(int64(100 + nLinks)))
		nw := servableNetwork(rng, nLinks, 3)
		demands := uniformDemands(nLinks, 4e6, 2e6)

		s, err := NewSolver(nw, demands, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := s.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if cold.Warm {
			t.Fatalf("L=%d: first solve flagged Warm", nLinks)
		}
		if err := s.SetDemands(demands); err != nil {
			t.Fatal(err)
		}
		warm, err := s.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !warm.Warm {
			t.Fatalf("L=%d: re-solve not flagged Warm", nLinks)
		}
		if warm.Plan.Objective != cold.Plan.Objective {
			t.Fatalf("L=%d: warm objective %v != cold %v", nLinks, warm.Plan.Objective, cold.Plan.Objective)
		}
		if !reflect.DeepEqual(warm.Plan.Tau, cold.Plan.Tau) {
			t.Fatalf("L=%d: tau vectors differ: %v vs %v", nLinks, warm.Plan.Tau, cold.Plan.Tau)
		}
		if len(warm.Plan.Schedules) != len(cold.Plan.Schedules) {
			t.Fatalf("L=%d: plan sizes differ", nLinks)
		}
		for i := range warm.Plan.Schedules {
			if !reflect.DeepEqual(warm.Plan.Schedules[i].Assignments, cold.Plan.Schedules[i].Assignments) {
				t.Fatalf("L=%d: schedule %d differs between warm and cold", nLinks, i)
			}
		}
		// The pool already holds every needed column, so the warm solve
		// converges in one round; the basis is already optimal, so the
		// master re-solve pivots strictly less than the cold run did.
		if len(warm.Iterations) >= len(cold.Iterations) && len(cold.Iterations) > 1 {
			t.Errorf("L=%d: warm took %d iterations, cold %d", nLinks, len(warm.Iterations), len(cold.Iterations))
		}
		if cold.LPPivots > 0 && warm.LPPivots >= cold.LPPivots {
			t.Errorf("L=%d: warm pivots %d not below cold %d", nLinks, warm.LPPivots, cold.LPPivots)
		}
		if warm.WarmMasters == 0 {
			t.Errorf("L=%d: warm solve reports no warm master solves", nLinks)
		}
	}
}

// TestWarmResolveAfterDemandChange: after a demand change (the paper's
// §III update rule) a warm re-solve must reach the same optimum as a
// cold solver on the new demands, in no more iterations.
func TestWarmResolveAfterDemandChange(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	nw := servableNetwork(rng, 6, 3)
	d0 := uniformDemands(6, 4e6, 2e6)

	s, err := NewSolver(nw, d0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(context.Background()); err != nil {
		t.Fatal(err)
	}

	d1 := make([]video.Demand, len(d0))
	for l, d := range d0 {
		d1[l] = d.Scale(1.0 + 0.1*float64(l+1))
	}
	if err := s.SetDemands(d1); err != nil {
		t.Fatal(err)
	}
	warm, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSolver(nw, d1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := fresh.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Warm {
		t.Error("re-solve after SetDemands not flagged Warm")
	}
	if !warm.Converged || !cold.Converged {
		t.Fatalf("convergence: warm %v cold %v", warm.Converged, cold.Converged)
	}
	if rel := math.Abs(warm.Plan.Objective-cold.Plan.Objective) / cold.Plan.Objective; rel > 1e-7 {
		t.Errorf("warm optimum %v differs from cold %v (rel %g)", warm.Plan.Objective, cold.Plan.Objective, rel)
	}
	if len(warm.Iterations) > len(cold.Iterations) {
		t.Errorf("warm took %d iterations, cold only %d", len(warm.Iterations), len(cold.Iterations))
	}
}

// TestColumnGCPreservesOptimum is the GC safety property: across many
// re-solves with shifting demands and an aggressively small column
// budget, (a) collection actually evicts columns, (b) every converged
// objective still matches a cold solver's optimum on the same demands,
// and (c) the warm basis survives every collection (a GC that evicted
// a basic column would invalidate the basis and de-warm the next
// solve).
func TestColumnGCPreservesOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nw := servableNetwork(rng, 6, 3)
	d0 := uniformDemands(6, 4e6, 2e6)

	seedCols := len(d0) * 2 // TDMA seeds two columns per link
	s, err := NewSolver(nw, d0, Options{
		ColumnGC: cg.GCPolicy{MaxColumns: seedCols + 3, MinAge: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var evicted int
	for round := 0; round < 6; round++ {
		d := make([]video.Demand, len(d0))
		for l := range d0 {
			d[l] = d0[l].Scale(0.5 + rng.Float64())
		}
		if round > 0 {
			if err := s.SetDemands(d); err != nil {
				t.Fatal(err)
			}
		} else {
			d = d0
		}
		res, err := s.Solve(context.Background())
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !res.Converged {
			t.Fatalf("round %d: did not converge", round)
		}
		if round > 0 && !res.Warm {
			t.Errorf("round %d: solve lost its warm state (basic column evicted?)", round)
		}
		evicted += res.EvictedColumns

		fresh, err := NewSolver(nw, d, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := fresh.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(res.Plan.Objective-cold.Plan.Objective) / cold.Plan.Objective; rel > 1e-7 {
			t.Errorf("round %d: GC solver optimum %v != cold optimum %v (rel %g)",
				round, res.Plan.Objective, cold.Plan.Objective, rel)
		}
	}
	if evicted == 0 {
		t.Error("column GC never evicted anything despite the tiny budget")
	}
	// Pool growth stays bounded: seed + budget slack + per-round adds.
	if n := s.Pool().Len(); n > seedCols+3+64 {
		t.Errorf("pool grew to %d columns despite GC", n)
	}
}

// TestQualityWarmResolve: the quality-mode solver shares the engine,
// so a re-solve on the same instance is warm and byte-identical too.
func TestQualityWarmResolve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nw := servableNetwork(rng, 5, 2)
	demands := uniformDemands(5, 8e6, 4e6)

	s, err := NewQualitySolver(nw, demands, 0.05, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cold.Warm || !warm.Warm {
		t.Fatalf("warm flags: cold %v warm %v", cold.Warm, warm.Warm)
	}
	if warm.Quality != cold.Quality {
		t.Errorf("warm quality %v != cold %v", warm.Quality, cold.Quality)
	}
	if !reflect.DeepEqual(warm.Plan.Tau, cold.Plan.Tau) {
		t.Errorf("tau vectors differ: %v vs %v", warm.Plan.Tau, cold.Plan.Tau)
	}
}
