package lp

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// loadCyclingMaster reads the captured dual-degenerate master: a
// 12-row column-generation master (unit costs, demand-cover rows) and
// the optimal basis of its previous solve, taken just after a demand
// change. Without the dual anti-cycling rule the warm re-solve cycled
// at the optimal objective until the 23,800-pivot iteration cap.
func loadCyclingMaster(t *testing.T) (*Problem, []BasisVar) {
	t.Helper()
	raw, err := os.ReadFile("testdata/cycling_master.json")
	if err != nil {
		t.Fatal(err)
	}
	var fx struct {
		Problem Problem
		Warm    []BasisVar
	}
	if err := json.Unmarshal(raw, &fx); err != nil {
		t.Fatal(err)
	}
	if err := fx.Problem.Validate(); err != nil {
		t.Fatal(err)
	}
	return &fx.Problem, fx.Warm
}

// sameObjective reports whether two objectives agree to 1e-9 relative.
func sameObjective(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestWarmDualNoCycling: the captured master's warm re-solve reaches
// the cold optimum through the dual simplex in a few dozen pivots, on
// both the sparse and the dense path, and the two walk the same number
// of pivots (the dense oracle mirrors the anti-cycling rule).
func TestWarmDualNoCycling(t *testing.T) {
	p, warmBasis := loadCyclingMaster(t)
	pivots := map[bool]int{}
	for _, dense := range []bool{false, true} {
		cold, err := SolveWith(p, Options{Dense: dense})
		if err != nil {
			t.Fatal(err)
		}
		warm, err := SolveWith(p, Options{Dense: dense, WarmBasis: warmBasis})
		if err != nil {
			t.Fatal(err)
		}
		if cold.Status != StatusOptimal || warm.Status != StatusOptimal {
			t.Fatalf("dense=%v: status cold %v, warm %v (%d pivots)", dense, cold.Status, warm.Status, warm.Iterations)
		}
		if !warm.Warm {
			t.Errorf("dense=%v: the captured basis was not used", dense)
		}
		if !sameObjective(warm.Objective, cold.Objective) {
			t.Errorf("dense=%v: warm objective %v, cold %v", dense, warm.Objective, cold.Objective)
		}
		// 2m+20 stalled pivots arm Bland's rule; it must finish well
		// before the iteration cap (23,800 here).
		if warm.Iterations > 200 {
			t.Errorf("dense=%v: warm re-solve took %d pivots", dense, warm.Iterations)
		}
		pivots[dense] = warm.Iterations
	}
	if pivots[false] != pivots[true] {
		t.Errorf("sparse walked %d dual pivots, dense %d", pivots[false], pivots[true])
	}
}

// TestDualBlandRule runs the dual simplex on the captured master under
// Bland's rule from the first pivot — the mode the stall counter
// switches to — on both paths. Its entering rule (smallest ratio,
// smallest index) is the one the dual simplex used before the Harris
// test, which with the largest-violation leaving row cycled on this
// master until the iteration cap; the smallest-index leaving row must
// reach the cold optimum instead.
func TestDualBlandRule(t *testing.T) {
	p, warmBasis := loadCyclingMaster(t)
	cold, err := SolveWith(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const tol, maxIter = 1e-9, 2000

	var s spx
	s.fill(p, tol)
	if s.tryWarmStart(warmBasis) != warmDualFeasible {
		t.Fatal("sparse: captured basis is not dual feasible")
	}
	st, sparsePivots := s.runDual(s.phase2Costs(), maxIter, 0)
	if st != StatusOptimal || !sameObjective(s.objective(s.phase2Costs()), cold.Objective) {
		t.Fatalf("sparse Bland walk: %v after %d pivots, objective %v, cold %v",
			st, sparsePivots, s.objective(s.phase2Costs()), cold.Objective)
	}

	var d tableau
	d.fill(p, tol)
	if d.tryWarmStart(warmBasis) != warmDualFeasible {
		t.Fatal("dense: captured basis is not dual feasible")
	}
	st, densePivots := d.runDual(d.phase2Costs(), maxIter, 0)
	if st != StatusOptimal || !sameObjective(d.objective(d.phase2Costs()), cold.Objective) {
		t.Fatalf("dense Bland walk: %v after %d pivots, objective %v, cold %v",
			st, densePivots, d.objective(d.phase2Costs()), cold.Objective)
	}
	if sparsePivots != densePivots {
		t.Errorf("Bland walk: sparse %d pivots, dense %d", sparsePivots, densePivots)
	}
}

// FuzzWarmDualSolve solves a random LP, changes its right-hand sides,
// and re-solves from the old optimal basis on the same Solver (the
// column-generation demand-update pattern) and on the dense path. The
// warm solves must never hit the iteration cap and must agree with a
// cold solve of the changed LP on status and, when optimal, on the
// objective (1e-9 relative, plus the solver's 1e-7 feasibility
// tolerance priced at the duals). Unit costs and repeated columns make
// many instances dual degenerate, the shape that made the dual simplex
// cycle.
func FuzzWarmDualSolve(f *testing.F) {
	f.Add([]byte{6, 12, 1, 0, 9, 200, 17, 88, 9, 14, 250, 33, 1, 77, 190, 41, 6, 128, 255, 2, 63})
	f.Add([]byte{11, 15, 0, 1, 3, 3, 7, 7, 1, 1, 0, 0, 0, 0, 5, 9, 13, 17, 21})
	f.Add([]byte{3, 4, 2, 2, 64, 128, 192, 255, 0, 32, 96, 160, 224})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		r := &fuzzReader{data: data}
		m := 1 + r.intn(12)
		n := 1 + r.intn(24)
		unitCost := r.intn(2) == 0
		dup := r.intn(3) // every dup-th column repeats an earlier one

		p := NewProblem(make([]float64, n))
		cols := make([][]float64, n)
		for j := 0; j < n; j++ {
			if unitCost {
				p.C[j] = 1
			} else {
				p.C[j] = math.Abs(r.float())
			}
			if dup > 0 && j > 0 && j%(dup+1) == 0 {
				cols[j] = cols[r.intn(j)]
				continue
			}
			cols[j] = make([]float64, m)
			for i := range cols[j] {
				if r.intn(3) == 0 {
					cols[j][i] = math.Abs(r.float())
				}
			}
		}
		rhs := func() float64 { return math.Abs(r.float()) * float64(1+r.intn(4)) }
		for i := 0; i < m; i++ {
			row := make([]float64, n)
			for j := range row {
				row[j] = cols[j][i]
			}
			rel := GE
			switch r.intn(8) {
			case 0:
				rel = LE
			case 1:
				rel = EQ
			}
			p.AddRow(row, rel, rhs())
		}

		s := NewSolver(p)
		first, err := s.Solve(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if first.Status == StatusIterLimit {
			t.Fatalf("cold solve hit the iteration cap (%d pivots)", first.Iterations)
		}
		if first.Status != StatusOptimal {
			return // no basis to warm-start from
		}
		for i := range p.B {
			p.B[i] = rhs()
		}

		cold, err := SolveWith(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		warm, err := s.Solve(Options{WarmBasis: first.Basis})
		if err != nil {
			t.Fatal(err)
		}
		dense, err := SolveWith(p, Options{Dense: true, WarmBasis: first.Basis})
		if err != nil {
			t.Fatal(err)
		}
		// Objectives agree to 1e-9 relative, widened only by the
		// solver's own primal feasibility tolerance: basic values within
		// 1e-7 (in equilibrated units) of a bound count as on it, so two
		// tolerance-feasible optimal vertices may differ by that much
		// row activity, priced at the duals.
		objTol := 1e-9 * math.Max(1, math.Abs(cold.Objective))
		if cold.Status == StatusOptimal {
			for i, y := range cold.Dual {
				rowMax := 1.0
				for _, a := range p.A[i] {
					rowMax = math.Max(rowMax, math.Abs(a))
				}
				objTol += 1e-7 * rowMax * math.Abs(y)
			}
		}
		for _, c := range []struct {
			name string
			sol  *Solution
		}{{"sparse warm", warm}, {"dense warm", dense}} {
			if c.sol.Status == StatusIterLimit {
				t.Fatalf("%s re-solve hit the iteration cap (%d pivots)", c.name, c.sol.Iterations)
			}
			if c.sol.Status != cold.Status {
				t.Fatalf("%s status %v, cold %v", c.name, c.sol.Status, cold.Status)
			}
			if cold.Status == StatusOptimal && math.Abs(c.sol.Objective-cold.Objective) > objTol {
				t.Fatalf("%s objective %v, cold %v (tolerance %g)", c.name, c.sol.Objective, cold.Objective, objTol)
			}
		}
	})
}
