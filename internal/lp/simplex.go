package lp

import "math"

// SolveWith optimizes the problem with explicit options using the
// revised simplex method (sparse by default, dense behind
// Options.Dense).
func SolveWith(p *Problem, opt Options) (*Solution, error) {
	s := Solver{p: p}
	return s.Solve(opt)
}

// Solver is a reusable simplex workspace bound to one Problem. Between
// solves callers may change C, B, bounds, and the row set (AddRow),
// and append columns with AddColumn; the workspace regrows. After a
// solve, A changes only through AddColumn (replacing p.A wholesale
// also works): the existing columns' coefficients are not re-read
// when the problem only gained columns. At steady state a solve
// allocates only its Solution. A Solver is not safe for concurrent
// use.
//
// When the problem differs from the last sparse solve's only by
// appended columns that leave every row's equilibration scale alone,
// Solve extends the standardized workspace in place instead of
// rebuilding it, and validates only the new columns; when the warm
// basis is the previous solve's final basis, it also reuses that
// solve's closing LU factorization. Both shortcuts reproduce the
// full rebuild's state exactly, so every result is bit-identical to a
// fresh Solver's except Refactorizations, which counts only the
// factorizations that ran (DESIGN.md §14).
type Solver struct {
	p *Problem
	t *tableau // legacy dense workspace, allocated on first Dense solve
	s *spx     // sparse workspace, allocated on first default solve
}

// NewSolver binds a reusable solver to the problem.
func NewSolver(p *Problem) *Solver { return &Solver{p: p} }

// Solve optimizes the bound problem's current state.
func (s *Solver) Solve(opt Options) (*Solution, error) {
	p := s.p
	appended := !opt.Dense && s.s != nil && s.s.appendOnly(p)
	if !appended {
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}
	tol := solveTol
	maxIter := opt.MaxIter
	if maxIter <= 0 {
		maxIter = 20000 + 50*(p.NumRows()+p.NumVars())
	}

	// Crossed bounds (lower > upper) make the box itself empty. This is
	// a solve-time status rather than a validation error because branch
	// and bound legitimately produces such boxes: root-fixing raises a
	// lower bound while an already-queued node carries upper = 0.
	if j := p.boundsCrossed(); j >= 0 {
		return &Solution{Status: StatusInfeasible}, nil
	}

	if p.NumRows() == 0 {
		// No rows: each variable sits at whichever of its bounds the
		// cost prefers; a negative cost with an infinite upper bound is
		// an unbounded ray.
		x := make([]float64, p.NumVars())
		for j := range x {
			if p.C[j] < -tol {
				up := p.upperOf(j)
				if math.IsInf(up, 1) {
					return &Solution{Status: StatusUnbounded, X: x}, nil
				}
				x[j] = up
			} else {
				x[j] = p.lowerOf(j)
			}
		}
		sol := &Solution{
			Status:      StatusOptimal,
			X:           x,
			Dual:        nil,
			ReducedCost: append([]float64(nil), p.C...),
		}
		sol.Objective = p.Objective(x)
		return sol, nil
	}

	if opt.Dense {
		if p.hasBounds() {
			// The dense tableau has no native bound handling; bounds
			// become constraint rows on a clone (fresh workspace — the
			// row set changes shape every call).
			return solveDenseBounded(p, opt, tol, maxIter)
		}
		if s.t == nil {
			s.t = &tableau{}
		}
		return solveDense(p, s.t, opt, tol, maxIter)
	}
	if s.s == nil {
		s.s = &spx{}
	}
	return solveSparse(p, s.s, opt, tol, maxIter, appended)
}
