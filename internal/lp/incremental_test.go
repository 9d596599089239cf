package lp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// incPicker is the randomness the incremental-solve driver consumes:
// math/rand in the property test, the fuzz input in the fuzz target.
type incPicker interface {
	intn(n int) int
	unit() float64 // in [0, 1]
}

type randPicker struct{ *rand.Rand }

func (r randPicker) intn(n int) int { return r.Intn(n) }
func (r randPicker) unit() float64  { return r.Float64() }

func (r *fuzzReader) unit() float64 { return float64(r.byte()) / 255 }

// Step kinds of the column-generation-shaped sequences. Appends that
// stay under every row's max keep the Solver on its append path; the
// rest must take the full restandardization.
const (
	stepAppend   = iota // a batch of ordinary schedule columns
	stepRaiseMax        // a column above its row's max |a|
	stepRHS             // one right-hand side moves
	stepBounds          // one variable's bounds move
	stepLowerNew        // a new column with a nonzero lower bound
	stepUpperNew        // a new column with a finite upper bound
	stepRebuild         // GC: rebuild the problem from a column subset
	stepBadWarm         // an unusable or stale warm basis
	numSteps
)

// incRun is one persistent Solver walking a growing master, checked
// after every step against a fresh Solver on a clone.
type incRun struct {
	t    testing.TB
	r    incPicker
	p    *Problem
	s    *Solver
	m    int       // demand rows; row m is the budget row
	top  []float64 // per demand row: the largest coefficient so far
	warm []BasisVar
	// synced reports that the last solve standardized the problem;
	// one with crossed bounds returns before reaching the workspace.
	synced bool

	appendSolves, reusedLU int
}

// newIncRun lays m GE demand rows and an LE budget row, with one
// single-row "TDMA" column per demand row so the master starts
// feasible — the shape of the P1/P2 masters in internal/core.
func newIncRun(t testing.TB, r incPicker, m int) *incRun {
	run := &incRun{t: t, r: r, p: NewProblem(nil), m: m, top: make([]float64, m)}
	for i := 0; i < m; i++ {
		run.top[i] = (1 + r.unit()) * 1e8
		run.p.AddRow(nil, GE, (0.2+r.unit())*5e7)
	}
	run.p.AddRow(nil, LE, float64(m))
	for i := 0; i < m; i++ {
		col := make([]float64, m+1)
		col[i] = run.top[i]
		col[m] = 1
		run.addColumn(col)
	}
	run.s = NewSolver(run.p)
	return run
}

func (run *incRun) addColumn(col []float64) int {
	j, err := run.p.AddColumn(1, col)
	if err != nil {
		run.t.Fatal(err)
	}
	return j
}

// scheduleColumn draws a column touching one to three demand rows at
// rate levels no higher than each row's max.
func (run *incRun) scheduleColumn() []float64 {
	col := make([]float64, run.m+1)
	for k, n := 0, 1+run.r.intn(3); k < n; k++ {
		i := run.r.intn(run.m)
		col[i] = run.top[i] * float64(1+run.r.intn(4)) / 4
	}
	col[run.m] = 1
	return col
}

// step applies one mutation and reports whether it should leave the
// problem on the append path.
func (run *incRun) step(kind int) bool {
	p, r := run.p, run.r
	switch kind {
	case stepAppend:
		for k, n := 0, 1+r.intn(4); k < n; k++ {
			run.addColumn(run.scheduleColumn())
		}
		return true
	case stepRaiseMax:
		col := run.scheduleColumn()
		i := r.intn(run.m)
		run.top[i] *= 1.5
		col[i] = run.top[i]
		run.addColumn(col)
	case stepRHS:
		i := r.intn(run.m + 1)
		old := p.B[i]
		p.B[i] *= 0.5 + 1.5*r.unit()
		return p.B[i] == old // a factor of exactly 1 changes nothing
	case stepBounds:
		j := r.intn(p.NumVars())
		lo, up := 0.0, math.Inf(1)
		if r.intn(2) == 0 {
			lo = 0.05 * r.unit()
		}
		if r.intn(2) == 0 {
			up = r.unit() // may sit below the lower bound: crossed
		}
		same := lo == p.lowerOf(j) && up == p.upperOf(j)
		p.SetBounds(j, lo, up)
		return same
	case stepLowerNew:
		j := run.addColumn(run.scheduleColumn())
		p.SetBounds(j, 0.01+0.05*r.unit(), math.Inf(1))
	case stepUpperNew:
		j := run.addColumn(run.scheduleColumn())
		p.SetBounds(j, 0, r.unit())
		return true
	case stepRebuild:
		run.rebuild()
	case stepBadWarm:
		switch r.intn(3) {
		case 0:
			run.warm = nil
		case 1: // a repeated column
			if len(run.warm) > 1 {
				run.warm = slices.Clone(run.warm)
				run.warm[1] = run.warm[0]
			}
		default: // a different, valid-looking basis: every row's aux
			run.warm = make([]BasisVar, p.NumRows())
			for i := range run.warm {
				run.warm[i] = BasisVar{Kind: BasisAux, Index: i}
			}
			run.warm[0] = BasisVar{Kind: BasisStructural, Index: r.intn(p.NumVars())}
		}
		return true
	}
	return false
}

// rebuild is the column-GC pattern: keep the TDMA columns and a random
// subset of the rest, build a new problem over them, install it in
// place of the old one, and remap the warm basis.
func (run *incRun) rebuild() {
	old := run.p
	q := NewProblem(nil)
	for i := range old.A {
		q.AddRow(nil, old.Rel[i], old.B[i])
	}
	colMap := make([]int, old.NumVars()-run.m)
	for j := 0; j < old.NumVars(); j++ {
		if j >= run.m && run.r.intn(2) == 0 {
			colMap[j-run.m] = -1
			continue
		}
		col := make([]float64, len(old.A))
		for i := range col {
			col[i] = old.A[i][j]
		}
		nj, err := q.AddColumn(old.C[j], col)
		if err != nil {
			run.t.Fatal(err)
		}
		if old.Lower != nil || old.Upper != nil {
			q.SetBounds(nj, old.lowerOf(j), old.upperOf(j))
		}
		if j >= run.m {
			colMap[j-run.m] = nj - run.m
		}
	}
	*run.p = *q
	for i := range run.top { // a dropped column may have held a row's max
		run.top[i] = slices.Max(q.A[i])
	}
	if w, ok := RemapStructurals(run.warm, run.m, colMap); ok {
		run.warm = w
	} else {
		run.warm = nil
	}
}

// solveAndCompare solves on the persistent Solver and on a fresh one
// over a clone, with the same warm basis, and requires bit-identical
// results.
func (run *incRun) solveAndCompare(tag string, wantAppend bool) {
	appended := run.s.s != nil && run.s.s.appendOnly(run.p)
	if run.synced && appended != wantAppend {
		run.t.Fatalf("%s: appendOnly = %v, want %v", tag, appended, wantAppend)
	}
	opt := Options{WarmBasis: run.warm}
	got, err := run.s.Solve(opt)
	if err != nil {
		run.t.Fatalf("%s: incremental solve: %v", tag, err)
	}
	want, err := NewSolver(run.p.Clone()).Solve(opt)
	if err != nil {
		run.t.Fatalf("%s: fresh solve: %v", tag, err)
	}
	if d := solutionDiff(got, want); d != "" {
		run.t.Fatalf("%s (append path %v): incremental differs from fresh: %s", tag, appended, d)
	}
	if o, ref := run.s.s.objective(run.s.s.costs), scanObjective(run.s.s); math.Float64bits(o) != math.Float64bits(ref) {
		run.t.Fatalf("%s: objective %v, full nonbasic scan %v", tag, o, ref)
	}
	if appended {
		run.appendSolves++
		if got.Refactorizations < want.Refactorizations {
			run.reusedLU++
		}
	}
	if got.Status == StatusOptimal {
		run.warm = got.Basis
	}
	run.synced = run.p.boundsCrossed() < 0
}

// scanObjective is spx.objective without the unboxed shortcut: every
// nonbasic column's value is added.
func scanObjective(s *spx) float64 {
	var v float64
	for r, j := range s.basis {
		v += s.costs[j] * s.xB[r]
	}
	for j := 0; j < s.n; j++ {
		if s.vstat[j] == vBasic || s.costs[j] == 0 {
			continue
		}
		if nv := s.nbVal(j); nv != 0 {
			v += s.costs[j] * nv
		}
	}
	return v
}

// solutionDiff describes the first bit-level difference between two
// solutions, or returns "".
func solutionDiff(a, b *Solution) string {
	if a.Status != b.Status || a.Warm != b.Warm {
		return fmt.Sprintf("status %v/%v warm %v/%v", a.Status, b.Status, a.Warm, b.Warm)
	}
	if a.Iterations != b.Iterations || a.EtaUpdates != b.EtaUpdates {
		return fmt.Sprintf("iterations %d/%d eta updates %d/%d", a.Iterations, b.Iterations, a.EtaUpdates, b.EtaUpdates)
	}
	if math.Float64bits(a.Objective) != math.Float64bits(b.Objective) {
		return fmt.Sprintf("objective %v/%v", a.Objective, b.Objective)
	}
	for _, v := range []struct {
		name string
		a, b []float64
	}{{"X", a.X, b.X}, {"Dual", a.Dual, b.Dual}, {"ReducedCost", a.ReducedCost, b.ReducedCost}} {
		if len(v.a) != len(v.b) {
			return fmt.Sprintf("%s lengths %d/%d", v.name, len(v.a), len(v.b))
		}
		for i := range v.a {
			if math.Float64bits(v.a[i]) != math.Float64bits(v.b[i]) {
				return fmt.Sprintf("%s[%d] %v/%v", v.name, i, v.a[i], v.b[i])
			}
		}
	}
	if !slices.Equal(a.Basis, b.Basis) {
		return fmt.Sprintf("basis %v/%v", a.Basis, b.Basis)
	}
	return ""
}

// checkAppendedNonFinite appends a column carrying v to a clone of the
// run's problem and requires a Solver that already solved the clone to
// reject it, as Validate would.
func checkAppendedNonFinite(t testing.TB, run *incRun, v float64) {
	p := run.p.Clone()
	s := NewSolver(p)
	if _, err := s.Solve(Options{}); err != nil {
		t.Fatal(err)
	}
	col := make([]float64, p.NumRows())
	col[0] = v
	if _, err := p.AddColumn(1, col); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(Options{}); err == nil {
		t.Fatalf("appended column with %v: solve succeeded, want a validation error", v)
	}
}

// TestIncrementalMatchesFresh drives a persistent Solver through
// random column-generation-shaped sequences — appended column batches
// interleaved with a max-raising column, right-hand-side and bound
// changes, new columns with nonzero lower or finite upper bounds, GC
// rebuilds, and unusable warm bases — and requires every solve to be
// bit-identical to a fresh Solver's on a clone of the problem.
func TestIncrementalMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	appendSolves, reusedLU := 0, 0
	for seq := 0; seq < 40; seq++ {
		run := newIncRun(t, randPicker{rng}, 2+rng.Intn(12))
		run.solveAndCompare(fmt.Sprintf("seq %d cold", seq), false)
		for it := 0; it < 30; it++ {
			kind := stepAppend
			if rng.Intn(3) == 0 {
				kind = rng.Intn(numSteps)
			}
			want := run.step(kind)
			run.solveAndCompare(fmt.Sprintf("seq %d step %d kind %d", seq, it, kind), want)
		}
		checkAppendedNonFinite(t, run, math.NaN())
		checkAppendedNonFinite(t, run, math.Inf(1))
		appendSolves += run.appendSolves
		reusedLU += run.reusedLU
	}
	t.Logf("%d append-path solves, %d with the LU reused", appendSolves, reusedLU)
	// The walk must actually exercise both shortcuts.
	if appendSolves < 500 || reusedLU < 300 {
		t.Fatalf("append path taken %d times, LU reused %d times: the walk misses the fast path", appendSolves, reusedLU)
	}
}

// TestRestandardizedBasisIsRefactorized re-solves from a previous
// all-structural basis after an appended column raised a row's max:
// the basis decodes to the same columns, but the row's scale changed
// under them, so the old factors must not be reused.
func TestRestandardizedBasisIsRefactorized(t *testing.T) {
	p := NewProblem([]float64{1, 1})
	p.AddRow([]float64{2, 1}, GE, 2)
	p.AddRow([]float64{1, 3}, GE, 3)
	s := NewSolver(p)
	first, err := s.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, bv := range first.Basis {
		if bv.Kind != BasisStructural {
			t.Fatalf("basis %v is not all structural", first.Basis)
		}
	}
	if _, err := p.AddColumn(100, []float64{10, 0}); err != nil {
		t.Fatal(err)
	}
	got, err := s.Solve(Options{WarmBasis: first.Basis})
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewSolver(p.Clone()).Solve(Options{WarmBasis: first.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if d := solutionDiff(got, want); d != "" {
		t.Fatalf("re-solve after a row rescale differs from fresh: %s", d)
	}
}

// TestStoppedBasisIsRefactorized re-solves from the basis a warm
// solve stopped at (iteration limit): its LU carries etas and must not
// be reused as a fresh factorization, even though the basis matches.
func TestStoppedBasisIsRefactorized(t *testing.T) {
	run := newIncRun(t, randPicker{rand.New(rand.NewSource(3))}, 8)
	stopped := 0
	for round := 0; round < 20; round++ {
		run.solveAndCompare(fmt.Sprintf("round %d", round), round > 0)
		for k := 0; k < 6; k++ {
			run.step(stepAppend)
		}
		sol, err := run.s.Solve(Options{WarmBasis: run.warm, MaxIter: 1})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != StatusIterLimit {
			continue
		}
		stopped++
		run.warm = run.s.s.encodeBasis()
		reused := run.reusedLU
		run.solveAndCompare(fmt.Sprintf("round %d stopped", round), true)
		if run.reusedLU != reused {
			t.Fatalf("round %d: the stopped basis's factors were reused", round)
		}
	}
	if stopped == 0 {
		t.Fatal("no warm solve hit the iteration limit")
	}
}

// FuzzIncrementalSolve runs the TestIncrementalMatchesFresh comparison
// over step sequences and data drawn from the fuzz input.
func FuzzIncrementalSolve(f *testing.F) {
	f.Add([]byte{4, 0, 0, 0, 1, 0, 2, 0, 3, 0, 6, 0, 7, 5, 4, 0})
	f.Add([]byte{9, 200, 17, 88, 9, 14, 250, 33, 1, 77, 190, 41, 6, 128, 255, 2, 63})
	f.Add([]byte{2, 6, 6, 0, 0, 3, 3, 7, 7, 1, 1, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		r := &fuzzReader{data: data}
		run := newIncRun(t, r, 1+r.intn(10))
		run.solveAndCompare("cold", false)
		for it := 0; it < len(data) && it < 24; it++ {
			kind := r.intn(numSteps + 3) // extra weight on plain appends
			if kind >= numSteps {
				kind = stepAppend
			}
			want := run.step(kind)
			run.solveAndCompare(fmt.Sprintf("step %d kind %d", it, kind), want)
		}
		checkAppendedNonFinite(t, run, math.NaN())
	})
}
