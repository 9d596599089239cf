package lp

import (
	"math"
	"slices"
)

// This file is the default solve path: a bounded-variable revised
// simplex over a compressed-sparse-column matrix, with the basis kept
// as an LU factorization (lu.go) plus a product-form eta file between
// periodic refactorizations. Pivoting rules — Dantzig pricing with a
// Bland fallback under stall, the ratio-test tolerances and smaller-
// column-index tie-breaks, the degenerate-theta and basic-value
// clamps, the phase-1 feasibility threshold — replicate the dense
// tableau (dense.go) exactly, so on problems without variable bounds
// the two paths walk the same basis sequence and differ only in
// arithmetic order. Bounds add the nonbasic-at-upper status, a bound-
// flip ratio test, and the four-case dual ratio test; with nil bounds
// every rule degenerates to its dense counterpart.

// vstatus is a variable's position relative to the current basis.
type vstatus uint8

const (
	nbLower vstatus = iota // nonbasic at its lower bound
	nbUpper                // nonbasic at its finite upper bound
	vBasic
)

// spx is the working state of the sparse simplex. Every slice is
// reused across solves; at steady state (unchanged problem shape) a
// solve allocates only its Solution.
type spx struct {
	m, n    int // rows, total columns (structural + slack/surplus + artificial)
	nStruct int
	nArt    int

	// Structural columns in CSC form, with row equilibration and sign
	// flips already applied. Auxiliary columns are implicit unit
	// columns: column nStruct+k has the single entry auxVal[k] in row
	// auxRow[k].
	colPtr []int
	rowIdx []int
	colVal []float64
	auxRow []int
	auxVal []float64

	bRaw  []float64 // standardized rhs (scaled, flipped)
	costs []float64 // phase-2 costs: structural costs then zeros
	c1    []float64 // phase-1 costs: 1 on artificials
	lower []float64 // per-column bounds (aux columns: [0, +Inf))
	upper []float64

	rowScale   []float64
	rowFlipped []bool
	slackOf    []int // per row: slack/surplus column, -1 for EQ rows
	artOf      []int // per row: artificial column, -1 for LE rows

	basis  []int     // column per slot (slot == row)
	slotOf []int     // per column: basis slot, -1 if nonbasic
	vstat  []vstatus // per column
	xB     []float64 // basic values, slot-indexed
	barred []bool
	// noisy marks columns set aside for one pricing round because
	// their computed reduced cost sits inside its own roundoff band
	// (see scoreNoise); noisyList records them for cheap clearing.
	noisy     []bool
	noisyList []int

	lu      luFactor
	luSpare luFactor // factorize target; swapped in only on success
	etas    etaFile

	tol              float64
	pivotsSinceLU    int
	refactorizations int
	etaUpdates       int

	// Scratch: pricing duals, pivot directions (two, for the candidate
	// swap in driveOutArtificials), the B⁻¹ row of the dual ratio test,
	// effective-rhs staging, and the basis-matrix CSC handed to the
	// factorizer.
	yBuf      []float64
	uBuf      []float64
	uBuf2     []float64
	rhoBuf    []float64
	beBuf     []float64
	basColPtr []int
	basRowIdx []int
	basVal    []float64

	warmCand []int
	warmSeen []bool

	dCands []dualCand // dual ratio test scratch

	// luFresh reports that lu factors exactly the current basis with
	// an empty eta file: set by a successful factorizeBasis, cleared by
	// every pivot and by fill (which rewrites the columns under it).
	luFresh bool
	// boxed reports that some structural column has a nonzero lower or
	// a finite upper bound; without one every nonbasic value is 0.
	boxed bool

	// What fill standardized, kept so appendOnly can tell a problem
	// that only gained columns from any other change. costs[:nStruct],
	// lower[:nStruct] and upper[:nStruct] double as the C and bound
	// snapshots.
	srcB    []float64
	srcRel  []Relation
	srcRows *[]float64 // &p.A[0]: the identity of the row array
	rowMax  []float64  // per row: max |a_ij|, the equilibration divisor
}

// nbVal returns nonbasic column j's current value.
func (s *spx) nbVal(j int) float64 {
	if s.vstat[j] == nbUpper {
		return s.upper[j]
	}
	return s.lower[j]
}

func (s *spx) isArtificial(j int) bool { return j >= s.n-s.nArt }

func (s *spx) phase1Costs() []float64 { return s.c1 }
func (s *spx) phase2Costs() []float64 { return s.costs }

// fill (re)standardizes the problem: row equilibration, sign flips to
// make the initial point feasible for phase 1, CSC assembly, and the
// auxiliary column layout. The starting basis is left to tryWarmStart,
// which installs either the caller's basis or the slack/artificial
// cold start (restoreColdBasis).
func (s *spx) fill(p *Problem, tol float64) {
	m := p.NumRows()
	nStruct := p.NumVars()
	s.tol = tol
	s.pivotsSinceLU = 0
	s.refactorizations = 0
	s.etaUpdates = 0
	s.luFresh = false

	s.rowFlipped = growB(s.rowFlipped, m)
	s.bRaw = growF(s.bRaw, m)
	s.rowScale = growF(s.rowScale, m)
	s.rowMax = growF(s.rowMax, m)
	s.slackOf = growI(s.slackOf, m)
	s.artOf = growI(s.artOf, m)
	s.srcB = append(s.srcB[:0], p.B...)
	s.srcRel = append(s.srcRel[:0], p.Rel...)
	s.srcRows = &p.A[0]

	// Row pass: equilibration scale (1/max |structural coefficient|,
	// exactly the dense rule) and the flip decision. A row is flipped
	// when its effective rhs at the starting point — b minus the
	// structural columns at their lower bounds — is negative, so the
	// initial basic values come out non-negative; with nil lower
	// bounds this reduces to the dense "flip when b < 0" rule.
	nSlack, nArt := 0, 0
	nnz := 0
	for i := 0; i < m; i++ {
		row := p.A[i]
		maxAbs := 0.0
		for j := 0; j < nStruct; j++ {
			if a := math.Abs(row[j]); a > maxAbs {
				maxAbs = a
			}
			if row[j] != 0 {
				nnz++
			}
		}
		scale := 1.0
		if maxAbs > 0 {
			scale = 1 / maxAbs
		}
		s.rowScale[i] = scale
		s.rowMax[i] = maxAbs

		rawEff := p.B[i]
		if p.Lower != nil {
			for j := 0; j < nStruct; j++ {
				if lo := p.Lower[j]; lo != 0 {
					rawEff -= row[j] * lo
				}
			}
		}
		s.rowFlipped[i] = rawEff < 0
		sign := 1.0
		if s.rowFlipped[i] {
			sign = -1
		}
		s.bRaw[i] = sign * scale * p.B[i]
		switch s.effectiveRel(p, i) {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}
	n := nStruct + nSlack + nArt
	s.m, s.n, s.nStruct, s.nArt = m, n, nStruct, nArt

	// CSC assembly of the structural columns.
	s.colPtr = resize(s.colPtr, nStruct+1)
	s.rowIdx = resize(s.rowIdx, nnz)
	s.colVal = resize(s.colVal, nnz)
	at := 0
	for j := 0; j < nStruct; j++ {
		s.colPtr[j] = at
		for i := 0; i < m; i++ {
			v := p.A[i][j]
			if v == 0 {
				continue
			}
			if s.rowFlipped[i] {
				v = -v
			}
			s.rowIdx[at] = i
			s.colVal[at] = v * s.rowScale[i]
			at++
		}
	}
	s.colPtr[nStruct] = at

	// Auxiliary columns in the dense layout: slack/surplus columns
	// first in row order, then artificials.
	s.auxRow = growI(s.auxRow, nSlack+nArt)
	s.auxVal = growF(s.auxVal, nSlack+nArt)
	s.basis = growI(s.basis, m)
	slackAt := nStruct
	artAt := nStruct + nSlack
	for i := 0; i < m; i++ {
		s.slackOf[i] = -1
		s.artOf[i] = -1
		switch s.effectiveRel(p, i) {
		case LE:
			s.auxRow[slackAt-nStruct] = i
			s.auxVal[slackAt-nStruct] = 1
			s.slackOf[i] = slackAt
			slackAt++
		case GE:
			s.auxRow[slackAt-nStruct] = i
			s.auxVal[slackAt-nStruct] = -1
			s.slackOf[i] = slackAt
			slackAt++
			s.auxRow[artAt-nStruct] = i
			s.auxVal[artAt-nStruct] = 1
			s.artOf[i] = artAt
			artAt++
		case EQ:
			s.auxRow[artAt-nStruct] = i
			s.auxVal[artAt-nStruct] = 1
			s.artOf[i] = artAt
			artAt++
		}
	}

	// Bounds and costs; statuses are set with the starting basis.
	s.lower = resize(s.lower, n)
	s.upper = resize(s.upper, n)
	s.boxed = false
	for j := 0; j < nStruct; j++ {
		s.lower[j] = p.lowerOf(j)
		s.upper[j] = p.upperOf(j)
		if s.lower[j] != 0 || !math.IsInf(s.upper[j], 1) {
			s.boxed = true
		}
	}
	for j := nStruct; j < n; j++ {
		s.lower[j] = 0
		s.upper[j] = math.Inf(1)
	}
	s.costs = resize(s.costs, n)
	for j := range s.costs {
		s.costs[j] = 0
	}
	copy(s.costs, p.C)
	s.c1 = resize(s.c1, n)
	for j := range s.c1 {
		if j >= n-nArt {
			s.c1[j] = 1
		} else {
			s.c1[j] = 0
		}
	}
	s.vstat = resize(s.vstat, n)
	s.slotOf = resize(s.slotOf, n)
	s.barred = resize(s.barred, n)
	clear(s.barred)
	s.noisy = resize(s.noisy, n)
	clear(s.noisy)
	s.noisyList = s.noisyList[:0]
	s.xB = growF(s.xB, m)

	s.yBuf = growF(s.yBuf, m)
	s.uBuf = growF(s.uBuf, m)
	s.uBuf2 = growF(s.uBuf2, m)
	s.rhoBuf = growF(s.rhoBuf, m)
	s.beBuf = growF(s.beBuf, m)
}

// appendOnly reports whether p differs from the problem fill last
// standardized only by columns appended through AddColumn, and those
// columns leave every row's equilibration scale and flip unchanged:
// same rows, senses, right-hand sides, costs and bounds on the old
// columns, finite new data, a zero lower bound on each new column
// (nonzero ones move the flip rule's effective rhs), and no new
// coefficient above its row's max |a|. Such a problem passes Validate,
// as the last standardized one did, so Solve skips the full rescan. The
// old columns' A entries are not re-read: the Solver contract is that
// after a solve A changes only through AddColumn, and replacing the
// row array wholesale (a rebuild) is caught by srcRows.
func (s *spx) appendOnly(p *Problem) bool {
	m, n0, n := s.m, s.nStruct, len(p.C)
	if m == 0 || len(p.A) != m || len(p.B) != m || len(p.Rel) != m || n < n0 || &p.A[0] != s.srcRows {
		return false
	}
	if (p.Lower != nil && len(p.Lower) != n) || (p.Upper != nil && len(p.Upper) != n) {
		return false
	}
	for i := 0; i < m; i++ {
		if len(p.A[i]) != n || p.B[i] != s.srcB[i] || p.Rel[i] != s.srcRel[i] {
			return false
		}
	}
	for j := 0; j < n0; j++ {
		if p.C[j] != s.costs[j] || p.lowerOf(j) != s.lower[j] || p.upperOf(j) != s.upper[j] {
			return false
		}
	}
	for j := n0; j < n; j++ {
		if c := p.C[j]; math.IsNaN(c) || math.IsInf(c, 0) || p.lowerOf(j) != 0 {
			return false
		}
		if u := p.upperOf(j); math.IsNaN(u) || math.IsInf(u, -1) {
			return false
		}
		for i := 0; i < m; i++ {
			if a := math.Abs(p.A[i][j]); math.IsNaN(a) || a > s.rowMax[i] {
				return false // NaN, ±Inf, or a raised row scale
			}
		}
	}
	return true
}

// extend is fill for an appendOnly change. The new columns join the
// CSC under the unchanged row scales and flips, at O(m) each, and the
// implicit auxiliary columns move up by the number of new columns in
// every column-indexed array, so the standardized state equals what
// fill would build. The previous solve's basis, LU and eta file stay
// live: when the caller's warm basis is that basis, tryWarmStart
// reuses the factors instead of recomputing them.
func (s *spx) extend(p *Problem, tol float64) {
	n0, n1 := s.nStruct, p.NumVars()
	d := n1 - n0
	s.tol = tol
	s.pivotsSinceLU = 0
	s.refactorizations = 0
	s.etaUpdates = 0

	at := s.colPtr[n0]
	s.colPtr = resize(s.colPtr, n1+1)
	s.rowIdx = s.rowIdx[:at]
	s.colVal = s.colVal[:at]
	for j := n0; j < n1; j++ {
		s.colPtr[j] = at
		for i := 0; i < s.m; i++ {
			v := p.A[i][j]
			if v == 0 {
				continue
			}
			if s.rowFlipped[i] {
				v = -v
			}
			s.rowIdx = append(s.rowIdx, i)
			s.colVal = append(s.colVal, v*s.rowScale[i])
			at++
		}
	}
	s.colPtr[n1] = at

	s.lower = openCols(s.lower, n0, d)
	s.upper = openCols(s.upper, n0, d)
	s.costs = openCols(s.costs, n0, d)
	s.c1 = openCols(s.c1, n0, d)
	s.vstat = openCols(s.vstat, n0, d)
	s.slotOf = openCols(s.slotOf, n0, d)
	for j := n0; j < n1; j++ {
		s.lower[j] = 0
		s.upper[j] = p.upperOf(j)
		if !math.IsInf(s.upper[j], 1) {
			s.boxed = true
		}
		s.costs[j] = p.C[j]
		s.c1[j] = 0
		s.vstat[j] = nbLower
		s.slotOf[j] = -1
	}
	s.barred = resize(s.barred, s.n+d)
	clear(s.barred)
	s.noisy = resize(s.noisy, s.n+d)
	clear(s.noisy)
	for r, j := range s.basis {
		if j >= n0 {
			s.basis[r] = j + d
		}
	}
	for i := 0; i < s.m; i++ {
		if s.slackOf[i] >= 0 {
			s.slackOf[i] += d
		}
		if s.artOf[i] >= 0 {
			s.artOf[i] += d
		}
	}
	s.n += d
	s.nStruct = n1
}

// resize returns v with n entries, keeping its backing array when it
// is large enough and otherwise growing it with append's geometric
// headroom, so a master that gains a few columns per round does not
// reallocate every round. The entries are stale; callers overwrite
// them.
func resize[T any](v []T, n int) []T { return slices.Grow(v[:0], n)[:n] }

// openCols widens a column-indexed slice by d entries at index at,
// moving the tail (the auxiliary columns) up; the d opened entries are
// stale. Growth is geometric, as in resize.
func openCols[T any](v []T, at, d int) []T {
	n := len(v)
	v = slices.Grow(v, d)[:n+d]
	copy(v[at+d:], v[at:n])
	return v
}

// effectiveRel is the row's sense after the flip normalization.
func (s *spx) effectiveRel(p *Problem, i int) Relation {
	rel := p.Rel[i]
	if s.rowFlipped[i] {
		switch rel {
		case LE:
			return GE
		case GE:
			return LE
		}
	}
	return rel
}

// factorizeBasis gathers the basis columns into CSC form and attempts
// a fresh LU. On success the new factors replace the old and the eta
// file empties; on failure the previous factorization (plus etas)
// stays live, exactly as the dense path keeps its product-form
// inverse when Gauss-Jordan hits a singular pivot.
func (s *spx) factorizeBasis() bool {
	m := s.m
	need := 0
	for _, j := range s.basis {
		if j < s.nStruct {
			need += s.colPtr[j+1] - s.colPtr[j]
		} else {
			need++
		}
	}
	s.basColPtr = growI(s.basColPtr, m+1)
	s.basRowIdx = growI(s.basRowIdx, need)
	s.basVal = growF(s.basVal, need)
	at := 0
	for r, j := range s.basis {
		s.basColPtr[r] = at
		if j < s.nStruct {
			for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
				s.basRowIdx[at] = s.rowIdx[k]
				s.basVal[at] = s.colVal[k]
				at++
			}
		} else {
			s.basRowIdx[at] = s.auxRow[j-s.nStruct]
			s.basVal[at] = s.auxVal[j-s.nStruct]
			at++
		}
	}
	s.basColPtr[m] = at

	if !s.luSpare.factorize(m, s.basColPtr, s.basRowIdx, s.basVal) {
		s.luFresh = false
		return false
	}
	s.lu, s.luSpare = s.luSpare, s.lu
	s.etas.reset()
	s.pivotsSinceLU = 0
	s.luFresh = true
	return true
}

// refactorize rebuilds the LU (counting it) and refreshes the basic
// values from the effective rhs; on failure the stale factors stay in
// use and xB is left untouched.
func (s *spx) refactorize() bool {
	s.pivotsSinceLU = 0
	s.refactorizations++
	if !s.factorizeBasis() {
		return false
	}
	s.computeXB()
	return true
}

// computeBEff writes the effective right-hand side b − Σ a_j·x_j over
// nonbasic columns at nonzero bounds into dst (row-indexed). Only
// structural columns can sit at a nonzero bound.
func (s *spx) computeBEff(dst []float64) {
	copy(dst, s.bRaw)
	for j := 0; j < s.nStruct; j++ {
		if s.vstat[j] == vBasic {
			continue
		}
		v := s.nbVal(j)
		if v == 0 {
			continue
		}
		for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
			dst[s.rowIdx[k]] -= s.colVal[k] * v
		}
	}
}

// computeXB solves B·xB = bEff and snaps values within 1e-7 of a bound
// onto it (the dense refactorize clamp, generalized to both sides).
func (s *spx) computeXB() {
	s.computeBEff(s.beBuf)
	s.ftranDense(s.beBuf)
	for r := 0; r < s.m; r++ {
		v := s.beBuf[r]
		j := s.basis[r]
		if lo := s.lower[j]; v < lo && v > lo-1e-7 {
			v = lo
		} else if up := s.upper[j]; v > up && v < up+1e-7 {
			v = up
		}
		s.xB[r] = v
	}
}

// ftranDense solves B x = v in place (v row-indexed in, slot-indexed
// out): LU solve, then etas oldest to newest.
func (s *spx) ftranDense(v []float64) {
	s.lu.ftran(v)
	s.etas.applyFtran(v)
}

// btranDense solves Bᵀ y = v in place (v slot-indexed in, row-indexed
// out): etas newest to oldest, then the transposed LU solve.
func (s *spx) btranDense(v []float64) {
	s.etas.applyBtran(v)
	s.lu.btran(v)
}

// ftranColInto computes B⁻¹ a_j into dst (slot-indexed).
func (s *spx) ftranColInto(dst []float64, j int) []float64 {
	for i := range dst {
		dst[i] = 0
	}
	if j < s.nStruct {
		for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
			dst[s.rowIdx[k]] = s.colVal[k]
		}
	} else {
		dst[s.auxRow[j-s.nStruct]] = s.auxVal[j-s.nStruct]
	}
	s.ftranDense(dst)
	return dst
}

// pricingDuals computes y = B⁻ᵀ c_B into yBuf (row-indexed).
func (s *spx) pricingDuals(c []float64) []float64 {
	y := s.yBuf
	for r, j := range s.basis {
		y[r] = c[j]
	}
	s.btranDense(y)
	return y
}

// btranUnit computes row r of B⁻¹ (as B⁻ᵀ e_r) into rhoBuf
// (row-indexed).
func (s *spx) btranUnit(r int) []float64 {
	rho := s.rhoBuf
	for i := range rho {
		rho[i] = 0
	}
	rho[r] = 1
	s.btranDense(rho)
	return rho
}

// colDot is yᵀ a_j for a row-indexed vector y.
func (s *spx) colDot(y []float64, j int) float64 {
	if j < s.nStruct {
		var v float64
		for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
			v += y[s.rowIdx[k]] * s.colVal[k]
		}
		return v
	}
	return y[s.auxRow[j-s.nStruct]] * s.auxVal[j-s.nStruct]
}

// objective is cᵀx at the current point: basic values plus nonbasic
// columns at their bounds. Without boxed columns every nonbasic value
// is 0 and the nonbasic scan would add nothing.
func (s *spx) objective(c []float64) float64 {
	var v float64
	for r, j := range s.basis {
		v += c[j] * s.xB[r]
	}
	if !s.boxed {
		return v
	}
	for j := 0; j < s.n; j++ {
		if s.vstat[j] == vBasic || c[j] == 0 {
			continue
		}
		if nv := s.nbVal(j); nv != 0 {
			v += c[j] * nv
		}
	}
	return v
}

// scoreNoise bounds the floating-point cancellation error of a
// computed reduced cost c[j] − y·a_j: a small multiple of machine
// epsilon times the absolute-value sum of the terms. A score inside
// this band carries no sign information — pivoting on it lets two
// numerically near-duplicate columns swap in and out of the basis
// forever, each "improving" on the other by roundoff (observed on
// quality-mode masters, whose objective sits around 1e8: both twins
// price at −3e−8 with term magnitudes near 4e8 no matter which one is
// basic, a nondegenerate cycle Bland's rule cannot break).
func (s *spx) scoreNoise(c, y []float64, j int) float64 {
	const relEps = 1e-13 // a few hundred ulps: generous for these row counts
	a := math.Abs(c[j])
	if j < s.nStruct {
		for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
			a += math.Abs(y[s.rowIdx[k]] * s.colVal[k])
		}
	} else {
		a += math.Abs(y[s.auxRow[j-s.nStruct]] * s.auxVal[j-s.nStruct])
	}
	return relEps * a
}

// run performs primal simplex pivots under costs c until optimality,
// unboundedness, or the iteration budget runs out — the bounded
// generalization of the dense loop with identical pricing, tolerances,
// and tie-breaks.
func (s *spx) run(c []float64, maxIter int, phase1 bool) (Status, int) {
	if !phase1 {
		for j := s.n - s.nArt; j < s.n; j++ {
			s.barred[j] = true
		}
	}
	iters := 0
	stall := 0
	lastObj := math.Inf(1)
	for {
		if iters >= maxIter {
			return StatusIterLimit, iters
		}
		y := s.pricingDuals(c)
		useBland := stall > 2*s.m+20

		// Pricing: a variable at lower improves by increasing (rc < 0),
		// one at upper by decreasing (rc > 0); the Dantzig score folds
		// both into "most negative wins". A winner whose score sits
		// inside its own roundoff band (scoreNoise) is set aside for
		// this round and the scan repeats — almost always zero extra
		// scans, and only near optimality on badly scaled objectives.
		enter := -1
		for {
			enter = -1
			best := -s.tol
			chosen := 0.0
			for j := 0; j < s.n; j++ {
				if s.vstat[j] == vBasic || s.barred[j] || s.noisy[j] {
					continue
				}
				score := c[j] - s.colDot(y, j)
				if s.vstat[j] == nbUpper {
					score = -score
				}
				if useBland {
					if score < -s.tol {
						enter = j
						chosen = score
						break
					}
				} else if score < best {
					best = score
					chosen = score
					enter = j
				}
			}
			if enter < 0 || -chosen > s.scoreNoise(c, y, enter) {
				break
			}
			s.noisy[enter] = true
			s.noisyList = append(s.noisyList, enter)
		}
		if len(s.noisyList) > 0 {
			for _, j := range s.noisyList {
				s.noisy[j] = false
			}
			s.noisyList = s.noisyList[:0]
		}
		if enter < 0 {
			return StatusOptimal, iters
		}
		esgn := 1.0
		if s.vstat[enter] == nbUpper {
			esgn = -1
		}

		u := s.ftranColInto(s.uBuf, enter)

		// Ratio test: the entering variable moves by t ≥ 0 away from
		// its bound; each basic variable limits t at whichever of its
		// own bounds it is pushed toward. The pivot threshold and the
		// smaller-column-index tie-break are the dense rules verbatim.
		maxU := 0.0
		for i := 0; i < s.m; i++ {
			if a := math.Abs(u[i]); a > maxU {
				maxU = a
			}
		}
		pivTol := 1e-11 * maxU
		if pivTol < s.tol {
			pivTol = s.tol
		}
		leaveRow := -1
		leaveToUpper := false
		minRatio := math.Inf(1)
		for i := 0; i < s.m; i++ {
			d := esgn * u[i]
			jb := s.basis[i]
			var r float64
			var toUpper bool
			if d > pivTol {
				room := s.xB[i] - s.lower[jb]
				if room < 0 {
					room = 0
				}
				r = room / d
			} else if d < -pivTol {
				up := s.upper[jb]
				if math.IsInf(up, 1) {
					continue
				}
				room := up - s.xB[i]
				if room < 0 {
					room = 0
				}
				r = room / -d
				toUpper = true
			} else {
				continue
			}
			if r < minRatio-s.tol ||
				(r < minRatio+s.tol && (leaveRow < 0 || jb < s.basis[leaveRow])) {
				minRatio = r
				leaveRow = i
				leaveToUpper = toUpper
			}
		}

		// Bound flip: the entering variable reaches its opposite bound
		// before any basic variable blocks. No basis change, no eta —
		// the cheapest pivot there is.
		if rng := s.upper[enter] - s.lower[enter]; !math.IsInf(rng, 1) && rng < minRatio-s.tol {
			for i := 0; i < s.m; i++ {
				s.xB[i] -= esgn * rng * u[i]
				s.snapXB(i)
			}
			if s.vstat[enter] == nbUpper {
				s.vstat[enter] = nbLower
			} else {
				s.vstat[enter] = nbUpper
			}
			iters++
			obj := s.objective(c)
			if obj < lastObj-s.tol {
				stall = 0
				lastObj = obj
			} else {
				stall++
			}
			continue
		}

		if leaveRow < 0 {
			if phase1 {
				// Phase-1 objective is bounded below by 0; an
				// unbounded ray here is numerical noise.
				return StatusOptimal, iters
			}
			return StatusUnbounded, iters
		}

		s.pivot(enter, esgn, leaveRow, leaveToUpper, u)
		iters++

		obj := s.objective(c)
		if obj < lastObj-s.tol {
			stall = 0
			lastObj = obj
		} else {
			stall++
		}
	}
}

// snapXB clamps slot r's value onto a bound it overshot by roundoff
// (≤ 1e-9, the dense pivot clamp generalized to both sides).
func (s *spx) snapXB(r int) {
	j := s.basis[r]
	if lo := s.lower[j]; s.xB[r] < lo && s.xB[r] > lo-1e-9 {
		s.xB[r] = lo
	} else if up := s.upper[j]; s.xB[r] > up && s.xB[r] < up+1e-9 {
		s.xB[r] = up
	}
}

// pivot performs the basis exchange: the entering column (moving in
// direction esgn from its bound) replaces slot leaveRow, whose
// variable lands on the bound the ratio test chose. The displacement
// is recomputed from the leaving row exactly as the dense pivot does,
// with the same degenerate-theta clamp.
func (s *spx) pivot(enter int, esgn float64, leaveRow int, leaveToUpper bool, u []float64) {
	leaving := s.basis[leaveRow]
	target := s.lower[leaving]
	if leaveToUpper {
		target = s.upper[leaving]
	}
	theta := (s.xB[leaveRow] - target) / (esgn * u[leaveRow])
	if theta < 0 && theta > -1e-7 {
		theta = 0
	}
	for i := 0; i < s.m; i++ {
		if i == leaveRow {
			continue
		}
		s.xB[i] -= theta * esgn * u[i]
		s.snapXB(i)
	}
	s.xB[leaveRow] = s.nbVal(enter) + esgn*theta

	if leaveToUpper {
		s.vstat[leaving] = nbUpper
	} else {
		s.vstat[leaving] = nbLower
	}
	s.slotOf[leaving] = -1
	s.basis[leaveRow] = enter
	s.vstat[enter] = vBasic
	s.slotOf[enter] = leaveRow

	s.etas.push(leaveRow, u)
	s.luFresh = false
	s.etaUpdates++
	s.pivotsSinceLU++
	if s.pivotsSinceLU >= 64 {
		s.refactorize()
	}
}

// runDual performs dual simplex pivots from a dual-feasible basis
// until every basic variable is back inside its bounds (optimal),
// proven primal infeasibility, or the iteration budget runs out.
//
// The entering column comes from dualEntering (a Harris ratio test
// that never pivots on noise). Anti-cycling mirrors the primal loop:
// the dual objective (the basic solution's cost, nondecreasing under
// dual pivots) is tracked, and after blandAfter pivots without an
// increase (2m+20 in solves, as in the primal loop) the leaving row
// switches from the largest violation to the violated
// row whose basic variable has the smallest index, and the entering
// column to the smallest ratio and index (Bland's rule for the dual
// simplex). Dual-degenerate masters — zero reduced costs on many
// nonbasic columns, common after a demand change on a
// column-generation pool — otherwise cycled at the optimal objective
// until the iteration cap. A non-finite basic value, or a row whose
// only candidates are noise, reports statusBreakdown.
func (s *spx) runDual(c []float64, maxIter, blandAfter int) (Status, int) {
	// Artificials stay barred exactly as in primal phase 2.
	for j := s.n - s.nArt; j < s.n; j++ {
		s.barred[j] = true
	}
	iters := 0
	stall := 0
	lastObj := math.Inf(-1)
	for {
		if iters >= maxIter {
			return StatusIterLimit, iters
		}
		useBland := stall >= blandAfter
		// Leaving row: largest bound violation (with nil bounds this
		// is the dense "most negative basic value" rule), or under
		// Bland the violated row with the smallest basic index.
		leave := -1
		leaveBelow := false
		worst := s.tol
		for i := 0; i < s.m; i++ {
			if !finite(s.xB[i]) {
				return statusBreakdown, iters
			}
			jb := s.basis[i]
			below := true
			v := s.lower[jb] - s.xB[i]
			if v <= s.tol {
				below = false
				v = s.xB[i] - s.upper[jb]
			}
			if v <= s.tol {
				continue
			}
			if useBland {
				if leave < 0 || jb < s.basis[leave] {
					leave = i
					leaveBelow = below
				}
			} else if v > worst {
				worst = v
				leave = i
				leaveBelow = below
			}
		}
		if leave < 0 {
			return StatusOptimal, iters // primal feasible and dual feasible
		}
		dir := 1.0 // the violated basic value must move up…
		if !leaveBelow {
			dir = -1 // …or down, when it sits above its upper bound
		}

		// Entering: the dual ratio test over row leave of B⁻¹A. A
		// candidate's movement away from its bound must push the
		// leaving value toward feasibility, and the step is limited by
		// the smallest reduced-cost ratio (dual feasibility);
		// dualEntering picks the pivot among the candidates.
		rho := s.btranUnit(leave)
		y := s.pricingDuals(c)
		s.dCands = s.dCands[:0]
		maxAlpha := 0.0
		for j := 0; j < s.n; j++ {
			if s.vstat[j] == vBasic || s.barred[j] {
				continue
			}
			alpha := s.colDot(rho, j)
			a := math.Abs(alpha)
			if a > maxAlpha {
				maxAlpha = a
			}
			sgnj := 1.0
			if s.vstat[j] == nbUpper {
				sgnj = -1
			}
			if sgnj*alpha*dir >= -1e-9 {
				continue
			}
			rc := c[j] - s.colDot(y, j)
			// Clamp roundoff across the dual-feasible side (≥ 0 at
			// lower, ≤ 0 at upper): feasibility holds by invariant.
			if sgnj > 0 {
				if rc < 0 {
					rc = 0
				}
			} else if rc > 0 {
				rc = 0
			}
			s.dCands = append(s.dCands, dualCand{j: j, ratio: math.Abs(rc) / a, alpha: a})
		}
		enter, noise := dualEntering(s.dCands, maxAlpha, s.tol, useBland)
		if noise {
			return statusBreakdown, iters
		}
		if enter < 0 {
			return StatusInfeasible, iters // the row proves the bounds box empty
		}

		esgn := 1.0
		if s.vstat[enter] == nbUpper {
			esgn = -1
		}
		u := s.ftranColInto(s.uBuf, enter)
		s.pivotDual(enter, esgn, leave, leaveBelow, u)
		iters++

		if obj := s.objective(c); obj > lastObj+s.tol {
			stall = 0
			lastObj = obj
		} else {
			stall++
		}
	}
}

// pivotDual performs the dual basis exchange: the leaving variable
// lands exactly on its violated bound; no feasibility clamps apply
// (the dense pivotDual has none either — subsequent iterations repair
// any remaining violations).
func (s *spx) pivotDual(enter int, esgn float64, leaveRow int, leaveBelow bool, u []float64) {
	leaving := s.basis[leaveRow]
	target := s.lower[leaving]
	if !leaveBelow {
		target = s.upper[leaving]
	}
	theta := (s.xB[leaveRow] - target) / (esgn * u[leaveRow])
	for i := 0; i < s.m; i++ {
		if i == leaveRow {
			continue
		}
		s.xB[i] -= theta * esgn * u[i]
	}
	s.xB[leaveRow] = s.nbVal(enter) + esgn*theta

	if leaveBelow {
		s.vstat[leaving] = nbLower
	} else {
		s.vstat[leaving] = nbUpper
	}
	s.slotOf[leaving] = -1
	s.basis[leaveRow] = enter
	s.vstat[enter] = vBasic
	s.slotOf[enter] = leaveRow

	s.etas.push(leaveRow, u)
	s.luFresh = false
	s.etaUpdates++
	s.pivotsSinceLU++
	if s.pivotsSinceLU >= 64 {
		s.refactorize()
	}
}

// driveOutArtificials pivots zero-level basic artificials out of the
// basis where a usable structural pivot exists (largest magnitude
// above the dense 1e-7 threshold); rows without one are redundant and
// keep their artificial, barred in phase 2.
func (s *spx) driveOutArtificials() {
	for i := 0; i < s.m; i++ {
		if !s.isArtificial(s.basis[i]) {
			continue
		}
		bestJ := -1
		bestPiv := 1e-7
		var bestU []float64
		cur, spare := s.uBuf, s.uBuf2
		for j := 0; j < s.n-s.nArt; j++ {
			if s.vstat[j] == vBasic || s.barred[j] {
				continue
			}
			u := s.ftranColInto(cur, j)
			if a := math.Abs(u[i]); a > bestPiv {
				bestPiv = a
				bestJ = j
				bestU = u
				cur, spare = spare, cur
			}
		}
		_ = spare
		if bestJ >= 0 {
			esgn := 1.0
			if s.vstat[bestJ] == nbUpper {
				esgn = -1
			}
			s.pivot(bestJ, esgn, i, false, bestU)
		}
	}
}

// tryWarmStart installs the starting basis: a caller-provided basis
// when usable, otherwise the cold start (restoreColdBasis). It mirrors
// the dense rules: the basis must decode, not repeat columns, and
// factorize; a basis whose basic values respect their bounds (±1e-7)
// goes straight to phase 2 even if some reduced cost is negative, a
// bound-respecting dual-feasible one goes to the dual simplex,
// anything else restores the cold start. Nonbasic variables take the
// bound side their reduced cost prefers (at upper iff rc < −1e-7 with
// a finite upper bound). A candidate equal slot for slot to a basis
// the live LU factors exactly (luFresh: after extend, the previous
// solve's closing refactorization) skips the factorization, which
// would recompute the same factors from the same columns.
func (s *spx) tryWarmStart(warm []BasisVar) warmOutcome {
	if !s.decodeWarm(warm) {
		s.restoreColdBasis()
		return warmUnusable
	}
	reuse := s.luFresh && slices.Equal(s.warmCand, s.basis)
	copy(s.basis, s.warmCand)
	s.resetStatuses()
	if !reuse {
		s.refactorizations++ // the candidate factorization, as in dense
		if !s.factorizeBasis() {
			s.restoreColdBasis()
			return warmUnusable
		}
	}

	// Nonbasic sides and dual feasibility from the reduced costs
	// (artificials skipped, as in the dense classification).
	c := s.phase2Costs()
	y := s.pricingDuals(c)
	dualInfeasible := false
	for j := 0; j < s.n; j++ {
		if s.vstat[j] == vBasic || s.isArtificial(j) {
			continue
		}
		if c[j]-s.colDot(y, j) < -1e-7 {
			if !math.IsInf(s.upper[j], 1) {
				s.vstat[j] = nbUpper
			} else {
				dualInfeasible = true
			}
		}
	}

	s.computeXB()
	primal := true
	for r := 0; r < s.m; r++ {
		jb := s.basis[r]
		if s.isArtificial(jb) && math.Abs(s.xB[r]) > 1e-7 {
			// A retained artificial (the auxiliary of a row that was
			// redundant when the basis was optimal) is barred in phase 2
			// and unbounded above, so neither simplex would move it: a
			// right-hand-side change that lifts it off zero would be
			// reported as optimal with the row violated.
			s.restoreColdBasis()
			return warmUnusable
		}
		if s.xB[r] < s.lower[jb]-1e-7 || s.xB[r] > s.upper[jb]+1e-7 {
			primal = false
		}
	}
	if primal {
		// Phase 2 runs from here even when dual-infeasible columns
		// exist — primal pivots price them in, exactly as dense.
		return warmPrimalFeasible
	}
	if !dualInfeasible {
		return warmDualFeasible
	}
	s.restoreColdBasis()
	return warmUnusable
}

// decodeWarm maps a caller-provided basis onto workspace columns in
// warmCand, reporting false when it has the wrong length, an index out
// of range, an EQ row's missing auxiliary, or a repeated column.
func (s *spx) decodeWarm(warm []BasisVar) bool {
	if len(warm) != s.m {
		return false
	}
	s.warmCand = growI(s.warmCand, s.m)
	s.warmSeen = resize(s.warmSeen, s.n)
	clear(s.warmSeen)
	for r, bv := range warm {
		var j int
		switch bv.Kind {
		case BasisStructural:
			if bv.Index < 0 || bv.Index >= s.nStruct {
				return false
			}
			j = bv.Index
		case BasisAux:
			if bv.Index < 0 || bv.Index >= s.m {
				return false
			}
			j = s.slackOf[bv.Index]
			if j < 0 {
				j = s.artOf[bv.Index]
			}
			if j < 0 {
				return false
			}
		default:
			return false
		}
		if s.warmSeen[j] {
			return false
		}
		s.warmSeen[j] = true
		s.warmCand[r] = j
	}
	return true
}

// resetStatuses marks the basis columns basic and every other column
// nonbasic at its lower bound.
func (s *spx) resetStatuses() {
	for j := 0; j < s.n; j++ {
		s.vstat[j] = nbLower
		s.slotOf[j] = -1
	}
	for r, j := range s.basis {
		s.vstat[j] = vBasic
		s.slotOf[j] = r
	}
}

// restoreColdBasis installs the slack/artificial starting state with
// every structural at its lower bound: the start of a cold solve, and
// the fallback after a rejected warm basis. The cold basis is all unit
// columns, so the factorization cannot fail; like the dense path's
// direct B⁻¹ = I start it is not counted as a refactorization.
func (s *spx) restoreColdBasis() {
	for i := 0; i < s.m; i++ {
		if s.slackOf[i] >= 0 && s.auxVal[s.slackOf[i]-s.nStruct] > 0 {
			s.basis[i] = s.slackOf[i] // LE row: its slack
		} else {
			s.basis[i] = s.artOf[i] // GE/EQ row: its artificial
		}
	}
	s.resetStatuses()
	s.factorizeBasis()
	s.computeXB()
}

// encodeBasis renders the basis in representation-independent form.
func (s *spx) encodeBasis() []BasisVar {
	out := make([]BasisVar, s.m)
	for r, j := range s.basis {
		if j < s.nStruct {
			out[r] = BasisVar{Kind: BasisStructural, Index: j}
		} else {
			out[r] = BasisVar{Kind: BasisAux, Index: s.auxRow[j-s.nStruct]}
		}
	}
	return out
}

// statusBreakdown is the dual simplex's internal report of numerical
// ruin — a non-finite basic value, or a ratio test row whose every
// candidate is noise; the solve restarts cold.
const statusBreakdown Status = -1

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return v-v == 0 }

// solveSparse runs the two-phase sparse simplex in the given
// workspace. The caller has already validated the problem, resolved
// tol/maxIter, and handled crossed bounds and the zero-row case;
// appended reports that appendOnly accepted the problem, so the
// workspace is extended rather than rebuilt.
func solveSparse(p *Problem, s *spx, opt Options, tol float64, maxIter int, appended bool) (*Solution, error) {
	if appended {
		s.extend(p, tol)
	} else {
		s.fill(p, tol)
	}

	iters1 := 0
	warmUsed := false
	cold := false
	switch s.tryWarmStart(opt.WarmBasis) {
	case warmPrimalFeasible:
		warmUsed = true
	case warmDualFeasible:
		warmUsed = true
		// Dual repair after a right-hand-side or bound change. Warm is
		// reported even when the repair needs zero pivots or proves the
		// tightened problem infeasible — the basis did its job.
		st, it := s.runDual(s.phase2Costs(), maxIter, 2*s.m+20)
		iters1 = it
		switch st {
		case StatusIterLimit:
			return s.failSolution(StatusIterLimit, iters1, true), nil
		case StatusInfeasible:
			return s.failSolution(StatusInfeasible, iters1, true), nil
		case statusBreakdown:
			// The repair pivoted the basis into numerical ruin (a
			// non-finite basic value): start over cold.
			warmUsed = false
			cold = true
			clear(s.barred)
			s.restoreColdBasis()
		}
	default:
		cold = true
	}
	if cold {
		st, it := s.run(s.phase1Costs(), maxIter-iters1, true)
		iters1 += it
		if st == StatusIterLimit {
			return s.failSolution(StatusIterLimit, iters1, false), nil
		}
		if s.objective(s.phase1Costs()) > 1e-6 {
			return s.failSolution(StatusInfeasible, iters1, false), nil
		}
		s.driveOutArtificials()
	}

	st, iters2 := s.run(s.phase2Costs(), maxIter-iters1, false)
	iters := iters1 + iters2
	switch st {
	case StatusUnbounded:
		return s.failSolution(StatusUnbounded, iters, warmUsed), nil
	case StatusIterLimit:
		return s.failSolution(StatusIterLimit, iters, warmUsed), nil
	}

	// Fresh factorization before extraction so the reported point is
	// exactly B⁻¹·bEff for the final basis.
	s.refactorize()

	x := make([]float64, s.nStruct)
	for j := 0; j < s.nStruct; j++ {
		if r := s.slotOf[j]; r >= 0 {
			x[j] = s.xB[r]
		} else {
			x[j] = s.nbVal(j)
		}
		// Clean roundoff outside the box (the dense −1e-7 clamp,
		// generalized).
		if lo := s.lower[j]; x[j] < lo && x[j] > lo-1e-7 {
			x[j] = lo
		} else if up := s.upper[j]; x[j] > up && x[j] < up+1e-7 {
			x[j] = up
		}
	}

	// Reduced costs in internal row scaling equal the caller's exactly:
	// scaling multiplies a_ij and divides y_i by the same factor.
	yInt := s.pricingDuals(s.phase2Costs())
	rc := make([]float64, s.nStruct)
	for j := 0; j < s.nStruct; j++ {
		if s.vstat[j] == vBasic {
			continue // exact zero for basic variables
		}
		rc[j] = s.costs[j] - s.colDot(yInt, j)
	}
	// Undo equilibration and row flips so the duals refer to the
	// caller's original rows.
	dual := make([]float64, s.m)
	for i := 0; i < s.m; i++ {
		dual[i] = yInt[i] * s.rowScale[i]
		if s.rowFlipped[i] {
			dual[i] = -dual[i]
		}
	}

	sol := &Solution{
		Status:           StatusOptimal,
		X:                x,
		Dual:             dual,
		Iterations:       iters,
		Refactorizations: s.refactorizations,
		Basis:            s.encodeBasis(),
		Warm:             warmUsed,
		ReducedCost:      rc,
		EtaUpdates:       s.etaUpdates,
		FillRatio:        s.lu.fillRatio(),
	}
	sol.Objective = p.Objective(x)
	return sol, nil
}

// failSolution packages a non-optimal outcome with the solve counters.
func (s *spx) failSolution(st Status, iters int, warm bool) *Solution {
	return &Solution{
		Status:           st,
		Iterations:       iters,
		Refactorizations: s.refactorizations,
		Warm:             warm,
		EtaUpdates:       s.etaUpdates,
		FillRatio:        s.lu.fillRatio(),
	}
}
