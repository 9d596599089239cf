package netmodel

import "math"

// ProbeSolver answers the pricer's innermost question — "is the
// committed activation pattern plus one more (link, channel, level)
// still power-feasible?" — incrementally. The depth-first pricing
// search grows its pattern one link at a time, so consecutive probes
// share all but the last row of the Foschini–Miljanic system
// (I − F)·P = b. Instead of rebuilding and factoring that system from
// scratch at every probe (the O(m³) Gauss-Jordan of
// MinPowersAssigned), the solver maintains a bordered LU factorization
// of the committed pattern's matrix: Push appends one row/column to
// the factors in O(m²), Pop truncates them in O(1), and Probe answers
// the bordered system for a tentative extra link.
//
// Probe works in two stages. The pricer scans a (link, channel)'s rate
// levels downward, and most of those probes are rejections. The first
// exact bordered solve of a (link, channel) on a committed pattern
// leaves behind the border's γ-free row sums, and with them the level
// screen (see screen) rejects later levels whose bordered solution
// provably leaves the power box in O(m) instead of O(m²). Levels the
// screen cannot reject run the exact bordered solve, whose arithmetic
// the screen leaves unchanged.
//
// The factorization is unpivoted. For feasible patterns I − F is a
// nonsingular M-matrix (spectral radius of F below one), for which
// unpivoted LU is stable with positive pivots; a probe whose bordered
// pivot falls below the safety threshold falls back to the pivoted
// reference solve instead of guessing. Every accept/reject decision
// applies the same box and SINR verification rules as
// MinPowersAssigned, so the two paths can only disagree on patterns
// whose feasibility margin is at rounding level (≲1e-12 relative —
// below every tolerance in the model).
//
// A ProbeSolver is NOT safe for concurrent use: each pricing call owns
// one (checked out of the pricer's state pool). It is bound to one
// immutable network.
type ProbeSolver struct {
	nw  *Network
	cap int // allocated pattern capacity

	m      int // committed pattern size
	links  []int
	chans  []int
	gammas []float64

	// lu holds the committed factorization in one cap×cap block:
	// U on and above the diagonal, unit-diagonal L strictly below.
	lu []float64
	// g holds the committed raw gain matrix: g[i·cap+j] is the gain of
	// transmitter j into receiver i on i's channel, masked to zero for
	// non-interfering pairs, with g[i·cap+i] the direct gain.
	g []float64
	b []float64 // committed RHS b_i = γ_i·ρ_i/h_i
	z []float64 // forward solve L⁻¹·b of the committed system

	// uncertified is the index of the first committed row whose pivot
	// is not certified positive (a forcePush, or a non-positive pivot),
	// or -1. The level screen's sign argument needs every committed
	// pivot positive, so it stands aside while such a row is committed.
	uncertified int

	// Level-screen memo, valid for one committed pattern: an entry is
	// current iff its stamp equals gen, and Push, Pop and Reset bump
	// gen. Column entries (gCol, y, v: 3m values in the slab, which
	// invalidation empties) are keyed by colKey; the row sums by
	// link·K+channel.
	gen      uint64
	slab     []float64
	colGen   []uint64
	colOff   []int
	slopeGen []uint64 // stamps the lazily solved slope v of a column entry
	sumsGen  []uint64 // stamps the row sums, set by an exact solve
	s1, s2   []float64
	xbarGen  uint64
	xbar     []float64 // committed powers U⁻¹·z

	// Probe scratch, valid between a successful Probe and the matching
	// Push (Push adopts them instead of recomputing). y and gCol are
	// views into the memo entry of the probed (link, channel).
	y, w, x    []float64 // bordered column/row solves and the power vector
	gRow, gCol []float64 // raw gains committed→new and new→committed
	ck         int       // colKey of the border in the scratch
	pendLink   int
	pendChan   int
	pendGamma  float64
	pendB      float64
	pendU      float64
	pendZ      float64
	pendOK     bool

	exact int // exact bordered solves run (benchmark telemetry)
}

// NewProbeSolver returns an empty solver for patterns of at most
// capacity links over the given immutable network.
func NewProbeSolver(nw *Network, capacity int) *ProbeSolver {
	if capacity < 1 {
		capacity = 1
	}
	keys := nw.NumLinks() * nw.NumChannels
	return &ProbeSolver{
		nw:          nw,
		cap:         capacity,
		links:       make([]int, 0, capacity),
		chans:       make([]int, 0, capacity),
		gammas:      make([]float64, 0, capacity),
		lu:          make([]float64, capacity*capacity),
		g:           make([]float64, capacity*capacity),
		b:           make([]float64, 0, capacity),
		z:           make([]float64, 0, capacity),
		uncertified: -1,
		gen:         1,
		colGen:      make([]uint64, keys),
		colOff:      make([]int, keys),
		slopeGen:    make([]uint64, keys),
		sumsGen:     make([]uint64, keys),
		s1:          make([]float64, keys),
		s2:          make([]float64, keys),
		xbar:        make([]float64, capacity),
		w:           make([]float64, capacity),
		x:           make([]float64, capacity),
		gRow:        make([]float64, capacity),
	}
}

// Reset clears the committed pattern (the factors are truncated, not
// reallocated), ready for a fresh search.
func (s *ProbeSolver) Reset() {
	s.m = 0
	s.links = s.links[:0]
	s.chans = s.chans[:0]
	s.gammas = s.gammas[:0]
	s.b = s.b[:0]
	s.z = s.z[:0]
	s.uncertified = -1
	s.invalidate()
	s.pendOK = false
}

// Depth returns the committed pattern size.
func (s *ProbeSolver) Depth() int { return s.m }

// Cap returns the solver's pattern capacity.
func (s *ProbeSolver) Cap() int { return s.cap }

// Network returns the network the solver is bound to.
func (s *ProbeSolver) Network() *Network { return s.nw }

// interferes reports whether transmitter tx disturbs a victim on
// channel vk when transmitting on channel tk, under the network's
// interference model.
func (s *ProbeSolver) interferes(tk, vk int) bool {
	return s.nw.Interference != PerChannel || tk == vk
}

// colKey is the memo key of the bordered column of (link, k). Under
// PerChannel masking the column depends on the channel; otherwise all
// of a link's channels share one column.
func (s *ProbeSolver) colKey(link, k int) int {
	if s.nw.Interference == PerChannel {
		return link*s.nw.NumChannels + k
	}
	return link * s.nw.NumChannels
}

// border points the probe scratch at the memoized bordered column of
// (link, k) for the committed pattern, computing it when stale: gCol,
// the gains of the new transmitter into the committed receivers, and
// the column solve y = L⁻¹c. The slope v = U⁻¹y is left to slope.
func (s *ProbeSolver) border(link, k int) {
	m, c := s.m, s.cap
	ck := s.colKey(link, k)
	if s.colGen[ck] != s.gen {
		// Entry layout: gCol, y, and room for the slope v.
		s.colGen[ck], s.colOff[ck] = s.gen, s.alloc(3*m)
		e := s.slab[s.colOff[ck]:]
		gCol, y := e[:m], e[m:2*m]
		// c_j lives in row j: scaled by row j's −γ_j/h_j. Forward
		// solve y ← L⁻¹c.
		cross := s.nw.Gains.Cross
		for j := 0; j < m; j++ {
			lj, kj := s.links[j], s.chans[j]
			var gij float64 // new→row j
			if s.interferes(k, kj) {
				gij = cross[link][lj][kj]
			}
			gCol[j] = gij
			y[j] = -s.gammas[j] * gij / s.g[j*c+j]
		}
		for i := 0; i < m; i++ {
			v := y[i]
			row := s.lu[i*c:]
			for j := 0; j < i; j++ {
				v -= row[j] * y[j]
			}
			y[i] = v
		}
	}
	e := s.slab[s.colOff[ck]:]
	s.ck, s.gCol, s.y = ck, e[:m], e[m:2*m]
}

// gatherRow fills gRow with the gains of the committed transmitters
// into the receiver of (link, k).
func (s *ProbeSolver) gatherRow(link, k int) {
	cross := s.nw.Gains.Cross
	for j := 0; j < s.m; j++ {
		lj, kj := s.links[j], s.chans[j]
		var gji float64 // column j→new
		if s.interferes(kj, k) {
			gji = cross[lj][link][k]
		}
		s.gRow[j] = gji
	}
}

// alloc reserves n values at the end of the memo slab and returns
// their offset. Growing the slab moves it: views are taken afterwards.
func (s *ProbeSolver) alloc(n int) int {
	off := len(s.slab)
	if cap(s.slab)-off < n {
		s.slab = append(make([]float64, 0, 2*cap(s.slab)+n), s.slab...)
	}
	s.slab = s.slab[:off+n]
	return off
}

// slope returns v = U⁻¹y for the border set up by border, computing it
// on first use for this pattern.
func (s *ProbeSolver) slope() []float64 {
	m := s.m
	v := s.slab[s.colOff[s.ck]+2*m : s.colOff[s.ck]+3*m]
	if s.slopeGen[s.ck] != s.gen {
		s.slopeGen[s.ck] = s.gen
		s.backSolve(v, s.y)
	}
	return v
}

// invalidate retires every memo entry after the committed pattern
// changed.
func (s *ProbeSolver) invalidate() {
	s.gen++
	s.slab = s.slab[:0]
}

// backSolve writes U⁻¹·rhs into dst (both of length m).
func (s *ProbeSolver) backSolve(dst, rhs []float64) {
	for i := len(dst) - 1; i >= 0; i-- {
		v := rhs[i]
		row := s.lu[i*s.cap:]
		for j := i + 1; j < len(dst); j++ {
			v -= row[j] * dst[j]
		}
		dst[i] = v / row[i]
	}
}

// bordered completes the exact bordered factorization at threshold
// gamma from the column set up by border and the row gathered by
// gatherRow: w ← r·U⁻¹ into the scratch, the pivot u = 1 − w·y, and
// the new forward-solve entry zNew = bNew − w·z. It also returns the
// sums w·y and w·z, which give the level screen its γ-free row sums
// s1 = w·y/γ and s2 = w·z/γ.
func (s *ProbeSolver) bordered(gamma, h, bNew float64) (u, zNew, wy, wz float64) {
	m := s.m
	u = 1
	for j := 0; j < m; j++ {
		v := -gamma * s.gRow[j] / h
		for i := 0; i < j; i++ {
			v -= s.w[i] * s.lu[i*s.cap+j]
		}
		v /= s.lu[j*s.cap+j]
		s.w[j] = v
		u -= v * s.y[j]
		wy += v * s.y[j]
	}
	zNew = bNew
	for i := 0; i < m; i++ {
		zNew -= s.w[i] * s.z[i]
		wz += s.w[i] * s.z[i]
	}
	return u, zNew, wy, wz
}

// Probe tests whether the committed pattern extended by link on
// channel k at SINR threshold gamma admits powers within [0, PMax].
// The committed factorization is untouched; a subsequent
// Push(link, k, gamma) commits the extension in O(m²) by adopting the
// probe's bordered solves.
func (s *ProbeSolver) Probe(link, k int, gamma float64) bool {
	s.pendOK = false
	nw := s.nw
	h := nw.Gains.Direct[link][k]
	if h <= 0 {
		return false // no direct gain: threshold unreachable
	}
	bNew := gamma * nw.Noise[link] / h
	if bNew > nw.PMax*(1+1e-9) {
		return false // even interference-free power exceeds the cap
	}
	if s.m >= s.cap {
		return false // capacity exhausted (callers size for the worst case)
	}
	s.border(link, k)
	rk := link*nw.NumChannels + k
	if s.uncertified < 0 && s.sumsGen[rk] == s.gen && s.screen(rk, gamma, nw.Noise[link]/h) {
		return false
	}
	return s.probeExact(link, k, rk, gamma, h, bNew)
}

// screen reports whether threshold gamma is certainly infeasible for
// the bordered pattern of the column set up by border and the row sums
// of key rk, in O(m) and without touching the probe scratch.
//
// The border row is linear in γ (w = γ·w̃), so with the row sums
// s1 = w̃·y and s2 = w̃·z — any exact solve's w·y and w·z divided by
// its γ — the bordered quantities are closed-form in γ:
//
//	u = 1 − γ·s1,   zNew = γ·(ρ/h − s2),   p = zNew/u,   x = x̄ − p·v
//
// with x̄ = U⁻¹z the committed powers and v = U⁻¹y. Every committed
// pivot being positive certifies I − F as a nonsingular M-matrix, so
// L⁻¹ and U⁻¹ are entrywise non-negative and, from non-negative gains,
// x̄ ≥ 0 and y, v, w̃ ≤ 0: zNew > 0, u ≤ 0 means infeasible, and the
// powers are affine and increasing in p. The same sign pattern means
// none of these sums cancels, so each agrees with the exact path's
// arithmetic to a relative error of a few m·ε — apart from u, which is
// a difference and is only trusted when |u| ≥ 1e-6. The box limits
// are widened by that error bound, so the screen rejects only probes
// the exact path rejects; the |u| < 1e-6 band, including the exact
// path's |u| < 1e-9 reference fallback, is left to the exact path.
func (s *ProbeSolver) screen(rk int, gamma, rhoOverH float64) bool {
	u := 1 - gamma*s.s1[rk]
	au := math.Abs(u)
	if au < 1e-6 {
		return false
	}
	p := gamma * (rhoOverH - s.s2[rk]) / u
	slack := 1 + 1e-9 + float64(16*(s.m+2))*0x1p-53*(1+1/au)
	hi := s.nw.PMax * (1 + 1e-7) * slack
	if p < -1e-9*slack || p > hi {
		return true
	}
	if s.xbarGen != s.gen {
		s.xbarGen = s.gen
		s.backSolve(s.xbar[:s.m], s.z)
	}
	v := s.slope()
	for i, xb := range s.xbar[:s.m] {
		if xb-p*v[i] > hi {
			return true
		}
	}
	return false
}

// probeExact runs the exact bordered solve at gamma on the column set
// up by border, with the box and SINR verification of the reference
// solve, and records the row sums of key rk for the level screen.
func (s *ProbeSolver) probeExact(link, k, rk int, gamma, h, bNew float64) bool {
	s.exact++
	nw := s.nw
	m := s.m
	s.gatherRow(link, k)
	u, zNew, wy, wz := s.bordered(gamma, h, bNew)
	if s.sumsGen[rk] != s.gen && gamma > 0 {
		s.sumsGen[rk] = s.gen
		s.s1[rk], s.s2[rk] = wy/gamma, wz/gamma
	}
	if math.Abs(u) < 1e-9 {
		// Near-singular border: defer to the pivoted reference solve
		// rather than dividing by noise. (For genuinely singular systems
		// the reference declares infeasible, matching the old behavior.)
		return s.probeReference(link, k, gamma)
	}

	// Solve the bordered system: z is cached for the committed rows, so
	// only the last entry and the back substitution remain.
	p := zNew / u
	if p < -1e-9 || p > nw.PMax*(1+1e-7) {
		return false
	}
	for i := m - 1; i >= 0; i-- {
		v := s.z[i] - s.y[i]*p
		row := s.lu[i*s.cap:]
		for j := i + 1; j < m; j++ {
			v -= row[j] * s.x[j]
		}
		v /= row[i]
		if v < -1e-9 || v > nw.PMax*(1+1e-7) {
			return false
		}
		s.x[i] = v
	}

	// Clamp and verify the SINR thresholds exactly as the reference
	// solve does: roundoff never certifies a violating vector.
	pc := clamp01(p, nw.PMax)
	for i := 0; i < m; i++ {
		s.x[i] = clamp01(s.x[i], nw.PMax)
	}
	for i := 0; i < m; i++ {
		row := s.g[i*s.cap:]
		signal := row[i] * s.x[i]
		interference := s.gCol[i] * pc
		for j := 0; j < m; j++ {
			if j != i {
				interference += row[j] * s.x[j]
			}
		}
		if signal < s.gammas[i]*(1-1e-6)*(s.noise(i)+interference) {
			return false
		}
	}
	var newInterf float64
	for j := 0; j < m; j++ {
		newInterf += s.gRow[j] * s.x[j]
	}
	if h*pc < gamma*(1-1e-6)*(nw.Noise[link]+newInterf) {
		return false
	}

	s.setPending(link, k, gamma, bNew, u, zNew)
	return true
}

// setPending records the bordered extension the next Push adopts.
func (s *ProbeSolver) setPending(link, k int, gamma, bNew, u, zNew float64) {
	s.pendLink, s.pendChan, s.pendGamma = link, k, gamma
	s.pendB, s.pendU, s.pendZ = bNew, u, zNew
	s.pendOK = true
}

// noise returns the receiver noise of committed row i.
func (s *ProbeSolver) noise(i int) float64 { return s.nw.Noise[s.links[i]] }

// clamp01 clips a power into [0, pmax].
func clamp01(p, pmax float64) float64 {
	if p > pmax {
		return pmax
	}
	if p < 0 {
		return 0
	}
	return p
}

// probeReference answers one probe with the pivoted full solve,
// used when the bordered pivot is too small to trust. The pending
// extension stays invalid, so a Push after an accepting answer
// rebuilds the factors.
func (s *ProbeSolver) probeReference(link, k int, gamma float64) bool {
	m := s.m
	active := make([]int, m+1)
	chans := make([]int, m+1)
	gammas := make([]float64, m+1)
	copy(active, s.links)
	copy(chans, s.chans)
	copy(gammas, s.gammas)
	active[m], chans[m], gammas[m] = link, k, gamma
	return s.nw.FeasibleAssigned(active, chans, gammas)
}

// Push commits the most recently probed extension. It must follow a
// Probe(link, k, gamma) that returned true with the same arguments;
// the bordered solves computed by the probe become the new last
// row/column of the factors. If the probe was answered by the
// reference fallback, the factorization is rebuilt from scratch.
func (s *ProbeSolver) Push(link, k int, gamma float64) {
	if !s.pendOK || s.pendLink != link || s.pendChan != k || s.pendGamma != gamma {
		s.pushRebuild(link, k, gamma)
		return
	}
	m := s.m
	row := s.lu[m*s.cap:]
	grow := s.g[m*s.cap:]
	for j := 0; j < m; j++ {
		row[j] = s.w[j]            // L entries of the new row
		s.lu[j*s.cap+m] = s.y[j]   // U entries of the new column
		grow[j] = s.gRow[j]        // raw gains committed→new receiver
		s.g[j*s.cap+m] = s.gCol[j] // raw gains new→committed receivers
	}
	row[m] = s.pendU
	grow[m] = s.nw.Gains.Direct[link][k]
	if s.pendU <= 0 && s.uncertified < 0 {
		s.uncertified = m
	}
	s.links = append(s.links, link)
	s.chans = append(s.chans, k)
	s.gammas = append(s.gammas, gamma)
	s.b = append(s.b, s.pendB)
	s.z = append(s.z, s.pendZ)
	s.m++
	s.invalidate()
	s.pendOK = false
}

// pushRebuild recommits the whole pattern plus the new link from
// scratch (the rare path after a reference-fallback probe).
func (s *ProbeSolver) pushRebuild(link, k int, gamma float64) {
	links := append(append([]int(nil), s.links...), link)
	chans := append(append([]int(nil), s.chans...), k)
	gammas := append(append([]float64(nil), s.gammas...), gamma)
	s.Reset()
	for i := range links {
		if s.Probe(links[i], chans[i], gammas[i]) && s.pendOK {
			s.Push(links[i], chans[i], gammas[i])
			continue
		}
		// The committed pattern was verified feasible by the reference;
		// a bordered refusal (or a reference answer) here can only be the
		// near-singular guard. Force the factors in regardless: the
		// verification of future probes still protects correctness.
		s.forcePush(links[i], chans[i], gammas[i])
	}
}

// forcePush installs a row/column whose bordered pivot was below the
// safety threshold, without the feasibility checks. Future probes on
// top of a forced pattern answer through the exact path (the level
// screen's sign argument no longer holds) and fall back to the
// reference when the factors are too degenerate, so feasibility
// verdicts remain safe.
func (s *ProbeSolver) forcePush(link, k int, gamma float64) {
	h := s.nw.Gains.Direct[link][k]
	bNew := gamma * s.nw.Noise[link] / h
	s.border(link, k)
	s.gatherRow(link, k)
	u, zNew, _, _ := s.bordered(gamma, h, bNew)
	s.setPending(link, k, gamma, bNew, u, zNew)
	if s.uncertified < 0 {
		s.uncertified = s.m
	}
	s.Push(link, k, gamma)
}

// PushCommitted commits a known-feasible extension, re-probing first
// when it is not the pending one (callers that probe several
// alternatives before choosing use this to commit the winner).
func (s *ProbeSolver) PushCommitted(link, k int, gamma float64) {
	if !s.pendOK || s.pendLink != link || s.pendChan != k || s.pendGamma != gamma {
		s.Probe(link, k, gamma)
	}
	s.Push(link, k, gamma)
}

// Pop removes the most recently committed link. The factors of the
// remaining pattern are the untouched leading block, so this is O(1).
func (s *ProbeSolver) Pop() {
	if s.m == 0 {
		return
	}
	s.m--
	s.links = s.links[:s.m]
	s.chans = s.chans[:s.m]
	s.gammas = s.gammas[:s.m]
	s.b = s.b[:s.m]
	s.z = s.z[:s.m]
	if s.uncertified >= s.m {
		s.uncertified = -1
	}
	s.invalidate()
	s.pendOK = false
}
