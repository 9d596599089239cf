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
// the bordered system for a tentative extra link with three triangular
// solves — O(m²) per probe.
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

	// Probe scratch, valid between a successful Probe and the matching
	// Push (Push adopts them instead of recomputing).
	y, w, x    []float64 // bordered column/row solves and the power vector
	gRow, gCol []float64 // raw gains new→committed and committed→new
	pendLink   int
	pendChan   int
	pendGamma  float64
	pendB      float64
	pendU      float64
	pendZ      float64
	pendP      float64
	pendOK     bool
}

// NewProbeSolver returns an empty solver for patterns of at most
// capacity links over the given immutable network.
func NewProbeSolver(nw *Network, capacity int) *ProbeSolver {
	if capacity < 1 {
		capacity = 1
	}
	return &ProbeSolver{
		nw:     nw,
		cap:    capacity,
		links:  make([]int, 0, capacity),
		chans:  make([]int, 0, capacity),
		gammas: make([]float64, 0, capacity),
		lu:     make([]float64, capacity*capacity),
		g:      make([]float64, capacity*capacity),
		b:      make([]float64, 0, capacity),
		z:      make([]float64, 0, capacity),
		y:      make([]float64, capacity),
		w:      make([]float64, capacity),
		x:      make([]float64, capacity),
		gRow:   make([]float64, capacity),
		gCol:   make([]float64, capacity),
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

// Probe tests whether the committed pattern extended by link on
// channel k at SINR threshold gamma admits powers within [0, PMax].
// The committed factorization is untouched; a subsequent
// Push(link, k, gamma) commits the extension in O(m²) by adopting the
// probe's bordered solves.
func (s *ProbeSolver) Probe(link, k int, gamma float64) bool {
	s.pendOK = false
	nw := s.nw
	m := s.m
	h := nw.Gains.Direct[link][k]
	if h <= 0 {
		return false // no direct gain: threshold unreachable
	}
	bNew := gamma * nw.Noise[link] / h
	if bNew > nw.PMax*(1+1e-9) {
		return false // even interference-free power exceeds the cap
	}
	if m >= s.cap {
		return false // capacity exhausted (callers size for the worst case)
	}

	// Border column c (new variable in committed rows), border row r
	// (committed variables in the new row), and the raw gains both ways
	// for the SINR verification.
	cross := nw.Gains.Cross
	for j := 0; j < m; j++ {
		lj, kj := s.links[j], s.chans[j]
		var gij, gji float64 // new→row j, column j→new
		if s.interferes(k, kj) {
			gij = cross[link][lj][kj]
		}
		if s.interferes(kj, k) {
			gji = cross[lj][link][k]
		}
		s.gCol[j] = gij
		s.gRow[j] = gji
		// c_j lives in row j: scaled by row j's −γ_j/h_j.
		s.y[j] = -s.gammas[j] * gij / s.g[j*s.cap+j]
		s.w[j] = -gamma * gji / h
	}

	// Bordered factors: y ← L⁻¹c (forward), w ← r·U⁻¹ (forward on the
	// transpose), pivot u = 1 − w·y.
	for i := 0; i < m; i++ {
		v := s.y[i]
		row := s.lu[i*s.cap:]
		for j := 0; j < i; j++ {
			v -= row[j] * s.y[j]
		}
		s.y[i] = v
	}
	var u float64 = 1
	for j := 0; j < m; j++ {
		v := s.w[j]
		for i := 0; i < j; i++ {
			v -= s.w[i] * s.lu[i*s.cap+j]
		}
		v /= s.lu[j*s.cap+j]
		s.w[j] = v
		u -= v * s.y[j]
	}
	if math.Abs(u) < 1e-9 {
		// Near-singular border: defer to the pivoted reference solve
		// rather than dividing by noise. (For genuinely singular systems
		// the reference declares infeasible, matching the old behavior.)
		return s.probeReference(link, k, gamma)
	}

	// Solve the bordered system: z is cached for the committed rows, so
	// only the last entry and the back substitution remain.
	zNew := bNew
	for i := 0; i < m; i++ {
		zNew -= s.w[i] * s.z[i]
	}
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

	s.pendLink, s.pendChan, s.pendGamma = link, k, gamma
	s.pendB, s.pendU, s.pendZ, s.pendP = bNew, u, zNew, pc
	s.pendOK = true
	return true
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
// used when the bordered pivot is too small to trust.
func (s *ProbeSolver) probeReference(link, k int, gamma float64) bool {
	m := s.m
	active := make([]int, m+1)
	chans := make([]int, m+1)
	gammas := make([]float64, m+1)
	copy(active, s.links)
	copy(chans, s.chans)
	copy(gammas, s.gammas)
	active[m], chans[m], gammas[m] = link, k, gamma
	ok := s.nw.FeasibleAssigned(active, chans, gammas)
	if ok {
		// A push after this probe must rebuild the factors: mark the
		// pending state invalid so Push takes the slow path.
		s.pendOK = false
		s.pendLink, s.pendChan, s.pendGamma = link, k, gamma
	}
	return ok
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
	s.links = append(s.links, link)
	s.chans = append(s.chans, k)
	s.gammas = append(s.gammas, gamma)
	s.b = append(s.b, s.pendB)
	s.z = append(s.z, s.pendZ)
	s.m++
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
		if !s.Probe(links[i], chans[i], gammas[i]) {
			// The committed pattern was verified feasible by the
			// reference; a bordered refusal here can only be the
			// near-singular guard. Force the factors in regardless: the
			// verification of future probes still protects correctness.
			s.forcePush(links[i], chans[i], gammas[i])
			continue
		}
		s.Push(links[i], chans[i], gammas[i])
	}
}

// forcePush installs a row/column whose bordered pivot was below the
// safety threshold. Future probes on top of a forced pattern answer
// through the reference fallback when the factors are too degenerate,
// so feasibility verdicts remain safe.
func (s *ProbeSolver) forcePush(link, k int, gamma float64) {
	// Recompute the bordered quantities without the feasibility checks.
	nw := s.nw
	m := s.m
	h := nw.Gains.Direct[link][k]
	cross := nw.Gains.Cross
	for j := 0; j < m; j++ {
		lj, kj := s.links[j], s.chans[j]
		var gij, gji float64
		if s.interferes(k, kj) {
			gij = cross[link][lj][kj]
		}
		if s.interferes(kj, k) {
			gji = cross[lj][link][k]
		}
		s.gCol[j] = gij
		s.gRow[j] = gji
		s.y[j] = -s.gammas[j] * gij / s.g[j*s.cap+j]
		s.w[j] = -gamma * gji / h
	}
	for i := 0; i < m; i++ {
		v := s.y[i]
		row := s.lu[i*s.cap:]
		for j := 0; j < i; j++ {
			v -= row[j] * s.y[j]
		}
		s.y[i] = v
	}
	var u float64 = 1
	for j := 0; j < m; j++ {
		v := s.w[j]
		for i := 0; i < j; i++ {
			v -= s.w[i] * s.lu[i*s.cap+j]
		}
		v /= s.lu[j*s.cap+j]
		s.w[j] = v
		u -= v * s.y[j]
	}
	bNew := gamma * nw.Noise[link] / h
	zNew := bNew
	for i := 0; i < m; i++ {
		zNew -= s.w[i] * s.z[i]
	}
	s.pendLink, s.pendChan, s.pendGamma = link, k, gamma
	s.pendB, s.pendU, s.pendZ = bNew, u, zNew
	s.pendOK = true
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
	s.pendOK = false
}
