package netmodel

import (
	"math"
	"math/rand"
	"testing"

	"mmwave/internal/channel"
)

// randomPattern draws a random feasibility question: a set of distinct
// links (repeats allowed under multiChannel, on distinct channels),
// each with a channel and a threshold from the rate table.
func randomPattern(rng *rand.Rand, nw *Network, maxLen int, multiChannel bool) (links, chans []int, gammas []float64) {
	n := 1 + rng.Intn(maxLen)
	usedPair := map[[2]int]bool{}
	for len(links) < n {
		l := rng.Intn(nw.NumLinks())
		k := rng.Intn(nw.NumChannels)
		if usedPair[[2]int{l, k}] {
			continue
		}
		if !multiChannel {
			dup := false
			for _, lj := range links {
				if lj == l {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
		}
		usedPair[[2]int{l, k}] = true
		links = append(links, l)
		chans = append(chans, k)
		gammas = append(gammas, nw.Rates.Gammas[rng.Intn(nw.Rates.Levels())])
	}
	return
}

// TestFeasibleAssignedMatchesMinPowers checks that the allocation-free
// verdict agrees with the solving API on random patterns.
func TestFeasibleAssignedMatchesMinPowers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, model := range []InterferenceModel{PerChannel, Global} {
		nw := randomNetwork(rng, 10, 3)
		nw.Interference = model
		for trial := 0; trial < 500; trial++ {
			links, chans, gammas := randomPattern(rng, nw, 6, false)
			_, want := nw.MinPowersAssigned(links, chans, gammas)
			if got := nw.FeasibleAssigned(links, chans, gammas); got != want {
				t.Fatalf("model %v trial %d: FeasibleAssigned = %v, MinPowersAssigned ok = %v (links %v chans %v gammas %v)",
					model, trial, got, want, links, chans, gammas)
			}
		}
	}
}

// TestProbeSolverMatchesReference walks the ProbeSolver through random
// probe/push/pop sequences and checks every Probe verdict against the
// full pivoted solve of the same pattern.
func TestProbeSolverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		name  string
		model InterferenceModel
		multi bool
	}{
		{"global", Global, false},
		{"per-channel", PerChannel, false},
		{"global/multi-channel", Global, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for inst := 0; inst < 8; inst++ {
				nw := randomNetwork(rng, 12, 3)
				nw.Interference = tc.model
				nw.MultiChannel = tc.multi
				ps := NewProbeSolver(nw, nw.NumLinks()*nw.NumChannels)
				// committed[i] = {link, chan, gammaIdx} of the solver stack.
				type entry struct {
					l, k int
					g    float64
				}
				var stack []entry
				checkProbe := func(l, k int, g float64) bool {
					refLinks := make([]int, 0, len(stack)+1)
					refChans := make([]int, 0, len(stack)+1)
					refGammas := make([]float64, 0, len(stack)+1)
					for _, e := range stack {
						refLinks = append(refLinks, e.l)
						refChans = append(refChans, e.k)
						refGammas = append(refGammas, e.g)
					}
					refLinks = append(refLinks, l)
					refChans = append(refChans, k)
					refGammas = append(refGammas, g)
					want := nw.FeasibleAssigned(refLinks, refChans, refGammas)
					got := ps.Probe(l, k, g)
					if got != want {
						t.Fatalf("instance %d depth %d: Probe(%d,%d,%g) = %v, reference = %v (stack %v)",
							inst, len(stack), l, k, g, got, want, stack)
					}
					return got
				}
				for step := 0; step < 400; step++ {
					switch {
					case len(stack) > 0 && rng.Intn(3) == 0:
						ps.Pop()
						stack = stack[:len(stack)-1]
					default:
						l := rng.Intn(nw.NumLinks())
						k := rng.Intn(nw.NumChannels)
						g := nw.Rates.Gammas[rng.Intn(nw.Rates.Levels())]
						dup := false
						for _, e := range stack {
							if e.l == l && (e.k == k || !tc.multi) {
								dup = true
								break
							}
						}
						if dup {
							continue
						}
						if checkProbe(l, k, g) && rng.Intn(2) == 0 {
							ps.Push(l, k, g)
							stack = append(stack, entry{l, k, g})
						}
					}
					if ps.Depth() != len(stack) {
						t.Fatalf("depth mismatch: solver %d, reference %d", ps.Depth(), len(stack))
					}
				}
			}
		})
	}
}

// TestProbeSolverReset checks that a reset solver answers like a fresh
// one.
func TestProbeSolverReset(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nw := randomNetwork(rng, 8, 2)
	nw.Interference = Global
	ps := NewProbeSolver(nw, 16)
	if !ps.Probe(0, 0, nw.Rates.Gammas[0]) {
		t.Skip("first probe infeasible on this draw")
	}
	ps.Push(0, 0, nw.Rates.Gammas[0])
	ps.Reset()
	if ps.Depth() != 0 {
		t.Fatalf("Depth after Reset = %d, want 0", ps.Depth())
	}
	want := nw.FeasibleAssigned([]int{1}, []int{1}, []float64{nw.Rates.Gammas[1]})
	if got := ps.Probe(1, 1, nw.Rates.Gammas[1]); got != want {
		t.Fatalf("probe after Reset = %v, want %v", got, want)
	}
}

// mixedScaleNetwork draws a network whose direct and cross gains are
// log-uniform over 1e-6…1e3 and whose noise floors are log-uniform
// down to 1e-12, with rate thresholds from 0.05 to 50: the bordered
// sums then span many orders of magnitude, which is where a screen
// with too little rounding slack would disagree with the exact path.
func mixedScaleNetwork(rng *rand.Rand, nLinks, nChannels int) *Network {
	logU := func(lo, hi float64) float64 { return math.Pow(10, lo+(hi-lo)*rng.Float64()) }
	g := &channel.Gains{
		Direct: make([][]float64, nLinks),
		Cross:  make([][][]float64, nLinks),
	}
	for i := 0; i < nLinks; i++ {
		g.Direct[i] = make([]float64, nChannels)
		g.Cross[i] = make([][]float64, nLinks)
		for k := range g.Direct[i] {
			g.Direct[i][k] = logU(-6, 3)
		}
		for j := range g.Cross[i] {
			g.Cross[i][j] = make([]float64, nChannels)
			if i == j {
				continue
			}
			for k := range g.Cross[i][j] {
				g.Cross[i][j][k] = logU(-6, 3)
			}
		}
	}
	links := make([]Link, nLinks)
	noise := make([]float64, nLinks)
	for i := range links {
		links[i] = Link{TXNode: 2 * i, RXNode: 2*i + 1}
		noise[i] = logU(-12, -1)
	}
	return &Network{
		Links:       links,
		NumChannels: nChannels,
		Gains:       g,
		Noise:       noise,
		PMax:        1,
		Rates:       NewShannonRateTable(200e6, []float64{0.05, 0.2, 0.5, 1, 2, 5, 10, 20, 50}),
		BandwidthHz: 200e6,
	}
}

// screenAndExact runs Probe's two stages separately on the solver's
// current state: whether the level screen rejects, and the verdict of
// the exact bordered path the screen otherwise defers to.
func screenAndExact(s *ProbeSolver, link, k int, gamma float64) (screened, exact bool) {
	nw := s.nw
	h := nw.Gains.Direct[link][k]
	if h <= 0 || gamma*nw.Noise[link]/h > nw.PMax*(1+1e-9) || s.m >= s.cap {
		return false, false // Probe answers before either stage
	}
	s.border(link, k)
	rk := link*nw.NumChannels + k
	screened = s.uncertified < 0 && s.sumsGen[rk] == s.gen && s.screen(rk, gamma, nw.Noise[link]/h)
	return screened, s.probeExact(link, k, rk, gamma, h, gamma*nw.Noise[link]/h)
}

// bandDeltas are the pivots u = 1 − γ·s1 the differential test aims
// at: both sides of the screen's |u| < 1e-6 hand-off and of the exact
// path's |u| < 1e-9 reference fallback.
var bandDeltas = []float64{-2e-6, -1e-6, -3e-7, -1e-9, -2e-10, 0, 2e-10, 1e-9, 5e-9, 3e-7, 9e-7, 1.1e-6, 1e-5}

// edgeFactors place a power at these multiples of PMax: on both sides
// of the exact path's PMax·(1+1e-7) box limit and of PMax itself.
var edgeFactors = []float64{1 - 1e-7, 1, 1 + 3e-8, 1 + 9.9e-8, 1 + 1.01e-7, 1 + 3e-7}

// TestProbeScreenMatchesExact walks ProbeSolvers through random
// push/pop sequences on Table-I and mixed-scale networks under both
// interference models and checks, for every probe, that the level
// screen only rejects what the exact bordered path rejects, and that
// Probe's verdict equals both the exact path's and the pivoted
// reference solve's. Levels are scanned top-down as the pricer scans
// them, and some probes use thresholds chosen to put the bordered
// pivot into the |u| < 1e-6 band.
func TestProbeScreenMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, tc := range []struct {
		name  string
		model InterferenceModel
		mixed bool
	}{
		{"global", Global, false},
		{"per-channel", PerChannel, false},
		{"mixed/global", Global, true},
		{"mixed/per-channel", PerChannel, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var screened, exactRuns, band, edge, accepted, maxDepth int
			for inst := 0; inst < 30; inst++ {
				var nw *Network
				if tc.mixed {
					nw = mixedScaleNetwork(rng, 14, 3)
				} else {
					nw = randomNetwork(rng, 14, 3)
				}
				nw.Interference = tc.model
				ps := NewProbeSolver(nw, nw.NumLinks())
				var links, chans []int
				var gammas []float64
				// check probes (l, k, g); edge probes sit at rounding
				// level on the box limit, where the bordered and pivoted
				// solves may round differently, so they are held to the
				// exact path only.
				check := func(l, k int, g float64, edgeProbe bool) bool {
					before := ps.exact
					got := ps.Probe(l, k, g)
					exactRuns += ps.exact - before
					scr, exact := screenAndExact(ps, l, k, g)
					want := nw.FeasibleAssigned(append(links[:len(links):len(links)], l),
						append(chans[:len(chans):len(chans)], k), append(gammas[:len(gammas):len(gammas)], g))
					if scr && exact {
						t.Fatalf("instance %d depth %d: screen rejected Probe(%d,%d,%g), exact path accepts (pattern %v/%v/%v)",
							inst, ps.Depth(), l, k, g, links, chans, gammas)
					}
					if got != exact || (got != want && !edgeProbe) {
						t.Fatalf("instance %d depth %d: Probe(%d,%d,%g) = %v, exact path %v, reference %v (pattern %v/%v/%v)",
							inst, ps.Depth(), l, k, g, got, exact, want, links, chans, gammas)
					}
					if scr {
						screened++
					}
					if got {
						accepted++
					}
					return got
				}
				inStack := func(l int) bool {
					for _, lj := range links {
						if lj == l {
							return true
						}
					}
					return false
				}
				for step := 0; step < 600; step++ {
					maxDepth = max(maxDepth, ps.Depth())
					if len(links) > 0 && rng.Intn(3) == 0 {
						ps.Pop()
						links, chans, gammas = links[:len(links)-1], chans[:len(chans)-1], gammas[:len(gammas)-1]
						continue
					}
					l, k := rng.Intn(nw.NumLinks()), rng.Intn(nw.NumChannels)
					if inStack(l) {
						continue
					}
					if rng.Intn(4) == 0 && ps.Depth() > 0 {
						// Aim thresholds at the near-singular band and at
						// the power box's upper edge, for the new link and
						// for each committed one. The lowest level's exact
						// solve teaches the solver the row sums.
						check(l, k, nw.Rates.Gammas[0], false)
						ps.border(l, k)
						rk, h := l*nw.NumChannels+k, nw.Gains.Direct[l][k]
						if ps.sumsGen[rk] != ps.gen {
							continue // answered before the exact path
						}
						s1, s2, v := ps.s1[rk], ps.s2[rk], ps.slope()
						if s1 > 0 {
							for _, d := range bandDeltas {
								check(l, k, (1-d)/s1, false)
								band++
							}
						}
						xbar := make([]float64, ps.Depth())
						ps.backSolve(xbar, ps.z)
						for _, f := range edgeFactors {
							targets := []float64{f * nw.PMax}
							for i := range xbar {
								if v[i] < 0 {
									targets = append(targets, (xbar[i]-f*nw.PMax)/v[i])
								}
							}
							for _, p := range targets {
								// Invert p = γ·a/(1 − γ·s1) for γ.
								if den := nw.Noise[l]/h - s2 + p*s1; p > 0 && den > 0 {
									check(l, k, p/den, true)
									edge++
								}
							}
						}
						continue
					}
					for q := nw.Rates.Levels() - 1; q >= 0; q-- {
						g := nw.Rates.Gammas[q]
						if check(l, k, g, false) {
							if rng.Intn(2) == 0 {
								// Probe again so the pending state is this
								// probe's, not the screenAndExact replay's.
								ps.Probe(l, k, g)
								ps.Push(l, k, g)
								links, chans, gammas = append(links, l), append(chans, k), append(gammas, g)
							}
							break
						}
					}
					if ps.Depth() != len(links) {
						t.Fatalf("depth mismatch: solver %d, reference %d", ps.Depth(), len(links))
					}
				}
			}
			t.Logf("%d screened rejections, %d exact solves, %d band and %d edge probes, %d accepted, max depth %d",
				screened, exactRuns, band, edge, accepted, maxDepth)
			if screened == 0 || band == 0 || edge == 0 || accepted == 0 {
				t.Fatalf("walk did not exercise the screen (screened %d, band %d, edge %d, accepted %d)",
					screened, band, edge, accepted)
			}
		})
	}
}

// probeArgs is one Probe/Push argument triple.
type probeArgs struct {
	l, k int
	g    float64
}

// freshVerdicts builds a new solver, commits pattern through
// PushCommitted, and returns its verdicts on probes.
func freshVerdicts(nw *Network, pattern, probes []probeArgs) []bool {
	ps := NewProbeSolver(nw, len(pattern)+1)
	for _, a := range pattern {
		ps.PushCommitted(a.l, a.k, a.g)
	}
	return verdicts(ps, probes)
}

// verdicts probes each triple on the solver's committed pattern.
func verdicts(ps *ProbeSolver, probes []probeArgs) []bool {
	out := make([]bool, len(probes))
	for i, a := range probes {
		out[i] = ps.Probe(a.l, a.k, a.g)
	}
	return out
}

// everyLevel lists every (channel, level) of the given links, levels
// ascending: once the lowest level's exact solve has taught the solver
// a (link, channel)'s row sums, the infeasible top levels are the ones
// the level screen can reject.
func everyLevel(nw *Network, links ...int) []probeArgs {
	var out []probeArgs
	for _, l := range links {
		for k := 0; k < nw.NumChannels; k++ {
			for q := 0; q < nw.Rates.Levels(); q++ {
				out = append(out, probeArgs{l, k, nw.Rates.Gammas[q]})
			}
		}
	}
	return out
}

// TestProbeMemoStaleness checks that the level-screen memo never
// answers for a pattern it was not computed for: after Probe(a),
// Push(a), Pop, Push(b), re-probing a (and every other link at every
// level) must give a fresh solver's verdicts on pattern [b], and the
// same must hold after Reset.
func TestProbeMemoStaleness(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, model := range []InterferenceModel{Global, PerChannel} {
		for inst := 0; inst < 20; inst++ {
			nw := randomNetwork(rng, 6, 2)
			nw.Interference = model
			nw.Rates = NewShannonRateTable(200e6, []float64{0.5, 1, 1.5, 2, 3, 4, 6, 8, 12, 16})
			probes := everyLevel(nw, 0, 1, 2, 3, 4, 5)
			a, b := probeArgs{0, 0, nw.Rates.Gammas[0]}, probeArgs{1, 1, nw.Rates.Gammas[0]}
			if !nw.FeasibleAssigned([]int{a.l}, []int{a.k}, []float64{a.g}) ||
				!nw.FeasibleAssigned([]int{b.l}, []int{b.k}, []float64{b.g}) {
				continue
			}
			ps := NewProbeSolver(nw, 4)
			expect := func(stage string, pattern ...probeArgs) {
				t.Helper()
				got, want := verdicts(ps, probes), freshVerdicts(nw, pattern, probes)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%v instance %d: %s, Probe%v = %v, fresh solver %v",
							model, inst, stage, probes[i], got[i], want[i])
					}
				}
			}
			verdicts(ps, probes) // memo for the empty pattern
			ps.Probe(a.l, a.k, a.g)
			ps.Push(a.l, a.k, a.g)
			verdicts(ps, probes) // memo for [a]
			ps.Pop()
			ps.PushCommitted(b.l, b.k, b.g)
			expect("after Push(a) Pop Push(b)", b)
			ps.Reset()
			expect("after Reset")
			ps.PushCommitted(a.l, a.k, a.g)
			expect("after Reset Push(a)", a)
		}
	}
}

// nearSingularNetwork builds four links on one channel: links 0 and 1
// couple so strongly that, at threshold 1 each, the bordered pivot of
// 1 on top of 0 is 8e-10 — below the exact path's 1e-9 guard — while
// their tiny noise keeps the pair feasible. Links 2 and 3 hear the
// pair faintly and are not heard by it.
func nearSingularNetwork() *Network {
	nw := testNetwork(4, 1, 0)
	f := math.Sqrt(1 - 8e-10)
	x := nw.Gains.Cross
	x[0][1][0], x[1][0][0] = f, f
	x[0][2][0], x[1][2][0], x[0][3][0], x[1][3][0] = 1e-3, 2e-3, 3e-3, 1e-3
	nw.Noise[0], nw.Noise[1] = 1e-12, 1e-12
	nw.Interference = Global
	nw.Rates = NewShannonRateTable(200e6, []float64{0.5, 1, 2, 4, 8, 9.9995, 10.5})
	return nw
}

// TestProbeReferenceFallbackPush covers the rare path where a probe is
// answered by the pivoted reference and then pushed: Push must rebuild
// the factors (forcing the near-singular row in) and terminate, the
// level screen must stand aside while the forced row is committed, and
// the memo must not leak across the rebuild or the Pop that uncovers a
// certified pattern again.
func TestProbeReferenceFallbackPush(t *testing.T) {
	nw := nearSingularNetwork()
	probes := everyLevel(nw, 2, 3)
	ps := NewProbeSolver(nw, 4)
	pair := []probeArgs{{0, 0, 1}, {1, 0, 1}}
	if !ps.Probe(0, 0, 1) {
		t.Fatal("link 0 alone infeasible")
	}
	ps.Push(0, 0, 1)
	verdicts(ps, probes) // memo for [0]
	if !ps.Probe(1, 0, 1) {
		t.Fatal("near-singular pair refused; the reference solve accepts it")
	}
	if ps.pendOK {
		t.Fatal("near-singular probe was answered by the bordered path, want the reference fallback")
	}
	ps.Push(1, 0, 1)
	if ps.Depth() != 2 || ps.uncertified != 1 {
		t.Fatalf("after the rebuild: depth %d, uncertified row %d; want 2, 1", ps.Depth(), ps.uncertified)
	}
	check := func(stage string, pattern []probeArgs) {
		t.Helper()
		before := ps.exact
		got := verdicts(ps, probes)
		if ps.uncertified >= 0 {
			boxed := 0 // probes that pass Probe's interference-free power check
			for _, a := range probes {
				if a.g*nw.Noise[a.l]/nw.Gains.Direct[a.l][a.k] <= nw.PMax {
					boxed++
				}
			}
			if ran := ps.exact - before; ran != boxed {
				t.Fatalf("%s: %d of %d probes ran the exact path with a forced row committed", stage, ran, boxed)
			}
		}
		want := freshVerdicts(nw, pattern, probes)
		var links, chans []int
		var gammas []float64
		for _, a := range pattern {
			links, chans, gammas = append(links, a.l), append(chans, a.k), append(gammas, a.g)
		}
		accepted := 0
		for i, a := range probes {
			ref := nw.FeasibleAssigned(append(links, a.l), append(chans, a.k), append(gammas, a.g))
			if got[i] != want[i] || got[i] != ref {
				t.Fatalf("%s: Probe%v = %v, fresh solver %v, reference %v", stage, a, got[i], want[i], ref)
			}
			if got[i] {
				accepted++
			}
		}
		if accepted == 0 || accepted == len(probes) {
			t.Fatalf("%s: %d of %d probes accepted; the check cannot tell verdicts apart", stage, accepted, len(probes))
		}
	}
	check("after the reference-fallback rebuild", pair)
	ps.Pop()
	if ps.uncertified != -1 {
		t.Fatalf("Pop past the forced row left uncertified = %d", ps.uncertified)
	}
	check("after popping the forced row", pair[:1])
	ps.Reset()
	ps.PushCommitted(1, 0, 1)
	check("after Reset", pair[1:])
}

// BenchmarkProbe times probes in the shape the pricer asks them. At a
// depth-6 committed pattern every (link, channel) outside it is probed
// with its levels in descending order until one is feasible; each scan
// starts by re-committing the pattern's last link, as the DFS does when
// it returns to a node, so the level screen's memo is rebuilt once per
// scan instead of being hit forever. exact/op is the number of exact
// bordered solves per probe. /reference answers the same probe
// sequence with the full pivoted solve.
func BenchmarkProbe(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	nw := randomNetwork(rng, 30, 5)
	nw.Interference = Global
	ps := NewProbeSolver(nw, 32)
	var links, chans []int
	var gammas []float64
	for l := 0; l < nw.NumLinks() && ps.Depth() < 6; l++ {
		// Commit each link at its highest feasible level, as the DFS's
		// first descent does.
		k := l % nw.NumChannels
		for q := nw.Rates.Levels() - 1; q >= 0; q-- {
			if g := nw.Rates.Gammas[q]; ps.Probe(l, k, g) {
				ps.Push(l, k, g)
				links = append(links, l)
				chans = append(chans, k)
				gammas = append(gammas, g)
				break
			}
		}
	}
	if ps.Depth() < 6 {
		b.Skipf("base pattern reached depth %d, want 6", ps.Depth())
	}
	top := len(links) - 1
	var scan []probeArgs
	for l := links[top] + 1; l < nw.NumLinks(); l++ {
		for k := 0; k < nw.NumChannels; k++ {
			for q := nw.Rates.Levels() - 1; q >= 0; q-- {
				scan = append(scan, probeArgs{l, k, nw.Rates.Gammas[q]})
				if ps.Probe(l, k, nw.Rates.Gammas[q]) {
					break
				}
			}
		}
	}
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		before := ps.exact
		for i := 0; i < b.N; i++ {
			j := i % len(scan)
			if j == 0 {
				ps.Pop()
				ps.PushCommitted(links[top], chans[top], gammas[top])
			}
			ps.Probe(scan[j].l, scan[j].k, scan[j].g)
		}
		b.ReportMetric(float64(ps.exact-before)/float64(b.N), "exact/op")
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		linksX := append(links[:len(links):len(links)], 0)
		chansX := append(chans[:len(chans):len(chans)], 0)
		gammasX := append(gammas[:len(gammas):len(gammas)], 0)
		for i := 0; i < b.N; i++ {
			a := scan[i%len(scan)]
			linksX[top+1], chansX[top+1], gammasX[top+1] = a.l, a.k, a.g
			nw.FeasibleAssigned(linksX, chansX, gammasX)
		}
	})
}
