package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"mmwave/internal/schedule"
	"mmwave/internal/video"
)

// TestRebaseProperties is the acceptance property for carrying a pool
// across a CSI update, over 60 seeded instances: solve, jitter the
// direct gains of random links by ±20% (and in every third instance
// fade one link by 20 dB, which makes its pooled activations
// infeasible and may make it unservable), rebase, and re-solve with the
// unservable links' demand deferred. The rebased pool validates under
// the new gains, the rebased plan validates and covers the demand,
// LowerBound ≤ Objective, and whenever both the rebased and a cold
// solve of the new instance converge with exact pricing their
// objectives agree to 1e-6 relative.
func TestRebaseProperties(t *testing.T) {
	ctx := context.Background()
	infeasible, compared := 0, 0
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(700 + seed))
		nLinks := 4 + int(seed%4)
		nw := servableNetwork(rng, nLinks, 2)
		demands := make([]video.Demand, nLinks)
		for l := range demands {
			demands[l] = video.TwoClass(2e6+6e6*rng.Float64(), 1e6+8e6*rng.Float64())
		}
		s, err := NewSolver(nw, demands, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Solve(ctx); err != nil {
			t.Fatal(err)
		}
		seedCount := len(schedule.TDMA(nw))
		old := s.Pool()
		oldCols := make([]*schedule.Schedule, 0, old.Len())
		for j := seedCount; j < old.Len(); j++ {
			oldCols = append(oldCols, old.At(j).Clone())
		}

		// The CSI move, applied in place as a channel update would.
		for l := 0; l < nLinks; l++ {
			if rng.Intn(2) == 0 {
				for k := range nw.Gains.Direct[l] {
					nw.Gains.Direct[l][k] *= 0.8 + 0.4*rng.Float64()
				}
			}
		}
		if seed%3 == 0 {
			f := rng.Intn(nLinks)
			for k := range nw.Gains.Direct[f] {
				nw.Gains.Direct[f][k] *= 0.01
			}
		}
		// Every old column whose levels some power vector still meets
		// must be carried, unless a re-derived seed duplicates it.
		seedKeys := map[string]bool{}
		for _, sc := range schedule.TDMA(nw) {
			seedKeys[sc.Key()] = true
		}
		wantCarried := 0
		for _, sc := range oldCols {
			var active, chans []int
			var gammas []float64
			for _, a := range sc.Assignments {
				active = append(active, a.Link)
				chans = append(chans, a.Channel)
				gammas = append(gammas, nw.Rates.Gammas[a.Level])
			}
			if _, ok := nw.MinPowersAssigned(active, chans, gammas); !ok {
				infeasible++
			} else if !seedKeys[sc.Key()] {
				wantCarried++
			}
		}
		next := make([]video.Demand, nLinks)
		for l := range next {
			next[l] = demands[l]
			if _, sinr := nw.BestSingleLinkChannel(l); nw.Rates.BestLevel(sinr) < 0 {
				next[l] = video.TwoClass(0, 0)
			}
		}

		carried, dropped, err := s.Rebase(nw)
		if err != nil {
			t.Fatal(err)
		}
		if carried != wantCarried || carried+dropped != len(oldCols) {
			t.Fatalf("seed %d: carried %d, dropped %d of %d non-seed columns; %d can be re-powered",
				seed, carried, dropped, len(oldCols), wantCarried)
		}
		for j := 0; j < s.Pool().Len(); j++ {
			if err := s.Pool().At(j).Validate(nw); err != nil {
				t.Fatalf("seed %d: rebased pool column %d invalid: %v", seed, j, err)
			}
		}
		if err := s.SetDemands(next); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := s.Solve(ctx)
		if err != nil {
			t.Fatalf("seed %d: rebased solve: %v", seed, err)
		}
		if res.Warm {
			t.Errorf("seed %d: rebased solve reused the old basis", seed)
		}
		checkPlanServes(t, "rebased", nw, next, res.Plan)
		if res.LowerBound > res.Plan.Objective*(1+1e-9) {
			t.Errorf("seed %d: lower bound %v above objective %v", seed, res.LowerBound, res.Plan.Objective)
		}

		cs, err := NewSolver(nw, next, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := cs.Solve(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.Converged && cold.Converged {
			compared++
			if d := math.Abs(res.Plan.Objective - cold.Plan.Objective); d > 1e-6*math.Max(cold.Plan.Objective, 1e-12) {
				t.Errorf("seed %d: rebased objective %v, cold %v", seed, res.Plan.Objective, cold.Plan.Objective)
			}
		}
	}
	if infeasible == 0 {
		t.Error("no pooled column became infeasible: the fades exercised nothing")
	}
	if compared < 30 {
		t.Errorf("only %d of 60 instances converged exactly both ways", compared)
	}
	t.Logf("%d pooled columns became infeasible; %d instances compared", infeasible, compared)
}
