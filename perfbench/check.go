package main

import (
	"fmt"
	"math"

	"mmwave/internal/core"
	"mmwave/internal/netmodel"
	"mmwave/internal/video"
)

// checkPlan verifies a plan against the network it was solved on: every
// column passes schedule.Validate, air times are non-negative and sum
// to the objective, and the planned bits cover each link's demand per
// traffic class. Links in skip (deferred by the coordinator as
// unservable) are exempt from the cover check.
func checkPlan(nw *netmodel.Network, demands []video.Demand, skip map[int]bool, plan core.Plan) error {
	if len(plan.Tau) != len(plan.Schedules) {
		return fmt.Errorf("plan has %d air times for %d schedules", len(plan.Tau), len(plan.Schedules))
	}
	L := nw.NumLinks()
	covered := make([][]float64, nw.TrafficClasses())
	for c := range covered {
		covered[c] = make([]float64, L)
	}
	var sum float64
	for i, s := range plan.Schedules {
		tau := plan.Tau[i]
		if tau < 0 || math.IsNaN(tau) {
			return fmt.Errorf("schedule %d has air time %g", i, tau)
		}
		sum += tau
		if err := s.Validate(nw); err != nil {
			return fmt.Errorf("schedule %d: %w", i, err)
		}
		for c, rates := range s.RateVectorsByClass(nw) {
			for l, r := range rates {
				covered[c][l] += tau * r
			}
		}
	}
	if math.Abs(sum-plan.Objective) > 1e-9*math.Max(1, plan.Objective) {
		return fmt.Errorf("air times sum to %g, objective says %g", sum, plan.Objective)
	}
	for l, d := range demands {
		if skip[l] {
			continue
		}
		for c := 0; c < d.NumClasses(); c++ {
			if want := d.At(c); covered[c][l] < want*(1-1e-6)-1e-3 {
				return fmt.Errorf("link %d class %d: plan carries %g of %g bits", l, c, covered[c][l], want)
			}
		}
	}
	return nil
}

// checkDeferred confirms that every link the coordinator deferred is in
// fact unservable: no channel lets it reach the lowest rate level alone
// at full power.
func checkDeferred(nw *netmodel.Network, links []int) error {
	for _, l := range links {
		if l < 0 || l >= nw.NumLinks() {
			return fmt.Errorf("deferred link %d out of range", l)
		}
		if _, sinr := nw.BestSingleLinkChannel(l); nw.Rates.BestLevel(sinr) >= 0 {
			return fmt.Errorf("link %d deferred although servable", l)
		}
	}
	return nil
}

// checkBound verifies Theorem 1's direction: the proven lower bound
// never exceeds the plan it bounds.
func checkBound(res *core.Result) error {
	if res.LowerBound > res.Plan.Objective*(1+1e-9) {
		return fmt.Errorf("lower bound %g exceeds objective %g", res.LowerBound, res.Plan.Objective)
	}
	return nil
}

func totalBits(demands []video.Demand) float64 {
	var t float64
	for _, d := range demands {
		t += d.Total()
	}
	return t
}
