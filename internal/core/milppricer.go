package core

import (
	"context"
	"fmt"

	"mmwave/internal/cg"
	"mmwave/internal/milp"
	"mmwave/internal/netmodel"
	"mmwave/internal/schedule"

	lppkg "mmwave/internal/lp"
)

// MILPPricer solves the pricing sub-problem as the literal
// mixed-integer program of eqs. (27)–(33), using the generic branch
// and bound of internal/milp. It exists to cross-validate the fast
// combinatorial BranchBoundPricer and to demonstrate the paper's
// original formulation; it is practical only for small instances.
//
// The formulation adapts to the network's interference model:
//
//   - netmodel.Global — the paper's printed formulation: one power
//     variable P_l per link, and constraint (28) charges every other
//     link's power as interference on every channel.
//   - netmodel.PerChannel — a physical refinement: per-(link, channel)
//     power variables P_l^k coupled to the activation binaries
//     (P_l^k ≤ Pmax·Σ_q x_l^{q,k}), so a link transmitting on channel
//     k contributes no interference on other channels.
//
// Both variants are cross-validated against the combinatorial
// BranchBoundPricer under the matching model.
type MILPPricer struct {
	// MaxNodes caps branch-and-bound nodes per pricing call; zero
	// means the milp package default.
	MaxNodes int

	// lastBasis is the previous call's root-relaxation basis. Across
	// column-generation iterations only the duals (objective
	// coefficients) change, so the old root basis stays primal feasible
	// and the next root relaxation skips phase 1 entirely. The basis is
	// validated against the current problem by the LP layer, which
	// silently falls back to a cold start if the instance changed shape
	// or feasibility — correctness never depends on it. The cache makes
	// the pricer stateful: one MILPPricer must not be shared between
	// concurrent solves.
	lastBasis []lppkg.BasisVar
	lastShape [2]int // (vars, rows) the cached basis belongs to
}

var _ cg.ContextPricer = (*MILPPricer)(nil)

// String implements Pricer.
func (p *MILPPricer) String() string { return "milp" }

// Price implements Pricer.
func (p *MILPPricer) Price(nw *netmodel.Network, lambda [][]float64) (*cg.PriceResult, error) {
	return p.price(nil, nw, lambda)
}

// PriceContext implements ContextPricer: the branch and bound is
// canceled mid-search when ctx expires, returning the incumbent found
// so far (possibly none) with the valid best-first dual bound.
func (p *MILPPricer) PriceContext(ctx context.Context, nw *netmodel.Network, lambda [][]float64) (*cg.PriceResult, error) {
	return p.price(ctx.Done(), nw, lambda)
}

func (p *MILPPricer) price(cancel <-chan struct{}, nw *netmodel.Network, lambda [][]float64) (*cg.PriceResult, error) {
	L := nw.NumLinks()
	K := nw.NumChannels
	Q := nw.Rates.Levels()
	if err := checkDuals(nw, lambda); err != nil {
		return nil, err
	}
	nc := len(lambda)
	if nw.MultiChannel {
		// The literal eqs. (30)–(31) hard-code single-channel access;
		// the multi-channel extension is priced by BranchBoundPricer
		// and cross-validated by brute force in the tests.
		return nil, fmt.Errorf("core: milp pricer does not support the multi-channel extension")
	}

	// Variable layout: powers first, then one activation-binary block
	// per traffic class in priority order (HP then LP in the classic
	// case). Under the global model there is one power per link (the
	// paper's P_l); under the per-channel model one per (link, channel).
	global := nw.Interference == netmodel.Global
	nP := L * K
	if global {
		nP = L
	}
	nX := L * K * Q
	pIdx := func(l, k int) int {
		if global {
			return l
		}
		return l*K + k
	}
	xIdx := func(c, l, k, q int) int {
		return nP + c*nX + (l*K+k)*Q + q
	}
	nVars := nP + nc*nX

	// Objective: maximize Σ λ·u·x  →  minimize the negation.
	costs := make([]float64, nVars)
	for c := 0; c < nc; c++ {
		for l := 0; l < L; l++ {
			for k := 0; k < K; k++ {
				for q := 0; q < Q; q++ {
					costs[xIdx(c, l, k, q)] = -lambda[c][l] * nw.Rates.Rates[q]
				}
			}
		}
	}
	base := lppkg.NewProblem(costs)

	// Big-M SINR rows (eq. 26/28/29), one per (class, l, k, q):
	//   γ^q Σ_{l'≠l} H_{l'l}^k P_{l'}^k − H_l^k P_l^k + M·x ≤ M − γ^q·ρ_l
	// with M = γ^q(ρ_l + Σ_{l'≠l} H_{l'l}^k·Pmax).
	for c := 0; c < nc; c++ {
		for l := 0; l < L; l++ {
			for k := 0; k < K; k++ {
				for q := 0; q < Q; q++ {
					gamma := nw.Rates.Gammas[q]
					bigM := gamma * nw.Noise[l]
					for lp := 0; lp < L; lp++ {
						if lp != l {
							bigM += gamma * nw.Gains.Cross[lp][l][k] * nw.PMax
						}
					}
					row := make([]float64, nVars)
					for lp := 0; lp < L; lp++ {
						if lp == l {
							continue
						}
						row[pIdx(lp, k)] = gamma * nw.Gains.Cross[lp][l][k]
					}
					row[pIdx(l, k)] = -nw.Gains.Direct[l][k]
					row[xIdx(c, l, k, q)] = bigM
					base.AddRow(row, lppkg.LE, bigM-gamma*nw.Noise[l])
				}
			}
		}
	}

	// Eq. 30: each link transmits at most one (class, channel, level).
	for l := 0; l < L; l++ {
		row := make([]float64, nVars)
		for c := 0; c < nc; c++ {
			for k := 0; k < K; k++ {
				for q := 0; q < Q; q++ {
					row[xIdx(c, l, k, q)] = 1
				}
			}
		}
		base.AddRow(row, lppkg.LE, 1)
	}

	// Eq. 31 (per node): at most one incident active link (half-duplex).
	nodeLinks := make(map[int][]int)
	for l, lk := range nw.Links {
		nodeLinks[lk.TXNode] = append(nodeLinks[lk.TXNode], l)
		nodeLinks[lk.RXNode] = append(nodeLinks[lk.RXNode], l)
	}
	for _, links := range nodeLinks {
		if len(links) < 2 {
			continue
		}
		row := make([]float64, nVars)
		for _, l := range links {
			for c := 0; c < nc; c++ {
				for k := 0; k < K; k++ {
					for q := 0; q < Q; q++ {
						row[xIdx(c, l, k, q)] = 1
					}
				}
			}
		}
		base.AddRow(row, lppkg.LE, 1)
	}

	// Power-activation coupling. Per-channel model:
	// P_l^k ≤ Pmax·Σ_{q,c} x_l^{q,k}. Global model (single P_l):
	// P_l ≤ Pmax·Σ_{k,q,c} x_l^{q,k} — idle links radiate nothing.
	if global {
		for l := 0; l < L; l++ {
			row := make([]float64, nVars)
			row[pIdx(l, 0)] = 1
			for c := 0; c < nc; c++ {
				for k := 0; k < K; k++ {
					for q := 0; q < Q; q++ {
						row[xIdx(c, l, k, q)] = -nw.PMax
					}
				}
			}
			base.AddRow(row, lppkg.LE, 0)
		}
	} else {
		for l := 0; l < L; l++ {
			for k := 0; k < K; k++ {
				row := make([]float64, nVars)
				row[pIdx(l, k)] = 1
				for c := 0; c < nc; c++ {
					for q := 0; q < Q; q++ {
						row[xIdx(c, l, k, q)] = -nw.PMax
					}
				}
				base.AddRow(row, lppkg.LE, 0)
			}
		}
	}

	prob := milp.NewProblem(base)
	for j := 0; j < nP; j++ {
		prob.SetUpper(j, nw.PMax)
	}
	for c := 0; c < nc; c++ {
		for l := 0; l < L; l++ {
			for k := 0; k < K; k++ {
				for q := 0; q < Q; q++ {
					prob.SetBinary(xIdx(c, l, k, q))
				}
			}
		}
	}

	shape := [2]int{base.NumVars(), base.NumRows()}
	opt := milp.Options{MaxNodes: p.MaxNodes, Cancel: cancel}
	if p.lastBasis != nil && p.lastShape == shape {
		opt.LPOpts.WarmBasis = p.lastBasis
	}
	sol, err := milp.SolveWith(prob, opt)
	if err != nil {
		return nil, fmt.Errorf("core: milp pricer: %w", err)
	}
	if sol.RootBasis != nil {
		p.lastBasis = sol.RootBasis
		p.lastShape = shape
	}
	switch sol.Status {
	case milp.StatusOptimal, milp.StatusNodeLimit, milp.StatusCanceled:
	default:
		return nil, fmt.Errorf("core: milp pricer ended with status %v", sol.Status)
	}

	res := &cg.PriceResult{
		Exact:      sol.Status == milp.StatusOptimal,
		RelaxValue: -sol.Bound, // lower bound of min → upper bound of Ψ
		Nodes:      sol.Nodes,
		// The MILP's unit of real work is the LP relaxation solve, the
		// closest analogue of the combinatorial pricer's probe.
		Probes: sol.LPSolves,
	}
	if !sol.HasIncumbent {
		return res, nil
	}
	res.Value = -sol.Objective

	// Decode the activation pattern and refit minimal powers over the
	// whole assignment (model-aware).
	var active, chans, levels []int
	var layers []schedule.Layer
	for l := 0; l < L; l++ {
		for k := 0; k < K; k++ {
			for q := 0; q < Q; q++ {
				for c := 0; c < nc; c++ {
					if sol.X[xIdx(c, l, k, q)] > 0.5 {
						active = append(active, l)
						chans = append(chans, k)
						levels = append(levels, q)
						layers = append(layers, schedule.ClassLayer(c))
					}
				}
			}
		}
	}
	if len(active) == 0 {
		return res, nil
	}
	gammas := make([]float64, len(active))
	for i := range active {
		gammas[i] = nw.Rates.Gammas[levels[i]]
	}
	powers, ok := nw.MinPowersAssigned(active, chans, gammas)
	if !ok {
		// Fall back to the MILP's own power values.
		powers = make([]float64, len(active))
		for i, l := range active {
			powers[i] = sol.X[pIdx(l, chans[i])]
		}
	}
	var out schedule.Schedule
	for i := range active {
		out.Assignments = append(out.Assignments, schedule.Assignment{
			Link: active[i], Channel: chans[i], Level: levels[i], Layer: layers[i], Power: powers[i],
		})
	}
	out.Normalize()
	res.Schedule = &out
	return res, nil
}
