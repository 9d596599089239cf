package experiment

import (
	"context"
	"fmt"

	"mmwave/internal/cg"
	"mmwave/internal/core"
	"mmwave/internal/stats"
	"mmwave/internal/video"
)

// WarmReuseConfig parameterizes the cross-epoch warm-reuse study: one
// instance is re-solved over a sequence of scheduling epochs whose
// demands jitter around the nominal GOP volume (the paper's §III
// update rule — the CSI regime is fixed, only the right-hand sides
// move). Each epoch is solved twice: on a persistent solver that keeps
// the column pool and simplex basis of the previous epoch, and on a
// fresh TDMA-cold solver, so the study isolates exactly what the
// shared cg engine's durable state buys.
type WarmReuseConfig struct {
	Net    Config
	Epochs int
	// DemandJitter is the half-width of the per-epoch uniform demand
	// scale (each epoch draws a factor in [1−j, 1+j] per link). Zero
	// re-solves identical demands every epoch.
	DemandJitter float64
	// GC bounds the persistent solver's pool; the zero value uses the
	// engine default for long-lived solvers (32 columns per link,
	// min 256).
	GC cg.GCPolicy
}

// DefaultWarmReuseConfig returns an 8-epoch study at reduced scale
// with ±30% demand jitter.
func DefaultWarmReuseConfig() WarmReuseConfig {
	cfg := DefaultConfig()
	cfg.NumLinks = 10
	cfg.Seeds = 10
	return WarmReuseConfig{Net: cfg, Epochs: 8, DemandJitter: 0.3}
}

// WarmReuseResult aggregates the study over repetitions. The warm and
// cold summaries cover the same (seed, epoch) cells — every epoch
// after the first — so their means are directly comparable.
type WarmReuseResult struct {
	WarmIters  stats.Summary // CG iterations per warm epoch
	ColdIters  stats.Summary // CG iterations, same epoch solved cold
	WarmPivots stats.Summary // LP pivots per warm epoch
	ColdPivots stats.Summary // LP pivots, same epoch solved cold
	Evicted    int           // columns dropped by the pool GC across all runs
}

// RunWarmReuse runs the warm-vs-cold epoch study.
func RunWarmReuse(wc WarmReuseConfig) (*WarmReuseResult, error) {
	if wc.Epochs < 2 {
		return nil, fmt.Errorf("experiment: warm reuse needs ≥ 2 epochs, got %d", wc.Epochs)
	}
	if wc.DemandJitter < 0 || wc.DemandJitter >= 1 {
		return nil, fmt.Errorf("experiment: demand jitter %g outside [0, 1)", wc.DemandJitter)
	}
	out := &WarmReuseResult{}
	for rep := 0; rep < wc.Net.Seeds; rep++ {
		rng := stats.Fork(wc.Net.Seed, int64(rep))
		inst, err := NewInstance(wc.Net, rng)
		if err != nil {
			return nil, err
		}
		opts := wc.Net.solverOptions()
		opts.ColumnGC = wc.GC.OrDefault(inst.Network.NumLinks())
		warm, err := core.NewSolver(inst.Network, inst.Demands, opts)
		if err != nil {
			return nil, fmt.Errorf("experiment: warm reuse: %w", err)
		}
		if _, err := warm.Solve(context.Background()); err != nil {
			return nil, fmt.Errorf("experiment: warm reuse epoch 0: %w", err)
		}
		for e := 1; e < wc.Epochs; e++ {
			demands := make([]video.Demand, len(inst.Demands))
			for l, d := range inst.Demands {
				f := 1.0
				if wc.DemandJitter > 0 {
					f = 1 + wc.DemandJitter*(2*rng.Float64()-1)
				}
				demands[l] = d.Scale(f)
			}
			if err := warm.SetDemands(demands); err != nil {
				return nil, fmt.Errorf("experiment: warm reuse epoch %d: %w", e, err)
			}
			wres, err := warm.Solve(context.Background())
			if err != nil {
				return nil, fmt.Errorf("experiment: warm reuse epoch %d: %w", e, err)
			}
			coldSolver, err := core.NewSolver(inst.Network, demands, wc.Net.solverOptions())
			if err != nil {
				return nil, fmt.Errorf("experiment: warm reuse epoch %d: %w", e, err)
			}
			cres, err := coldSolver.Solve(context.Background())
			if err != nil {
				return nil, fmt.Errorf("experiment: warm reuse epoch %d: %w", e, err)
			}
			out.WarmIters.Add(float64(len(wres.Iterations)))
			out.ColdIters.Add(float64(len(cres.Iterations)))
			out.WarmPivots.Add(float64(wres.LPPivots))
			out.ColdPivots.Add(float64(cres.LPPivots))
			out.Evicted += wres.EvictedColumns
		}
	}
	return out, nil
}

// FigWarmReuse renders the study as a four-series figure over the
// work metric (CG iterations, LP pivots).
func FigWarmReuse(wc WarmReuseConfig) (*Figure, error) {
	res, err := RunWarmReuse(wc)
	if err != nil {
		return nil, err
	}
	point := func(s stats.Summary) []Point {
		return []Point{{X: float64(wc.Epochs), Mean: s.Mean, CI95: s.CI95(), N: s.N}}
	}
	return &Figure{
		ID:     "warmreuse",
		Title:  "Cross-epoch warm reuse: per-epoch solver work, warm vs cold",
		XLabel: "epochs",
		YLabel: "work per epoch",
		Series: []Series{
			{Name: "warm CG iters", Points: point(res.WarmIters)},
			{Name: "cold CG iters", Points: point(res.ColdIters)},
			{Name: "warm LP pivots", Points: point(res.WarmPivots)},
			{Name: "cold LP pivots", Points: point(res.ColdPivots)},
		},
	}, nil
}

func init() {
	Register(Driver{Name: "warmreuse", Synopsis: "per-epoch solver work with cross-epoch warm reuse vs cold restarts",
		Run: func(env *RunEnv) error {
			wc := DefaultWarmReuseConfig()
			links, seeds := wc.Net.NumLinks, wc.Net.Seeds
			wc.Net = env.Cfg
			if !env.LinksSet {
				wc.Net.NumLinks = links
			}
			if !env.SeedsSet {
				wc.Net.Seeds = seeds
			}
			if env.Epochs > 0 {
				wc.Epochs = env.Epochs
			}
			fig, err := FigWarmReuse(wc)
			if err != nil {
				return err
			}
			return env.renderFigure(fig)
		}})
}
