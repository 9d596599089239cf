package core

import (
	"mmwave/internal/cg"
	"mmwave/internal/lp"
	"mmwave/internal/netmodel"
	"mmwave/internal/obs"
	"mmwave/internal/video"
)

// Option mutates an Options value. The functional form is the
// preferred way to configure solvers — new knobs become new With*
// constructors instead of struct churn at every call site — while the
// Options struct remains available for code that wants to build
// configuration imperatively.
type Option func(*Options)

// NewOptions folds a list of functional options into an Options value
// (zero-valued fields keep their documented defaults).
func NewOptions(opts ...Option) Options {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithPricer selects the column-generation pricer.
func WithPricer(p Pricer) Option { return func(o *Options) { o.Pricer = p } }

// WithMaxIterations caps column-generation rounds.
func WithMaxIterations(n int) Option { return func(o *Options) { o.MaxIterations = n } }

// WithTolerance sets the reduced-cost convergence tolerance.
func WithTolerance(tol float64) Option { return func(o *Options) { o.Tolerance = tol } }

// WithGapTarget enables early termination at the given relative UB/LB
// gap (the paper's Theorem-1 stopping rule).
func WithGapTarget(gap float64) Option { return func(o *Options) { o.GapTarget = gap } }

// WithProbeCache toggles cross-iteration memoization of pricing
// feasibility probes (see Options.CacheProbes for the trade-off).
func WithProbeCache(on bool) Option { return func(o *Options) { o.CacheProbes = on } }

// WithColumnGC bounds pool growth across re-solves of the same solver
// (see Options.ColumnGC): pools past policy.MaxColumns drop columns
// that stayed nonbasic for policy.MinAge solves.
func WithColumnGC(policy cg.GCPolicy) Option { return func(o *Options) { o.ColumnGC = policy } }

// WithLP passes options through to the master-problem LP solves.
func WithLP(lo lp.Options) Option { return func(o *Options) { o.LPOpts = lo } }

// WithClasses attaches a traffic-class table: per-class quality
// weights, priority ranks, and optional minimum-rate SLAs. A nil table
// (the default) means unit weights and no floors — the paper's
// two-class behavior.
func WithClasses(cs video.Classes) Option { return func(o *Options) { o.Classes = cs } }

// WithTracer attaches a trace-event consumer: every column-generation
// iteration, pricing round, and master solve under this solver emits
// through it. A nil tracer (the default) costs nothing.
func WithTracer(t *obs.Tracer) Option { return func(o *Options) { o.Tracer = t } }

// WithMetrics attaches a metrics registry; the solver folds its
// per-solve Stats into it under the "core" prefix.
func WithMetrics(m *obs.Registry) Option { return func(o *Options) { o.Metrics = m } }

// New is the functional-options constructor for Solver, equivalent to
// NewSolver(nw, demands, NewOptions(opts...)).
func New(nw *netmodel.Network, demands []video.Demand, opts ...Option) (*Solver, error) {
	return NewSolver(nw, demands, NewOptions(opts...))
}

// NewQuality is the functional-options constructor for QualitySolver,
// equivalent to NewQualitySolver(nw, demands, budget, weights,
// NewOptions(opts...)).
func NewQuality(nw *netmodel.Network, demands []video.Demand, budgetSeconds float64, weights []float64, opts ...Option) (*QualitySolver, error) {
	return NewQualitySolver(nw, demands, budgetSeconds, weights, NewOptions(opts...))
}
