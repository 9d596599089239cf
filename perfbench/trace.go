package main

import (
	"context"
	"sort"
	"sync"
	"time"

	"mmwave/internal/cg"
	"mmwave/internal/core"
	"mmwave/internal/netmodel"
	"mmwave/internal/obs"
)

// span is one timed call into a layer. Times are nanoseconds since the
// recorder started; parent 0 marks a root.
type span struct {
	id, parent int64
	name       string
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps spans in memory until the run ends. The nil recorder
// records nothing, so untraced passes share the traced code path.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span and returns its ID (0 on the nil recorder).
func (r *recorder) begin(name string, parent int64) int64 {
	if r == nil {
		return 0
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{id: id, parent: parent, name: name, start: t, end: -1})
	return id
}

// finish closes the span opened by begin.
func (r *recorder) finish(id int64) {
	if r == nil || id == 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	r.spans[id-1].end = t
	r.mu.Unlock()
}

// closed returns a copy of every finished span.
func (r *recorder) closed() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.end >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children of one parent may
// overlap one another (cells stepped concurrently by two host workers),
// so the covered part is the length of the union of their intervals,
// clipped to the parent's.
func selfTimes(spans []span) map[int64]int64 {
	byID := make(map[int64]span, len(spans))
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		byID[s.id] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.parent]; ok {
			lo, hi := max(s.start, p.start), min(s.end, p.end)
			if hi > lo {
				kids[s.parent] = append(kids[s.parent], [2]int64{lo, hi})
			}
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.id] = s.dur() - unionLen(kids[s.id])
	}
	return out
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// lane follows one cell (or one standalone solver) through a traced
// replay. Calls into the cell happen on one goroutine at a time, so the
// lane needs no lock. It parents pricer spans under the innermost open
// span the program itself reports through its obs tracer (core.solve,
// pnc.epoch), falling back to base, the benchmark's own span around the
// current call.
type lane struct {
	rec   *recorder
	base  int64
	names map[string]bool // program span names turned into spans
	stack []int64
	open  map[uint64]int64 // program span ID → recorder span ID
}

func newLane(rec *recorder, programSpans ...string) *lane {
	l := &lane{rec: rec, names: map[string]bool{}, open: map[uint64]int64{}}
	for _, n := range programSpans {
		l.names[n] = true
	}
	return l
}

func (l *lane) parent() int64 {
	if n := len(l.stack); n > 0 {
		return l.stack[n-1]
	}
	return l.base
}

// tracer returns an obs tracer feeding this lane.
func (l *lane) tracer() *obs.Tracer { return obs.New(l) }

// Emit implements obs.Sink: span.start/span.end events of the selected
// program spans open and close recorder spans.
func (l *lane) Emit(e obs.Event) {
	switch {
	case e.Name == "span.start" && l.names[e.Span]:
		id := l.rec.begin(e.Span, l.parent())
		l.open[e.SpanID] = id
		l.stack = append(l.stack, id)
	case e.Name == "span.end":
		if id, ok := l.open[e.SpanID]; ok {
			l.rec.finish(id)
			delete(l.open, e.SpanID)
			l.stack = l.stack[:len(l.stack)-1]
		}
	}
}

// Close implements obs.Sink.
func (l *lane) Close() error { return nil }

// tracedPricer delegates every call to a branch-and-bound pricer
// configured exactly like the one it replaces, so plans and work
// counters stay byte-identical, and records one core.pricer span per
// call plus call and exactness counts.
type tracedPricer struct {
	inner *core.BranchBoundPricer
	lane  *lane
	calls int
	exact int
}

var _ cg.CachedPricer = (*tracedPricer)(nil)

func (p *tracedPricer) String() string { return p.inner.String() }

func (p *tracedPricer) observe(id int64, res *cg.PriceResult) {
	p.lane.rec.finish(id)
	p.calls++
	if res != nil && res.Exact {
		p.exact++
	}
}

func (p *tracedPricer) Price(nw *netmodel.Network, lambda [][]float64) (*cg.PriceResult, error) {
	id := p.lane.rec.begin("core.pricer", p.lane.parent())
	res, err := p.inner.Price(nw, lambda)
	p.observe(id, res)
	return res, err
}

func (p *tracedPricer) PriceContext(ctx context.Context, nw *netmodel.Network, lambda [][]float64) (*cg.PriceResult, error) {
	id := p.lane.rec.begin("core.pricer", p.lane.parent())
	res, err := p.inner.PriceContext(ctx, nw, lambda)
	p.observe(id, res)
	return res, err
}

func (p *tracedPricer) PriceWithCache(ctx context.Context, nw *netmodel.Network, lambda [][]float64, cache *netmodel.ProbeCache) (*cg.PriceResult, error) {
	id := p.lane.rec.begin("core.pricer", p.lane.parent())
	res, err := p.inner.PriceWithCache(ctx, nw, lambda, cache)
	p.observe(id, res)
	return res, err
}

// spanTotals sums durations and self times per span name.
type spanTotals struct {
	count     map[string]int
	dur, self map[string]int64
}

func totals(spans []span) spanTotals {
	st := spanTotals{count: map[string]int{}, dur: map[string]int64{}, self: map[string]int64{}}
	self := selfTimes(spans)
	for _, s := range spans {
		st.count[s.name]++
		st.dur[s.name] += s.dur()
		st.self[s.name] += self[s.id]
	}
	return st
}
