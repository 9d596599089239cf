// Command perfbench is the repository's end-to-end benchmark and
// per-layer performance ledger. It runs one named workload from a seed,
// checks every plan it gets back, and prints each metric with its unit,
// percentile and sample count, ending with one JSON result line.
//
//	bash perfbench/run.sh --workload solve-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it measures the end-to-end metrics untraced. With
// --trace 1 it replays a fixed amount of the workload's work, untraced
// and then traced, asserts that the work counters match, and reports
// the per-layer metrics and the ledger table. LEDGER.md records which
// end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// metric is one reported number. pct is the percentile it reads (0 for
// means, counts and rates) and n the number of samples behind it.
type metric struct {
	name, unit string
	value      float64
	pct        float64
	n          int
}

// ledgerRow is one layer's self time per operation.
type ledgerRow struct {
	layer string
	ms    float64
}

// report is what one run measured.
type report struct {
	workload  string
	op        string // what one operation is, for the printed tables
	attempted int
	failed    int
	// violations are correctness failures: invalid columns, uncovered
	// demand, bounds above objectives, or diverging replay depths.
	violations int
	errs       map[string]int
	metrics    []metric
	ledger     []ledgerRow
	notes      []string
}

func newReport(workload, op string) *report {
	return &report{workload: workload, op: op, errs: map[string]int{}}
}

// fail records one failed operation and its cause.
func (r *report) fail(err error) {
	r.failed++
	r.errs[err.Error()]++
}

// violate records a correctness failure; it also fails the operation.
func (r *report) violate(err error) {
	r.violations++
	r.fail(fmt.Errorf("incorrect: %w", err))
}

func (r *report) add(m metric) { r.metrics = append(r.metrics, m) }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// jsonMetrics are the metrics the final JSON line carries, by trace
// mode. They must match BENCHMARK.json's end_to_end and per_layer lists.
var jsonMetrics = map[bool][]string{
	false: {"setup_s", "p50_ms", "tail_ms", "ops_per_s", "plan_s", "heap_peak_mb"},
	true: {
		"netmodel.probes",
		"core.pricer.calls", "core.pricer.ms", "core.pricer.nodes", "core.pricer.exact_frac", "core.pricer.ns_per_probe",
		"cg.rounds", "cg.columns_added", "cg.column_yield", "cg.heuristic_hits", "cg.exact_fallbacks",
		"cg.stab_rounds", "cg.evicted_columns", "cg.self_ms",
		"lp.master_solves", "lp.pivots", "lp.refactorizations", "lp.eta_updates", "lp.warm_frac",
		"schedule.pool_cols",
		"pnc.epoch_ms", "pnc.warm_frac", "pnc.cold_fallbacks", "host.step_ms", "host.self_ms",
		"pncd.http_ms.demands", "pncd.http_ms.csi", "pncd.http_ms.step", "pncd.self_ms", "api.bytes_per_epoch",
		"bench.gen_late_ms", "bench.missed_ticks", "runtime.alloc_bytes_per_op", "bench.trace_overhead_frac",
	},
}

// print writes the human-readable tables and then the JSON result line.
func (r *report) print(w io.Writer, traced bool) error {
	fmt.Fprintf(w, "workload %s: %d attempted, %d failed, %d incorrect (one op = %s)\n",
		r.workload, r.attempted, r.failed, r.violations, r.op)
	errs := make([]string, 0, len(r.errs))
	for e := range r.errs {
		errs = append(errs, e)
	}
	sort.Strings(errs)
	for _, e := range errs {
		fmt.Fprintf(w, "  error x%d: %s\n", r.errs[e], e)
	}
	fmt.Fprintf(w, "%-28s %16s %-6s %-6s %s\n", "metric", "value", "unit", "pct", "n")
	byName := map[string]metric{}
	for _, m := range r.metrics {
		byName[m.name] = m
		pct := "-"
		if m.pct > 0 {
			pct = fmt.Sprintf("p%g", m.pct)
		}
		fmt.Fprintf(w, "%-28s %16.6g %-6s %-6s %d\n", m.name, m.value, m.unit, pct, m.n)
	}
	if len(r.ledger) > 0 {
		var total float64
		for _, row := range r.ledger {
			total += row.ms
		}
		fmt.Fprintf(w, "ledger (self time per %s):\n", r.op)
		for _, row := range r.ledger {
			fmt.Fprintf(w, "  %-34s %10.4f ms %6.1f%%\n", row.layer, row.ms, 100*row.ms/total)
		}
		fmt.Fprintf(w, "  %-34s %10.4f ms\n", "total", total)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "note:", n)
	}

	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: r.violations == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]map[string]any{}}
	for _, name := range jsonMetrics[traced] {
		m, ok := byName[name]
		if !ok || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			// A run whose operations failed may leave a metric without
			// samples; the result still reports the failures, as 0.
			if r.failed == 0 {
				return fmt.Errorf("metric %s was not measured (%g)", name, m.value)
			}
			m.value = 0
		}
		out.Metrics[name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// heapPeak samples the heap every few milliseconds and keeps the
// highest reading. It starts after set-up with a collection, so the peak
// is what serving the workload needs on top of the retained inputs.
type heapPeak struct {
	stop, done chan struct{}
	peak       uint64
}

func startHeapPeak() *heapPeak {
	runtime.GC()
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// end stops the sampler and returns the peak in MB.
func (h *heapPeak) end() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "solve-cold | pncd-steady | pncd-churn")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measurement time")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer replay")
	flag.Parse()
	cfg.trace = trace == 1

	var rep *report
	var err error
	switch cfg.workload {
	case "solve-cold":
		rep, err = runSolveCold(cfg)
	case "pncd-steady":
		rep, err = runFleet(cfg, false)
	case "pncd-churn":
		rep, err = runFleet(cfg, true)
	default:
		err = fmt.Errorf("unknown workload %q (want one of: solve-cold, pncd-steady, pncd-churn)", cfg.workload)
	}
	if err == nil {
		err = rep.print(os.Stdout, cfg.trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if rep.violations > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d correctness checks failed; the errors are listed above\n", rep.violations)
		os.Exit(1)
	}
}

// noteQuartiles prints a latency sample's quartiles, in ms.
func noteQuartiles(r *report, what string, s sample) {
	if q, ok := s.quartiles(); ok {
		r.note("%s quartiles %.3f / %.3f / %.3f ms (n=%d)", what, q[0], q[1], q[2], len(s))
	}
}
