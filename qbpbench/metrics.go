package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
)

// metricDef names one reported metric and its unit. The lists below must
// match BENCHMARK.json (TestRegistryMatchesBenchmarkJSON).
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_s_mean", "s"},
	{"solves_per_s", "1/s"},
	{"wl_vs_golden", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run reports. A layer the workload does
// not exercise reads 0 and is marked as such in the table.
var perLayer = []metricDef{
	{"gen.generate_s", "s"},
	{"qbp.feasible_start_s", "s"},
	{"qbp.solve_s.relaxed", "s"},
	{"qbp.solve_s.timed", "s"},
	{"qbp.setup_s", "s"},
	{"qbp.iter_s", "s"},
	{"qbp.polish_s", "s"},
	{"qbp.iter_ms", "ms"},
	{"qbp.iterations", "count"},
	{"qbp.restarts", "count"},
	{"qbp.eta_full", "count"},
	{"qbp.eta_incremental", "count"},
	{"multilevel.coarsen_s", "s"},
	{"multilevel.coarse_solve_s", "s"},
	{"multilevel.refine_gfm_s", "s"},
	{"multilevel.refine_sweep_s", "s"},
	{"multilevel.levels", "count"},
	{"multilevel.coarsest_n", "count"},
	{"multilevel.moves", "count"},
	{"jobqueue.wait_s_p50", "s"},
	{"jobqueue.wait_s_p90", "s"},
	{"jobqueue.queue_depth_max", "count"},
	{"jobqueue.solve_s_p50", "s"},
	{"jobqueue.solve_s_p90", "s"},
	{"jobqueue.rejected", "count"},
	{"qbpartd.submit_s_p50.text", "s"},
	{"qbpartd.submit_s_p50.binary", "s"},
	{"job_latency_p50_s", "s"},
	{"job_latency_p90_s", "s"},
	{"validate.check_s", "s"},
	{"loadgen.lag_s_p90", "s"},
	{"trace.overhead_frac", "frac"},
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// value is one measured metric with the number of samples behind it.
type value struct {
	v    float64
	n    int
	note string
}

// result is what one run of a workload measured.
type result struct {
	attempted, failed int
	// wrong counts outputs that failed a check (validation, recomputed wire
	// length, same-seed determinism); invalid explains a run whose load
	// generator fell behind its schedule.
	wrong   int
	invalid string
	values  map[string]value
}

func newResult() *result { return &result{values: map[string]value{}} }

func (r *result) set(name string, v float64, n int) { r.values[name] = value{v: v, n: n} }

// setPct records the p-th percentile of s, or a zero marked as unreported
// when fewer than minBeyond samples lie beyond it.
func (r *result) setPct(name string, s sample, p float64) {
	v, ok := s.percentile(p)
	if !ok {
		r.values[name] = value{n: len(s), note: fmt.Sprintf("not reported: needs %d samples beyond p%g", minBeyond, p)}
		return
	}
	r.values[name] = value{v: v, n: len(s)}
}

// fail counts a failed operation and says why on standard error.
func (r *result) fail(w io.Writer, format string, args ...any) {
	r.failed++
	fmt.Fprintf(w, "qbpbench: failed: "+format+"\n", args...)
}

// mismatch counts a wrong output: a failed operation whose answer was
// checked and found incorrect.
func (r *result) mismatch(w io.Writer, format string, args ...any) {
	r.wrong++
	r.fail(w, format, args...)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints a table of the selected metrics with their sample counts,
// then the result object as the last line.
func (r *result) report(w io.Writer, defs []metricDef) error {
	out := jsonResult{
		Correct:   r.wrong == 0 && r.invalid == "",
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]jsonMetric{},
	}
	if r.invalid != "" {
		fmt.Fprintf(w, "run invalid: %s\n", r.invalid)
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		note := v.note
		if !ok {
			note = "not measured on this workload"
		}
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return fmt.Errorf("metric %s is not finite", d.name)
		}
		fmt.Fprintf(w, "%-30s %14.6g %-6s n=%-5d %s\n", d.name, v.v, d.unit, v.n, note)
		out.Metrics[d.name] = jsonMetric{Value: v.v, Unit: d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
