package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef is one metric of BENCHMARK.json. The smoke test checks that
// these tables and the file agree.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"synth_s_geomean", "s", "lower", 0.25},
	{"suite_s", "s", "lower", 0.25},
	{"job_ms_p50", "ms", "lower", 0.25},
	{"job_ms_p90", "ms", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"objective_geomean", "mm", "lower", 0.1},
	{"chip_area_mm2_geomean", "mm2", "lower", 0.1},
	{"flow_mm_geomean", "mm", "lower", 0.1},
	{"ctrl_inlets_total", "count", "lower", 0.1},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

var perLayer = []metricDef{
	{"netlist.parse_ms", "ms", "lower", 0},
	{"planar.planarize_ms", "ms", "lower", 0},
	{"planar.switches_added", "count", "lower", 0},
	{"layout.seed_ms", "ms", "lower", 0},
	{"layout.milp_ms", "ms", "lower", 0},
	{"layout.rounds", "count", "lower", 0},
	{"layout.binaries", "count", "lower", 0},
	{"layout.rows", "count", "lower", 0},
	{"layout.seed_obj", "mm", "lower", 0},
	{"layout.improvement_pct", "%", "higher", 0},
	{"layout.seed_only", "count", "lower", 0},
	{"milp.nodes", "count", "lower", 0},
	{"milp.lp_solves", "count", "lower", 0},
	{"milp.cuts_added", "count", "lower", 0},
	{"milp.bounds_tightened", "count", "higher", 0},
	{"milp.rounding_hit_ratio", "ratio", "higher", 0},
	{"milp.incumbent_updates", "count", "higher", 0},
	{"milp.gap", "ratio", "lower", 0},
	{"milp.delta_warm_starts", "count", "higher", 0},
	{"milp.delta_fallback_ratio", "ratio", "lower", 0},
	{"milp.incumbent_from_hint", "count", "higher", 0},
	{"lp.pivots", "count", "lower", 0},
	{"lp.warm_start_ratio", "ratio", "higher", 0},
	{"lp.refactorizations", "count", "lower", 0},
	{"lp.sparse_refactorizations", "count", "lower", 0},
	{"lp.fill_in", "count", "lower", 0},
	{"lp.dense_fallbacks", "count", "lower", 0},
	{"validate.validate_ms", "ms", "lower", 0},
	{"validate.mux_ms", "ms", "lower", 0},
	{"validate.ctrl_channels", "count", "lower", 0},
	{"drc.check_ms", "ms", "lower", 0},
	{"drc.rules_checked", "count", "higher", 0},
	{"export.svg_ms", "ms", "lower", 0},
	{"export.scr_ms", "ms", "lower", 0},
	{"export.json_ms", "ms", "lower", 0},
	{"export.bytes", "count", "lower", 0},
	{"server.submit_ms", "ms", "lower", 0},
	{"server.queue_wait_ms", "ms", "lower", 0},
	{"server.service_ms", "ms", "lower", 0},
	{"server.result_ms", "ms", "lower", 0},
	{"server.cache_hit_ratio", "ratio", "higher", 0},
	{"server.similarity_hit_ratio", "ratio", "higher", 0},
	{"server.shed", "count", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics and failures. A workload records
// every end-to-end metric, and with trace on every per-layer metric it
// observes; per-layer metrics of a layer the workload bypasses read 0.
type report struct {
	attempted, failed int
	e2e, layers       map[string]metric
	spreads           map[string]float64
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layers: map[string]metric{}, spreads: map[string]float64{}}
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("pipebench: metric " + name + " is not declared")
}

// setSpread records an end-to-end metric with the spread between the
// repeated measurements it summarizes.
func (r *report) setSpread(name string, v float64, spread float64) {
	r.e2e[name] = metric{v, unitOf(endToEnd, name)}
	r.spreads[name] = spread
}

func (r *report) set(name string, v float64) {
	r.e2e[name] = metric{v, unitOf(endToEnd, name)}
}

func (r *report) layer(name string, v float64) {
	r.layers[name] = metric{v, unitOf(perLayer, name)}
}

// fail counts a failed operation and says why on the log.
func (r *report) fail(w io.Writer, err error) {
	r.failed++
	fmt.Fprintf(w, "FAIL %v\n", err)
}

// write prints every metric of the run with its unit and spread, then
// the result line: the end-to-end metrics, or with trace on the
// per-layer ones.
func (r *report) write(w io.Writer, trace bool) error {
	fmt.Fprintln(w, "end-to-end:")
	for _, d := range endToEnd {
		m := r.e2e[d.Name]
		note := ""
		if s, ok := r.spreads[d.Name]; ok {
			note = fmt.Sprintf("  (spread %.1f%%)", 100*s)
		}
		fmt.Fprintf(w, "  %-24s %14.6g %-6s%s\n", d.Name, m.Value, m.Unit, note)
	}
	fmt.Fprintf(w, "  %-24s %14.6g %-6s (%d of %d)\n", "fail_ratio",
		ratio(float64(r.failed), float64(r.attempted)), "ratio", r.failed, r.attempted)
	defs, got := endToEnd, r.e2e
	if trace {
		defs, got = perLayer, r.layers
		fmt.Fprintln(w, "per-layer:")
		sorted := append([]metricDef(nil), perLayer...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
		for _, d := range sorted {
			fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.Name, r.layers[d.Name].Value, d.Unit)
		}
	}
	out := map[string]metric{}
	for _, d := range defs {
		m, ok := got[d.Name]
		if !ok {
			m = metric{0, d.Unit}
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.fail(w, fmt.Errorf("metric %s is %v", d.Name, m.Value))
			m.Value = 0
		}
		out[d.Name] = m
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
