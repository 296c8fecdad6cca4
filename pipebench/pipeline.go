package main

import (
	"fmt"
	"io"
	"math"
	"time"
)

// designRecord gathers every compile of one design within a run.
type designRecord struct {
	d       design
	walls   []float64 // untraced compile walls, s
	out     outcome   // from the first compile; every later one must match
	replays []layerRun
	replOut outcome
}

// runPipeline drives table1 or scale: every design is compiled cold, one
// after another, in whole passes over the design list. The first pass
// always runs, so every design is measured; another pass starts only
// while one more fits in the run's time. With trace on, each compile is
// followed by a traced replay of the same design.
func runPipeline(w io.Writer, ds []design, seconds float64, trace bool, rep *report) {
	recs := make([]*designRecord, len(ds))
	for i, d := range ds {
		recs[i] = &designRecord{d: d}
	}
	// A pass's time is the sum of its compile walls: what compiling the
	// suite costs a designer, without the benchmark's own checks.
	var passes []float64
	var busy float64
	start := time.Now()
	elapsed := func() float64 { return time.Since(start).Seconds() }
	for last := 0.0; len(passes) == 0 || elapsed()+last <= seconds; {
		passStart := time.Now()
		pass := 0.0
		for _, r := range recs {
			rep.attempted++
			c, err := compile(r.d)
			if err != nil {
				rep.fail(w, err)
				continue
			}
			if len(r.walls) == 0 {
				r.out = c.out
			} else if c.out != r.out {
				rep.fail(w, fmt.Errorf("%s: nondeterministic: compile %d gave %+v, compile 1 gave %+v",
					r.d.ID, len(r.walls)+1, c.out, r.out))
			}
			r.walls = append(r.walls, c.wall.Seconds())
			pass += c.wall.Seconds()
			if !trace {
				continue
			}
			lr, out, err := replay(r.d)
			if err != nil {
				rep.fail(w, err)
				continue
			}
			if out != c.out {
				rep.fail(w, fmt.Errorf("%s: replay drifted from core: replay %+v, core %+v", r.d.ID, out, c.out))
			}
			r.replays = append(r.replays, lr)
			r.replOut = out
		}
		passes = append(passes, pass)
		busy += pass
		last = time.Since(passStart).Seconds()
	}

	var medWalls, objs, areas, flows []float64
	var jobs []float64
	inlets := 0
	compiles := 0
	for _, r := range recs {
		if len(r.walls) == 0 {
			continue
		}
		medWalls = append(medWalls, median(r.walls))
		for _, x := range r.walls {
			jobs = append(jobs, x*1000)
		}
		compiles += len(r.walls)
		objs = append(objs, r.out.Obj)
		areas = append(areas, r.out.areaMM2())
		flows = append(flows, r.out.FlowMM)
		inlets += r.out.CtrlInlets
	}
	fmt.Fprintf(w, "%-14s %6s %9s %7s %10s %10s %7s %13s %8s %8s %6s %9s\n",
		"design", "n", "median_s", "spread", "objective", "bound", "gap", "dim_mm", "L_f_mm", "c_in", "nodes", "pivots")
	for _, r := range recs {
		if len(r.walls) == 0 {
			continue
		}
		o := r.out
		fmt.Fprintf(w, "%-14s %6d %9.4f %6.1f%% %10.3f %10.3f %6.1f%% %13s %8.2f %8d %6d %9d\n",
			r.d.ID, len(r.walls), median(r.walls), 100*spread(r.walls), o.Obj, o.Bound, 100*o.gap(),
			fmt.Sprintf("%.2fx%.2f", o.WidthMM, o.HeightMM), o.FlowMM, o.CtrlInlets, o.Nodes, o.Pivots)
	}
	p50, _ := percentile(jobs, 50)
	p90, above := percentile(jobs, 90)
	fmt.Fprintf(w, "compiles %d, passes %d (pass spread %.1f%%), job_ms_p90 has %d sample(s) above it\n",
		compiles, len(passes), 100*spread(passes), above)

	rep.setSpread("synth_s_geomean", geomean(medWalls), spreadOfDesigns(recs))
	rep.setSpread("suite_s", median(passes), spread(passes))
	rep.set("job_ms_p50", p50)
	rep.set("job_ms_p90", p90)
	rep.set("jobs_per_s", float64(compiles)/busy)
	rep.set("objective_geomean", geomean(objs))
	rep.set("chip_area_mm2_geomean", geomean(areas))
	rep.set("flow_mm_geomean", geomean(flows))
	rep.set("ctrl_inlets_total", float64(inlets))

	if trace {
		layerMetrics(w, recs, rep)
	}
}

// spreadOfDesigns is the median over designs of each design's spread
// between its repeated compiles (0 when no design ran twice).
func spreadOfDesigns(recs []*designRecord) float64 {
	var s []float64
	for _, r := range recs {
		if len(r.walls) > 1 {
			s = append(s, spread(r.walls))
		}
	}
	return median(s)
}

// layerMetrics turns the traced replays into the per-layer metrics.
// Times are each design's median over its replays, summed over one pass
// of the designs; counters are summed over one pass; ratios are taken
// over the summed counts.
func layerMetrics(w io.Writer, recs []*designRecord, rep *report) {
	sum := map[string]float64{}
	durs := func(r *designRecord, f func(l layerRun) time.Duration) float64 {
		xs := make([]float64, len(r.replays))
		for i, l := range r.replays {
			xs[i] = ms(f(l))
		}
		return median(xs)
	}
	var seedObjs, improvements, gaps []float64
	seedOnly := 0
	var traced, untraced float64
	fmt.Fprintf(w, "%-14s %10s %10s %8s %9s %9s %9s %9s\n",
		"design", "seed_obj", "final_obj", "improve", "layout_ms", "seed_ms", "milp_ms", "other_ms")
	for _, r := range recs {
		if len(r.replays) == 0 {
			continue
		}
		traced += durs(r, func(l layerRun) time.Duration { return l.wall })
		untraced += 1000 * median(r.walls[:len(r.replays)])
		for name, f := range map[string]func(l layerRun) time.Duration{
			"netlist.parse_ms":     func(l layerRun) time.Duration { return l.parse },
			"planar.planarize_ms":  func(l layerRun) time.Duration { return l.planarize },
			"layout.seed_ms":       func(l layerRun) time.Duration { return l.seed },
			"layout.milp_ms":       func(l layerRun) time.Duration { return l.milp },
			"validate.validate_ms": func(l layerRun) time.Duration { return l.valid },
			"validate.mux_ms":      func(l layerRun) time.Duration { return l.mux },
			"drc.check_ms":         func(l layerRun) time.Duration { return l.drc },
			"export.svg_ms":        func(l layerRun) time.Duration { return l.svg },
			"export.scr_ms":        func(l layerRun) time.Duration { return l.scr },
			"export.json_ms":       func(l layerRun) time.Duration { return l.json },
		} {
			sum[name] += durs(r, f)
		}
		l := r.replays[0]
		st := l.stats
		se := st.Search
		sum["planar.switches_added"] += float64(l.switches)
		sum["validate.ctrl_channels"] += float64(l.ctrlChannels)
		sum["drc.rules_checked"] += float64(l.rules)
		sum["export.bytes"] += float64(l.bytes)
		sum["layout.rounds"] += float64(st.Rounds)
		sum["layout.binaries"] += float64(st.Binaries)
		sum["layout.rows"] += float64(st.Rows)
		sum["milp.nodes"] += float64(se.NodesExplored)
		sum["milp.lp_solves"] += float64(se.LPSolves)
		sum["milp.cuts_added"] += float64(se.CutsAdded)
		sum["milp.bounds_tightened"] += float64(se.BoundsTightened)
		sum["milp.rounding_attempts"] += float64(se.RoundingAttempts)
		sum["milp.rounding_hits"] += float64(se.RoundingHits)
		sum["milp.incumbent_updates"] += float64(se.IncumbentUpdates)
		sum["lp.pivots"] += float64(se.SimplexPivots)
		sum["lp.warm_starts"] += float64(se.WarmStarts)
		sum["lp.refactorizations"] += float64(se.Refactorizations)
		sum["lp.sparse_refactorizations"] += float64(se.SparseRefactorizations)
		sum["lp.fill_in"] += float64(se.FillIn)
		sum["lp.dense_fallbacks"] += float64(se.DenseFallbacks)
		sum["milp.delta_warm_starts"] += float64(se.DeltaWarmStarts)
		sum["milp.delta_fallbacks"] += float64(se.DeltaFallbacks)
		sum["milp.incumbent_from_hint"] += float64(se.IncumbentFromHint)

		final := r.replOut.Obj
		imp := 100 * (l.seedObj - final) / l.seedObj
		seedObjs = append(seedObjs, l.seedObj)
		improvements = append(improvements, imp)
		gaps = append(gaps, r.replOut.gap())
		if st.SeedOnly || math.Abs(l.seedObj-final) <= 1e-6*l.seedObj {
			seedOnly++
		}
		total := durs(r, func(l layerRun) time.Duration { return l.wall })
		lay := durs(r, func(l layerRun) time.Duration { return l.layout })
		fmt.Fprintf(w, "%-14s %10.3f %10.3f %7.2f%% %9.2f %9.2f %9.2f %9.2f\n",
			r.d.ID, l.seedObj, final, imp, lay,
			durs(r, func(l layerRun) time.Duration { return l.seed }),
			durs(r, func(l layerRun) time.Duration { return l.milp }), total-lay)
	}
	for _, name := range []string{
		"netlist.parse_ms", "planar.planarize_ms", "planar.switches_added",
		"layout.seed_ms", "layout.milp_ms", "layout.rounds", "layout.binaries", "layout.rows",
		"milp.nodes", "milp.lp_solves", "milp.cuts_added", "milp.bounds_tightened", "milp.incumbent_updates",
		"lp.pivots", "lp.refactorizations", "lp.sparse_refactorizations", "lp.fill_in", "lp.dense_fallbacks",
		"validate.validate_ms", "validate.mux_ms", "validate.ctrl_channels",
		"drc.check_ms", "drc.rules_checked",
		"export.svg_ms", "export.scr_ms", "export.json_ms", "export.bytes",
		"milp.delta_warm_starts", "milp.incumbent_from_hint",
	} {
		rep.layer(name, sum[name])
	}
	rep.layer("milp.rounding_hit_ratio", ratio(sum["milp.rounding_hits"], sum["milp.rounding_attempts"]))
	rep.layer("lp.warm_start_ratio", ratio(sum["lp.warm_starts"], sum["milp.lp_solves"]))
	rep.layer("milp.delta_fallback_ratio", ratio(sum["milp.delta_fallbacks"],
		sum["milp.delta_fallbacks"]+sum["milp.delta_warm_starts"]))
	rep.layer("layout.seed_obj", geomean(seedObjs))
	rep.layer("layout.improvement_pct", mean(improvements))
	rep.layer("layout.seed_only", float64(seedOnly))
	rep.layer("milp.gap", mean(gaps))
	rep.layer("trace.overhead_pct", 100*ratio(traced-untraced, untraced))
	fmt.Fprintf(w, "traced pipeline %.1f ms vs untraced %.1f ms per pass: tracing overhead %.2f%%\n",
		traced, untraced, 100*ratio(traced-untraced, untraced))
}
