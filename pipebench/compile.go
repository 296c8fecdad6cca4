package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"columbas/internal/core"
	"columbas/internal/drc"
	"columbas/internal/export"
	"columbas/internal/geom"
	"columbas/internal/layout"
	"columbas/internal/milp"
	"columbas/internal/netlist"
	"columbas/internal/obs"
	"columbas/internal/planar"
	"columbas/internal/validate"
)

// coreOptions is the designer's default flow at one branch-and-bound
// worker, so that the solver's work is the same on every run.
func coreOptions() core.Options {
	opt := core.DefaultOptions()
	opt.Layout.Workers = 1
	return opt
}

// outcome is what one compile of a design must reproduce exactly: the
// Table 1 quality of the design and the solver work that bought it.
type outcome struct {
	WidthMM, HeightMM, FlowMM float64
	CtrlInlets                int
	Obj, Bound                float64
	Status                    string
	Nodes, LPSolves, Pivots   int64
}

func (o outcome) areaMM2() float64 { return o.WidthMM * o.HeightMM }

func (o outcome) gap() float64 {
	if o.Obj == 0 {
		return 0
	}
	return (o.Obj - o.Bound) / o.Obj
}

func outcomeOf(m core.Metrics, st layout.SolveStats) outcome {
	return outcome{
		WidthMM: m.WidthMM, HeightMM: m.HeightMM, FlowMM: m.FlowMM, CtrlInlets: m.CtrlInlets,
		Obj: st.Obj, Bound: st.Bound, Status: st.Status.String(),
		Nodes: st.Search.NodesExplored, LPSolves: st.Search.LPSolves, Pivots: st.Search.SimplexPivots,
	}
}

// objective recomputes eq. 13 from the plan's geometry: α·x_max +
// β·y_max + γ·max(x_max, y_max) + κ·Σ n_r·len_r over the merged flow
// (horizontal) and control (vertical) channel rectangles, in mm.
func objective(p *layout.Plan, o layout.Options) float64 {
	x, y := p.XMax/1000, p.YMax/1000
	v := o.Alpha*x + o.Beta*y + o.Gamma*math.Max(x, y)
	for _, r := range p.Rects {
		switch r.Kind {
		case layout.RFlow:
			v += o.Kappa * float64(r.NumChannels) * r.Box.W() / 1000
		case layout.RCtrl:
			v += o.Kappa * float64(r.NumChannels) * r.Box.H() / 1000
		}
	}
	return v
}

// compiled is one untraced compile: source in, SVG, SCR and JSON out.
type compiled struct {
	wall time.Duration
	out  outcome
}

// compile runs the designer's path through core and the exporters, and
// times it. The checks run after the clock stops. Every compile starts
// on a collected heap, so that it pays for its own garbage and not for
// what the compile before it left behind.
func compile(d design) (compiled, error) {
	opt := coreOptions()
	var svg, scr, js bytes.Buffer
	runtime.GC()
	start := time.Now()
	res, err := core.SynthesizeSource(d.Src, opt)
	if err == nil {
		err = res.WriteSVG(&svg)
	}
	if err == nil {
		err = res.WriteSCR(&scr)
	}
	if err == nil {
		err = res.WriteJSON(&js)
	}
	wall := time.Since(start)
	if err != nil {
		return compiled{}, fmt.Errorf("%s: %w", d.ID, err)
	}
	if err := checkDesign(res.Design, res.Plan, opt.Layout, svg.Bytes(), scr.Bytes(), js.Bytes()); err != nil {
		return compiled{}, fmt.Errorf("%s: %w", d.ID, err)
	}
	return compiled{wall: wall, out: outcomeOf(res.Metrics(), res.Plan.Stats)}, nil
}

// checkDesign is the correctness gate every compiled design passes: the
// benchmark's own design-rule check, eq. 13 recomputed from the plan
// against the solver's objective, the bound below the objective, and
// non-empty, well-formed outputs.
func checkDesign(d *validate.Design, p *layout.Plan, lo layout.Options, svg, scr, js []byte) error {
	if rep := drc.Check(d); !rep.Clean() {
		return fmt.Errorf("drc: %d violation(s); first: %v", len(rep.Violations), rep.Violations[0])
	}
	st := p.Stats
	if st.Status != milp.Optimal && st.Status != milp.Feasible {
		return fmt.Errorf("layout status %v", st.Status)
	}
	if st.SeedOnly {
		return fmt.Errorf("layout fell back to the greedy seed")
	}
	if got := objective(p, lo); math.Abs(got-st.Obj) > 1e-6*math.Max(1, math.Abs(st.Obj)) {
		return fmt.Errorf("objective: plan geometry gives %.9g, solver reports %.9g", got, st.Obj)
	}
	if st.Bound > st.Obj+1e-9*math.Max(1, math.Abs(st.Obj)) {
		return fmt.Errorf("bound %.9g above objective %.9g", st.Bound, st.Obj)
	}
	if !bytes.HasPrefix(svg, []byte("<svg")) || !bytes.Contains(svg, []byte("</svg>")) {
		return fmt.Errorf("svg output malformed (%d bytes)", len(svg))
	}
	if !bytes.Contains(scr, []byte("-LAYER M FLOW")) {
		return fmt.Errorf("scr output has no flow layer (%d bytes)", len(scr))
	}
	var jd export.JSONDesign
	if err := json.Unmarshal(js, &jd); err != nil || len(jd.Modules) == 0 {
		return fmt.Errorf("json output malformed (%d bytes): %v", len(js), err)
	}
	return nil
}

// layerRun is one traced replay of a design: the wall of each call into
// a layer and the counters that call returned.
type layerRun struct {
	wall                                        time.Duration // sum of the pipeline calls
	parse, planarize, seed, milp, layout, valid time.Duration
	mux, drc, svg, scr, json                    time.Duration
	switches, ctrlChannels, rules, bytes        int
	seedObj                                     float64
	stats                                       layout.SolveStats
}

// replay calls the layers one by one — parse, planarize, generate,
// validate (with MUX synthesis), DRC, export — and times each call. It
// also solves the seed alone (layout.Options.SkipMILP) on the same
// planar result, outside the timed pipeline, to price what branch and
// bound adds over the greedy seed.
func replay(d design) (layerRun, outcome, error) {
	var lr layerRun
	fail := func(err error) (layerRun, outcome, error) {
		return lr, outcome{}, fmt.Errorf("%s: replay: %w", d.ID, err)
	}
	timed := func(dst *time.Duration, f func() error) error {
		t := time.Now()
		err := f()
		*dst = time.Since(t)
		lr.wall += *dst
		return err
	}

	runtime.GC()
	var n *netlist.Netlist
	if err := timed(&lr.parse, func() (err error) { n, err = netlist.ParseString(d.Src); return err }); err != nil {
		return fail(err)
	}
	var pr *planar.Result
	if err := timed(&lr.planarize, func() (err error) { pr, err = planar.Planarize(n); return err }); err != nil {
		return fail(err)
	}
	lr.switches = pr.SwitchCount

	lo := coreOptions().Layout
	seedOpt := lo
	seedOpt.SkipMILP = true
	seedPlan, err := layout.Generate(pr, seedOpt)
	if err != nil {
		return fail(err)
	}
	lr.seedObj = objective(seedPlan, lo)

	tr := obs.New(d.ID)
	lsp := tr.Phase("layout")
	lo.Obs = lsp
	var plan *layout.Plan
	err = timed(&lr.layout, func() (err error) { plan, err = layout.Generate(pr, lo); return err })
	lsp.End()
	if err != nil {
		return fail(err)
	}
	lo.Obs = nil
	lr.stats = plan.Stats

	vsp := tr.Phase("validate")
	var des *validate.Design
	err = timed(&lr.valid, func() (err error) { des, err = validate.ValidateObs(plan, vsp); return err })
	vsp.End()
	if err != nil {
		return fail(err)
	}
	lr.ctrlChannels = len(des.Ctrl)

	var rep *drc.Report
	_ = timed(&lr.drc, func() error { rep = drc.Check(des); return nil })
	lr.rules = rep.Checked
	if !rep.Clean() {
		return fail(fmt.Errorf("drc: %d violation(s)", len(rep.Violations)))
	}

	var svg, scr, js bytes.Buffer
	if err := timed(&lr.svg, func() error { return export.WriteSVG(&svg, des) }); err != nil {
		return fail(err)
	}
	if err := timed(&lr.scr, func() error { return export.WriteSCR(&scr, des) }); err != nil {
		return fail(err)
	}
	if err := timed(&lr.json, func() error { return export.WriteJSON(&js, des) }); err != nil {
		return fail(err)
	}
	lr.bytes = svg.Len() + scr.Len() + js.Len()
	if err := checkDesign(des, plan, lo, svg.Bytes(), scr.Bytes(), js.Bytes()); err != nil {
		return fail(err)
	}

	tr.Finish()
	for _, sp := range tr.Snapshot().Spans {
		for _, c := range sp.Spans {
			wall := time.Duration(c.WallMS * float64(time.Millisecond))
			switch {
			case c.Name == "greedy seed":
				lr.seed += wall
			case strings.HasPrefix(c.Name, "milp round"):
				lr.milp += wall
			case c.Name == "mux synthesis":
				lr.mux += wall
			}
		}
	}

	w, h := des.Dimensions()
	m := core.Metrics{
		WidthMM: geom.MM(w), HeightMM: geom.MM(h), FlowMM: geom.MM(des.FlowLength()),
		CtrlInlets: des.ControlInlets(),
	}
	return lr, outcomeOf(m, plan.Stats), nil
}
