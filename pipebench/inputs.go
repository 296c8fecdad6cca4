package main

import (
	"fmt"
	"math/rand"

	"columbas/internal/cases"
	"columbas/internal/gen"
	"columbas/internal/netlist"
)

// design is one benchmark input: netlist source text and a stable id.
// The program under test only ever sees Src.
type design struct {
	ID  string
	Src string
}

// scaleSpec is one gen.Scale netlist shape: lanes process lanes
// in parallel groups of at most group lanes.
type scaleSpec struct{ lanes, group int }

// sizes fixes how much work each workload carries. The benchmark runs
// full(); the smoke test runs tiny(), which keeps every code path.
type sizes struct {
	table1 []cases.Case // each compiled at 1-MUX and 2-MUX
	// chip256 copies of the fixed chip256 case in scale, each compiled
	// cold in every pass.
	chip256 int
	scale   []scaleSpec
	// perShape netlists of each scale shape, each with its own draw of
	// mixer options, so that the workload does not hang on one draw.
	// Every shape and chip256 hold the same share of the compiles, so
	// that job_ms_p50 and job_ms_p90 fall in the middle of one group
	// of like compiles (the third shape's, and chip256's) rather than
	// on the edge between two groups, where a few slow or fast compiles
	// would make the percentile jump from one group to the next.
	perShape int
	// serve-edits: one client per base, each walking its own edit
	// chains of edits steps in every session.
	bases []base
	edits int
}

// base is one serve-edits client's Table 1 row — a case at a MUX count
// — and how many edit chains the client walks per session.
type base struct {
	c             cases.Case
	muxes, chains int
}

func full() sizes {
	return sizes{
		table1:   cases.Table1(),
		chip256:  2,
		scale:    []scaleSpec{{128, 16}, {160, 20}, {192, 24}, {256, 32}},
		perShape: 2,
		bases:    []base{{cases.Kinase21(), 1, 3}, {cases.Kinase21(), 2, 3}},
		edits:    12,
	}
}

func tiny() sizes {
	return sizes{
		table1:   []cases.Case{cases.Kinase21()},
		scale:    []scaleSpec{{16, 4}},
		perShape: 1,
		bases:    []base{{cases.Kinase21(), 1, 1}, {cases.Kinase21(), 2, 1}},
		edits:    resubmitEvery,
	}
}

// table1Designs is the six Table 1 cases at 1-MUX and 2-MUX. The seed
// only fixes the compile order: the paper's cases are the inputs.
func (z sizes) table1Designs(seed int64) []design {
	var ds []design
	for _, c := range z.table1 {
		for _, m := range []int{1, 2} {
			ds = append(ds, design{ID: fmt.Sprintf("%s-%dmux", c.ID, m), Src: c.WithMuxes(m).Source})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ds), func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
	return ds
}

// scaleNetlistSeed draws the generator seeds of the scale netlists.
const scaleNetlistSeed = 1

// scaleDesigns is the chip256 copies plus perShape gen.Scale netlists
// of each shape, in an order drawn from the seed. The netlists are
// fixed, as the cases of table1 are: drawn anew from every run's seed,
// about one lane set in five needed one branch (3 nodes in place of 2),
// which doubles its compile, and how many did so in a run moved
// job_ms_p50 and synth_s_geomean by up to a fifth between seeds.
func (z sizes) scaleDesigns(seed int64) []design {
	var ds []design
	for k := 0; k < z.chip256; k++ {
		c := cases.ChIP256()
		ds = append(ds, design{ID: fmt.Sprintf("%s.%d", c.ID, k+1), Src: c.Source})
	}
	src := rand.New(rand.NewSource(scaleNetlistSeed))
	for _, sp := range z.scale {
		for k := 0; k < z.perShape; k++ {
			n := gen.Scale(sp.lanes, sp.group).Generate(src.Int63())
			n.Name = fmt.Sprintf("scale%d-%d", sp.lanes, k)
			ds = append(ds, design{ID: n.Name, Src: n.Format()})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ds), func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
	return ds
}

// request is one serve-edits submission. Resubmit marks an exact repeat
// of an earlier request of the same client in the same session.
type request struct {
	Src      string
	Resubmit bool
}

// resubmitEvery is how many edits a serve-edits client submits between
// two exact re-submits of an earlier design.
const resubmitEvery = 4

// serveScript is what each client submits in one session, in order:
// the client walks its chains, each starting from its Table 1 base and
// walking one-unit edits, and after every resubmitEvery edits it
// re-submits an earlier design exactly. Every session of every run
// walks the same chains — the chains' own seeds are fixed — so that a
// run does the same work however many sessions fit in its time, and
// runs with different seeds do comparable work; the run's seed and the
// session index order the chains and pick the re-submits. Serving a
// session index again replays the same script.
func (z sizes) serveScript(seed int64, session int) [][]request {
	script := make([][]request, len(z.bases))
	for c, b := range z.bases {
		n, err := b.c.WithMuxes(b.muxes).Netlist()
		if err != nil {
			panic(err) // the case table is compiled in; a failure is a bug
		}
		// The row's own name keeps the clients' designs apart in the
		// server's traces.
		n.Name = fmt.Sprintf("%s-%dmux", b.c.ID, b.muxes)
		chains := make([]int64, b.chains)
		for k := range chains {
			chains[k] = int64(1 + k)
		}
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(session)*1_009 + int64(c)))
		rng.Shuffle(len(chains), func(i, j int) { chains[i], chains[j] = chains[j], chains[i] })
		var hist []string
		for _, cs := range chains {
			for _, e := range gen.EditSequenceFrom(n, cs, z.edits) {
				src := e.Format()
				script[c] = append(script[c], request{Src: src})
				hist = append(hist, src)
				if len(hist)%resubmitEvery == 0 {
					script[c] = append(script[c], request{Src: hist[rng.Intn(len(hist))], Resubmit: true})
				}
			}
		}
	}
	return script
}

// parseAll checks that every generated source parses and validates, so
// that a generator defect shows in set-up and not as a program failure.
func parseAll(ds []design) error {
	for _, d := range ds {
		n, err := netlist.ParseString(d.Src)
		if err != nil {
			return fmt.Errorf("%s: %w", d.ID, err)
		}
		if err := n.Validate(); err != nil {
			return fmt.Errorf("%s: %w", d.ID, err)
		}
	}
	return nil
}
