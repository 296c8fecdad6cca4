// Command pipebench is the Columba S pipeline benchmark: it compiles
// generated netlists through every layer of the flow, or serves them
// through the job API, and reports Table 1 design quality next to wall
// time, end to end and per layer. See README.md for the workloads and
// metrics.
//
//	go run . --workload table1 --seed 1 --seconds 45 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"columbas/internal/cases"
)

// setupReps is how often a run sets up its inputs; setup_s is the
// median, and every repetition must yield byte-identical inputs.
const setupReps = 15

func main() {
	workload := flag.String("workload", "", "table1, scale or serve-edits")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "how long one run measures")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "pipebench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "pipebench: --seconds must be positive")
		os.Exit(2)
	}
	rep, err := run(os.Stdout, full(), *workload, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pipebench: %v\n", err)
		os.Exit(2)
	}
	if err := rep.write(os.Stdout, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "pipebench: %v\n", err)
		os.Exit(2)
	}
	if rep.failed > 0 {
		os.Exit(1)
	}
}

// run sets up and measures one workload and returns its report.
func run(w io.Writer, z sizes, workload string, seed int64, seconds float64, trace bool) (*report, error) {
	var inputs func() (string, []design)
	switch workload {
	case "table1":
		inputs = func() (string, []design) { ds := z.table1Designs(seed); return digestDesigns(ds), ds }
	case "scale":
		inputs = func() (string, []design) { ds := z.scaleDesigns(seed); return digestDesigns(ds), ds }
	case "serve-edits":
		inputs = func() (string, []design) {
			var ds []design
			for _, client := range z.serveScript(seed, 0) {
				for _, rq := range client {
					ds = append(ds, design{ID: "serve", Src: rq.Src})
				}
			}
			return digestDesigns(ds), ds
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want table1, scale or serve-edits)", workload)
	}
	hostFacts(w, workload, seed, seconds, trace)
	rep := newReport()

	// Set-up: generate the inputs from the seed, check that they parse,
	// and warm the pipeline up with one compile outside the measured set.
	var setups []float64
	var digest string
	var ds []design
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		d, in := inputs()
		if err := parseAll(in); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if _, err := compile(warmup()); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		if i > 0 && d != digest {
			return nil, fmt.Errorf("set-up: seed %d gave different inputs on repetition %d", seed, i+1)
		}
		digest, ds = d, in
	}
	fmt.Fprintf(w, "inputs: %d netlist(s), digest %s\n", len(ds), digest)

	switch workload {
	case "serve-edits":
		runServe(w, z, seed, seconds, trace, rep)
	default:
		runPipeline(w, ds, seconds, trace, rep)
	}
	rep.setSpread("setup_s", median(setups), spread(setups))
	rep.set("peak_rss_mb", peakRSSMB())
	return rep, nil
}

// warmup is the design compiled once per set-up: a 16-lane ChIP case
// in one parallel group, which no workload measures.
func warmup() design {
	c, err := cases.ChIPScale(16, 16)
	if err != nil {
		panic(err) // fixed arguments; a failure is a bug
	}
	return design{ID: c.ID, Src: c.Source}
}

func digestDesigns(ds []design) string {
	h := sha256.New()
	for _, d := range ds {
		fmt.Fprintf(h, "%s\n%s\n", d.ID, d.Src)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// hostFacts records where the numbers were measured.
func hostFacts(w io.Writer, workload string, seed int64, seconds float64, trace bool) {
	fmt.Fprintf(w, "pipebench workload=%s seed=%d seconds=%g trace=%t\n", workload, seed, seconds, trace)
	fmt.Fprintf(w, "host: nproc=%d gomaxprocs=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
