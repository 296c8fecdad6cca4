package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks that each run passes its own correctness and determinism
// checks and reports every declared metric.
func TestSmoke(t *testing.T) {
	for _, wl := range []string{"table1", "scale", "serve-edits"} {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", wl, trace), func(t *testing.T) { smoke(t, wl, trace) })
		}
	}
}

func smoke(t *testing.T, wl string, trace bool) {
	var out bytes.Buffer
	rep, err := run(&out, tiny(), wl, 7, 0.001, trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.write(&out, trace); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]metric
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("result line: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("correct=%t attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Unit != d.Unit {
			t.Errorf("metric %s = %+v, want unit %s", d.Name, m, d.Unit)
		}
		if !trace && m.Value == 0 {
			t.Errorf("end-to-end metric %s is 0", d.Name)
		}
	}
}

// TestInputsRepeat checks that one seed always yields byte-identical
// netlists, and that the seed does reach the generated inputs.
func TestInputsRepeat(t *testing.T) {
	for _, z := range []sizes{tiny(), full()} {
		if !reflect.DeepEqual(z.table1Designs(3), z.table1Designs(3)) ||
			!reflect.DeepEqual(z.scaleDesigns(3), z.scaleDesigns(3)) ||
			!reflect.DeepEqual(z.serveScript(3, 1), z.serveScript(3, 1)) {
			t.Fatal("one seed gave different netlists")
		}
		if reflect.DeepEqual(z.serveScript(3, 0), z.serveScript(4, 0)) {
			t.Fatal("the seed does not change the generated inputs")
		}
		if err := parseAll(z.scaleDesigns(3)); err != nil {
			t.Fatal(err)
		}
	}
	// The seed orders the scale compiles; tiny() has one to order.
	if z := full(); reflect.DeepEqual(z.scaleDesigns(3), z.scaleDesigns(4)) {
		t.Fatal("the seed does not change the order of the scale compiles")
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the root of the
// repository declares exactly the metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the program's table")
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the program's table")
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != "table1,scale,serve-edits" {
		t.Errorf("workloads %v", names)
	}
}
