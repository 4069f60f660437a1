package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"xt910/internal/core"
	"xt910/internal/cosim"
	"xt910/internal/workloads"
)

// The traced run replaces cosim.FuzzContext by its public steps; they must
// produce the identical Result, or the per-layer times describe other work.
func TestDecomposedSeedMatchesFuzzContext(t *testing.T) {
	n := 48
	if testing.Short() {
		n = 8
	}
	for _, opts := range []cosim.Options{{}, {Modes: cosim.Modes{SMP: true}}} {
		for seed := int64(1); seed <= int64(n); seed++ {
			want := cosim.FuzzContext(context.Background(), seed, 0, opts)
			got, _, _, _, err := decomposeSeed(context.Background(), newTracer(), 0, 0, seed, 0, opts)
			if want.Err != nil || err != nil {
				t.Fatalf("seed %d %v: FuzzContext err %v, decomposed err %v", seed, opts.Modes, want.Err, err)
			}
			if !reflect.DeepEqual(got, want.Result) {
				t.Fatalf("seed %d %v: decomposed %+v, FuzzContext %+v", seed, opts.Modes, got, want.Result)
			}
		}
	}
}

// BENCHMARK.json and the benchmark must name the same workloads and the same
// metrics with the same units, in both directions.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloadList {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads: BENCHMARK.json %v, benchmark %v", names, want)
	}
	same := func(kind string, listed []struct{ Name, Unit string }, printed []metricDef) {
		got := map[string]string{}
		for _, m := range listed {
			got[m.Name] = m.Unit
		}
		for _, m := range printed {
			if u, ok := got[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s metric %s (%s) printed but listed as %q", kind, m.Name, m.Unit, u)
			}
			delete(got, m.Name)
		}
		for name := range got {
			t.Errorf("%s metric %s listed but never printed", kind, name)
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)

	// Every per-layer value a workload derives must have a listed name.
	listed := map[string]bool{}
	for _, m := range perLayer {
		listed[m.Name] = true
	}
	for _, inst := range []instance{&simInstance{}, &fuzzInstance{}, &campaignInstance{}} {
		for name := range inst.layerMetrics(nil, counts{}) {
			if !listed[name] {
				t.Errorf("%T derives unlisted per-layer metric %s", inst, name)
			}
		}
	}
	for _, layer := range []string{"asm", "cosim", "core", "emu", "inject", "campaign", "http", "handler", "bench"} {
		if !listed["share."+layer+"_pct"] {
			t.Errorf("layer %s has no share metric", layer)
		}
	}
}

// A kernel whose result disagrees with the golden run fails its op.
func TestSimOpFailsOnWrongChecksum(t *testing.T) {
	setup := setupSim([]kernelSpec{{workloads.EEMBC()[3], []core.Config{core.XT910Config()}}}, false)
	inst, err := setup(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res := inst.run(nil, 0, 0, 0); res.err != nil || res.instrs == 0 {
		t.Fatalf("clean run: err %v, %d instructions", res.err, res.instrs)
	}
	inst.(*simInstance).ops[0][0].wantA0++
	if res := inst.run(nil, 0, 0, 1); res.err == nil {
		t.Fatal("a wrong a0 checksum passed the output check")
	}
}
