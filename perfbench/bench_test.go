package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the tests hold the
// benchmark to.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// smallRun runs a workload briefly, with its state in a directory under
// the package (not the system temp directory, which may be tmpfs).
func smallRun(t *testing.T, name string, trace, plant bool) *result {
	t.Helper()
	work, err := os.MkdirTemp(".", ".testwork-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(work) })
	res, env, err := run(context.Background(), options{
		workload: name, seed: 5, seconds: 0.8, trace: trace, work: work, setups: 1, plantWrong: plant,
	})
	if err != nil {
		t.Fatalf("%s (trace %v): %v", name, trace, err)
	}
	if res.Attempted == 0 {
		t.Fatalf("%s: nothing attempted", name)
	}
	if !plant && (!res.Correct || res.Failed != 0) {
		t.Fatalf("%s (trace %v): %d of %d failed: %s", name, trace, res.Failed, res.Attempted, env.Failures)
	}
	return res
}

func TestBenchmarkJSONNamesEveryWorkloadAndMetric(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) < 2 {
		t.Fatalf("BENCHMARK.json gates %d workloads, want at least 2", len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Errorf("BENCHMARK.json workload: %v", err)
		}
	}
	for _, c := range []struct {
		listed []specMetric
		units  map[string]string
	}{{spec.EndToEnd, endToEndUnits}, {spec.PerLayer, perLayerUnits}} {
		if len(c.listed) != len(c.units) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark prints %d", len(c.listed), len(c.units))
		}
		for _, m := range c.listed {
			if u, ok := c.units[m.Name]; !ok || u != m.Unit {
				t.Errorf("metric %s: BENCHMARK.json unit %q, benchmark %q (known %v)", m.Name, m.Unit, u, ok)
			}
		}
	}
}

func TestSmallRunEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the pool and runs every workload")
	}
	spec := readSpec(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res := smallRun(t, w.name, trace, false)
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s (trace %v): metric %s = %+v (present %v), want unit %s", w.name, trace, m.Name, got, ok, m.Unit)
				}
			}
			if trace && res.Metrics["failed_ratio"].Value != 0 {
				t.Errorf("%s: failed_ratio %v", w.name, res.Metrics["failed_ratio"].Value)
			}
		}
	}
}

func TestPlantedWrongReferenceIsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the pool")
	}
	res := smallRun(t, "fleet-hotkey", false, true)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("a planted wrong reference verdict passed the check: %+v", res)
	}
}

// A segment measured while the host ran at its reference speed keeps its
// wall time; one measured while the host ran at half speed counts half
// its wall time, so its throughput doubles and its latencies halve.
func TestReferenceTimeScalesWithHostProbe(t *testing.T) {
	ref, slow := referenceHostProbe, 2*referenceHostProbe
	segs := []interval{
		interval{start: 0, end: 1e9}.at([]time.Duration{ref, ref}),
		interval{start: 1e9, end: 2e9}.at([]time.Duration{slow, slow}),
	}
	slots := []slot{
		{phase: phaseClosed, recv: 5e8},
		{phase: phaseClosed, recv: 15e8},
		{phase: phaseOpen, due: 2e8, recv: 3e8},
		{phase: phaseOpen, due: 12e8, recv: 13e8},
	}
	ok := []bool{true, true, true, true}
	if got := throughput(slots, ok, false, segs[:1], true); got != 1 {
		t.Errorf("throughput at reference speed = %v/s, want 1", got)
	}
	if got := throughput(slots, ok, false, segs[1:], true); got != 2 {
		t.Errorf("throughput at half speed = %v/s in reference time, want 2", got)
	}
	if got := throughput(slots, ok, false, segs[1:], false); got != 1 {
		t.Errorf("wall-time throughput = %v/s, want 1", got)
	}
	lat, _ := openLatency(slots, ok, false, 2e9, segs)
	if len(lat) != 2 || lat[0] != 1e8 || lat[1] != 5e7 {
		t.Errorf("latencies in reference time = %v ns, want [1e8 5e7]", lat)
	}
}
