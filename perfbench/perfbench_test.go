package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"

	"recordroute/internal/topology"
)

// The self-test runs every workload once at a tiny size, untraced and
// clean, then traced with one wrong output injected. Run it from this
// directory with `go test .`.

func tinySize() size {
	return size{paperScale: 0.2, sweepProfile: topology.ScaleSmall, sweepDests: 100, sweepBatches: 2,
		freshJobs: 3, replayJobs: 4, replaySpecs: 2}
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// inRepoRoot runs the rest of the test from the checkout's root, where
// the benchmark runs.
func inRepoRoot(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

func TestBenchmarkFileMatchesMetricTables(t *testing.T) {
	f := readBenchmark(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", got, want)
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program reports %d", len(f.EndToEnd), len(endToEnd))
	}
	var setupBound, maxOther float64
	for i, m := range f.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, program reports %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		} else if m.Bound > maxOther {
			maxOther = m.Bound
		}
	}
	if setupBound < maxOther {
		t.Errorf("setup_s bound %v is not the largest (another is %v)", setupBound, maxOther)
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program reports %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, program reports %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

func TestWorkloadsAtTinySize(t *testing.T) {
	inRepoRoot(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			r := newRunner(1, tinySize(), t.TempDir())
			res, _, err := execute(r, name, workloads[name])
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, r.failures)
			}
			checkMetrics(t, res, endToEnd)

			r = newRunner(1, tinySize(), t.TempDir())
			r.tr = newTracer()
			r.inject = true
			res, _, err = execute(r, name, workloads[name])
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed < 1 {
				t.Errorf("a wrong output was not counted: correct=%v failed=%d", res.Correct, res.Failed)
			}
			checkMetrics(t, res, perLayer)
			if res.Metrics["trace.spans"].Value == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

func checkMetrics(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("metric %s: got %+v (present %v), want unit %s", d.name, m, ok, d.unit)
		}
	}
}
