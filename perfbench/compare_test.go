package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) from CPython.
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3.1, 1.2, 9.9, 4.4, 0.5, 7.7, 2.2}, 1.2, 7.7},
		{[]float64{4}, 4, 4},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedianPercentileSpread(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median = %g", m)
	}
	if m := median([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Errorf("even median = %g", m)
	}
	if p := percentile(xs, 50); p != 3 {
		t.Errorf("p50 = %g", p)
	}
	if p := percentile(xs, 99); p != 5 {
		t.Errorf("p99 = %g", p)
	}
	if s := spread([]float64{1, 2, 3, 4, 5}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %g, want (4.5-1.5)/3", s)
	}
	if s := spread([]float64{0, 0}); s != 0 {
		t.Errorf("spread of zeros = %g", s)
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * by
		}
		return out
	}
	cases := []struct {
		name        string
		base, head  []float64
		lowerBetter bool
		want        string
	}{
		{"identical", steady, steady, true, "unchanged"},
		{"faster", steady, shift(steady, 0.8), true, "improved"},
		{"slower beyond bound", steady, shift(steady, 1.2), true, "worse"},
		{"slower within bound", steady, shift(steady, 1.05), true, "unchanged"},
		{"higher is better", steady, shift(steady, 1.2), false, "improved"},
		{"noisy", steady, []float64{50, 150, 80, 130, 60, 140, 100, 90, 120, 70}, true, "unresolved"},
		{"noisy but every run better", []float64{100, 200, 300, 400}, []float64{10, 20, 30, 40}, true, "improved"},
	}
	for _, c := range cases {
		if got := compareMetric(c.base, c.head, c.lowerBetter, 0.1).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	// Ties count for neither side.
	if w := compareMetric([]float64{1, 2}, []float64{1, 1}, true, 0.1).winShare; w != 0.5 {
		t.Errorf("win share = %g, want 0.5", w)
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer())
	if len(bench.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bench.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		if bench.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, bench.Workloads[i].Name, w.name)
		}
	}
}
