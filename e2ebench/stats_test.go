package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {90, 4.6}, {100, 5},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("percentile of one value = %v, want 7", got)
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile of nothing = %v, want NaN", got)
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

// TestQuantilesMatchPython pins the cut points to Python's
// statistics.quantiles (default "exclusive" method), which is how the
// spread of a metric over runs is judged.
func TestQuantilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		n    int
		want []float64
	}{
		{[]float64{1, 2, 3, 4}, 4, []float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 4, []float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, 4, []float64{0.75, 1.5, 2.25}},
		{[]float64{3.1, 0.2, 9.9, 4.4, 7.0}, 4, []float64{1.65, 4.4, 8.45}},
		{[]float64{5, 1, 4, 2, 3}, 10, []float64{0.6, 1.2, 1.8, 2.4, 3.0, 3.6, 4.2, 4.8, 5.4}},
	} {
		got, err := quantiles(c.xs, c.n)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(c.want) {
			t.Fatalf("quantiles(%v, %d) = %v, want %v", c.xs, c.n, got, c.want)
		}
		for i := range got {
			if !near(got[i], c.want[i]) {
				t.Errorf("quantiles(%v, %d) = %v, want %v", c.xs, c.n, got, c.want)
				break
			}
		}
	}
	if _, err := quantiles([]float64{1}, 4); err == nil {
		t.Error("quantiles of one value succeeded")
	}
	if _, err := quantiles([]float64{1, 2}, 0); err == nil {
		t.Error("quantiles with n = 0 succeeded")
	}
}

func TestSpread(t *testing.T) {
	got, err := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil {
		t.Fatal(err)
	}
	if want := (8.25 - 2.75) / 5.5; !near(got, want) {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestValidName(t *testing.T) {
	for _, s := range []string{"run_s", "graph.kappa_s", "udg-uniform-250", "0x", "a", "A.b-c_d"} {
		if !validName(s) {
			t.Errorf("validName(%q) = false", s)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, s := range []string{"", "_x", ".x", "-x", "a b", "µs", "a/b", "a:b", string(long)} {
		if validName(s) {
			t.Errorf("validName(%q) = true", s)
		}
	}
}

func TestBuildMetrics(t *testing.T) {
	specs := []metricSpec{{"a_s", "s"}, {"b", "count"}}
	m, err := buildMetrics(specs, map[string]float64{"a_s": 1.5, "b": 2})
	if err != nil {
		t.Fatal(err)
	}
	if m["a_s"] != (metric{1.5, "s"}) || m["b"] != (metric{2, "count"}) {
		t.Errorf("buildMetrics = %v", m)
	}
	for name, values := range map[string]map[string]float64{
		"missing":    {"a_s": 1},
		"undeclared": {"a_s": 1, "b": 2, "c": 3},
		"NaN":        {"a_s": math.NaN(), "b": 2},
		"Inf":        {"a_s": 1, "b": math.Inf(1)},
	} {
		if _, err := buildMetrics(specs, values); err == nil {
			t.Errorf("%s: buildMetrics succeeded", name)
		}
	}
	if _, err := buildMetrics([]metricSpec{{"bad name", "s"}}, map[string]float64{"bad name": 1}); err == nil {
		t.Error("an invalid metric name was accepted")
	}
}

// TestSpecsMatchBenchmarkJSON keeps the metric and workload lists here
// and in BENCHMARK.json the same.
func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var doc struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, specs []metricSpec, listed []entry) {
		if len(specs) != len(listed) {
			t.Errorf("%s: %d metrics here, %d in BENCHMARK.json", kind, len(specs), len(listed))
			return
		}
		for i, s := range specs {
			if listed[i].Name != s.name || listed[i].Unit != s.unit {
				t.Errorf("%s[%d]: %s (%s) here, %s (%s) in BENCHMARK.json", kind, i, s.name, s.unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, doc.EndToEnd)
	check("per_layer", perLayer, doc.PerLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("%d workloads here, %d in BENCHMARK.json", len(workloads), len(doc.Workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json lists unknown workload %q", w.Name)
		}
	}
}
