package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run. BENCHMARK.json lists the same names with their bounds.
var endToEnd = []metricSpec{
	{"run_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "ratio"},
	{"max_latency_slots", "slots"},
	{"num_colors", "colors"},
	{"job_p50_s", "s"},
}

// perLayer are the metrics of single modules, reported by every traced
// run. A layer that a workload does not run reports 0.
var perLayer = []metricSpec{
	{"radiocolor.front_s", "s"},
	{"graph.kappa_s", "s"},
	{"graph.kappa_us_per_vertex", "us"},
	{"graph.kappa_capped_share", "ratio"},
	{"core.nodes_s", "s"},
	{"core.bytes_per_node", "B"},
	{"radio.sim_s", "s"},
	{"radio.awake_node_slots", "count"},
	{"radio.ns_per_awake_node_slot", "ns"},
	{"radio.tx", "count"},
	{"radio.deliveries", "count"},
	{"radio.collisions", "count"},
	{"radio.delivery_ratio", "ratio"},
	{"verify.check_s", "s"},
	{"serve.submit_s", "s"},
	{"serve.queue_wait_s", "s"},
	{"serve.exec_hit_s", "s"},
	{"serve.exec_miss_s", "s"},
	{"serve.exec_points_s", "s"},
	{"serve.notify_s", "s"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.observer_overhead", "ratio"},
	{"store.create_s", "s"},
	{"store.claim_s", "s"},
	{"store.finish_s", "s"},
	{"store.heartbeat_s", "s"},
	{"store.claim_hit_ratio", "ratio"},
	{"store.ops_per_job", "count"},
}

// metric is one reported figure in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// validName reports whether s is a legal metric or workload name: one
// to 64 characters from [A-Za-z0-9_.-], starting with a letter or digit.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i, c := range s {
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !alnum && (i == 0 || c != '_' && c != '.' && c != '-') {
			return false
		}
	}
	return true
}

// buildMetrics attaches units to values and checks that values holds
// exactly the metrics of specs, each finite and validly named.
func buildMetrics(specs []metricSpec, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		if !validName(s.name) {
			return nil, fmt.Errorf("invalid metric name %q", s.name)
		}
		v, ok := values[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", s.name)
		}
		out[s.name] = metric{Value: v, Unit: s.unit}
	}
	if len(values) != len(specs) {
		for name := range values {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is not declared", name)
			}
		}
	}
	return out, nil
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between closest ranks, or NaN when xs is empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := rank - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// quantiles cuts xs into n intervals of equal probability and returns
// the n-1 cut points, computed like Python's statistics.quantiles with
// its default "exclusive" method.
func quantiles(xs []float64, n int) ([]float64, error) {
	if n < 1 {
		return nil, errors.New("quantiles: n must be at least 1")
	}
	if len(xs) < 2 {
		return nil, errors.New("quantiles: need at least two values")
	}
	s := sortedCopy(xs)
	ld := len(s)
	m := ld + 1
	cuts := make([]float64, 0, n-1)
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		cuts = append(cuts, (s[j-1]*float64(n-delta)+s[j]*float64(delta))/float64(n))
	}
	return cuts, nil
}

// spread is the distance between the first and third quartiles of xs as
// a share of their median: the run-to-run steadiness of one metric.
func spread(xs []float64) (float64, error) {
	q, err := quantiles(xs, 4)
	if err != nil {
		return 0, err
	}
	return (q[2] - q[0]) / median(xs), nil
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// medianOrZero is the median, or 0 for a layer that recorded nothing.
func medianOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
