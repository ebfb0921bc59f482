// Command e2ebench is the repository's end-to-end benchmark. It colors
// unit-disk deployments through the product's public entry points —
// radiocolor.ColorUnitDiskContext and an in-process colord — checks
// every result, and prints each metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {"run_s": {"value": 2.31, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// traced run reports the per-layer ones, timed around the calls into
// each module, and writes its spans to a JSON file. See README.md.
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload udg-uniform-250 --seed 1 --seconds 55 --trace 0
//	bash e2ebench/run.sh spread RESULT_FILE...
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

// workload is one named set of inputs.
type workload interface {
	// measure is the untraced run; it returns the end-to-end metrics.
	measure(ctx context.Context, rc runConfig) (tally, map[string]float64, error)
	// trace is the traced run; it returns the per-layer metrics.
	trace(ctx context.Context, rc runConfig, tr *tracer) (tally, map[string]float64, error)
}

// workloads are the benchmark's named workloads; README.md says why
// each was chosen.
var workloads = map[string]workload{
	"udg-uniform-250": libraryWorkload{n: 250, minCalls: 14},
	"colord-mix":      colordWorkload{n: 200, hitSpecs: 2},
}

// runConfig is what a run is told.
type runConfig struct {
	seed int64
	dur  time.Duration
	// out is the directory for the trace file and the store directories.
	out string
}

// envInfo describes the host a result was measured on.
type envInfo struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "spread" {
		os.Exit(spreadMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: udg-uniform-250 or colord-mix")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	secs := fs.Int("seconds", 55, "how long the run measures")
	traced := fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for the trace file and temporary stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *secs < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload (one of %s), --seconds ≥ 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	env := envInfo{
		Workload: *name, Seed: *seed, Seconds: *secs, Trace: *traced == 1,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), GoVersion: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH,
	}
	rc := runConfig{seed: *seed, dur: time.Duration(*secs) * time.Second, out: *out}

	var t tally
	var values map[string]float64
	var err error
	specs := endToEnd
	if env.Trace {
		specs = perLayer
		tr := newTracer()
		t, values, err = w.trace(ctx, rc, tr)
		if err == nil {
			path := filepath.Join(*out, fmt.Sprintf("trace-%s-%d.json", *name, *seed))
			if err = tr.writeFile(path, env); err == nil {
				fmt.Fprintf(os.Stderr, "e2ebench: spans written to %s\n", path)
			}
		}
	} else {
		t, values, err = w.measure(ctx, rc)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	metrics, err := buildMetrics(specs, values)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	for _, p := range t.problems {
		fmt.Fprintln(os.Stderr, "e2ebench: check failed:", p)
	}

	envJSON, _ := json.Marshal(env) // plain fields always encode
	fmt.Printf("env %s\n", envJSON)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	for _, s := range specs {
		fmt.Fprintf(tw, "%s\t%.6g\t%s\n", s.name, metrics[s.name].Value, s.unit)
	}
	tw.Flush()
	res := result{
		Correct:   t.mismatches == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuModel is the first "model name" in /proc/cpuinfo, or "unknown".
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

// spreadMain reads the result lines in files and prints, per metric, the median, the quartiles and
// their distance as a share of the median — the steadiness the bounds
// in BENCHMARK.json are checked against.
func spreadMain(files []string, w io.Writer) int {
	values := map[string][]float64{}
	read := func(r io.Reader) error {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if !strings.HasPrefix(string(line), `{"correct"`) {
				continue
			}
			var res result
			if err := json.Unmarshal(line, &res); err != nil {
				return err
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		return sc.Err()
	}
	for _, path := range files {
		f, err := os.Open(path)
		if err == nil {
			err = read(f)
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench spread: %s: %v\n", path, err)
			return 1
		}
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "metric\truns\tmedian\tq1\tq3\tspread\t")
	for _, n := range names {
		xs := values[n]
		q, err := quantiles(xs, 4)
		if err != nil {
			fmt.Fprintf(tw, "%s\t%d\t%.6g\t-\t-\t-\t\n", n, len(xs), median(xs))
			continue
		}
		sp, _ := spread(xs)
		fmt.Fprintf(tw, "%s\t%d\t%.6g\t%.6g\t%.6g\t%.4f\t\n", n, len(xs), median(xs), q[0], q[2], sp)
	}
	tw.Flush()
	return 0
}
