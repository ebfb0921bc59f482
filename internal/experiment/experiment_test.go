package experiment

import (
	"strconv"
	"strings"
	"testing"

	"radiocolor/internal/radio"
	"radiocolor/internal/stats"
	"radiocolor/internal/topology"
)

func quickOpts() Options { return Options{Trials: 1, SizeFactor: 0.3, Seed: 7} }

func TestOptionsNormalization(t *testing.T) {
	o := Options{}.normalized()
	if o.Trials != 3 || o.SizeFactor != 1.0 {
		t.Errorf("normalized = %+v", o)
	}
	if Full().Trials <= 0 || Quick().SizeFactor >= Full().SizeFactor {
		t.Error("presets inconsistent")
	}
	if got := (Options{SizeFactor: 0.1}).scale(100, 40); got != 40 {
		t.Errorf("scale floor = %d", got)
	}
	if got := (Options{SizeFactor: 2}.normalized()).scale(100, 40); got != 200 {
		t.Errorf("scale = %d", got)
	}
}

func TestMeasureParams(t *testing.T) {
	d := topology.RandomUDG(topology.UDGConfig{N: 80, Side: 5, Radius: 1.2, Seed: 1})
	par := MeasureParams(d)
	if par.N != 80 || par.Delta != d.G.MaxDegree() {
		t.Errorf("params = %+v", par)
	}
	if par.Kappa1 < 1 || par.Kappa2 < par.Kappa1 {
		t.Errorf("kappa = %d/%d", par.Kappa1, par.Kappa2)
	}
	if err := par.Validate(); err != nil {
		t.Error(err)
	}
}

func TestRunCoreVerifies(t *testing.T) {
	d := topology.RandomUDG(topology.UDGConfig{N: 60, Side: 5, Radius: 1.2, Seed: 2})
	par := MeasureParams(d)
	run, err := RunCore(d, par, radio.WakeSynchronous(d.N()), 3, defaultBudget(par), core0)
	if err != nil {
		t.Fatal(err)
	}
	if !run.Correct() {
		t.Fatalf("run incorrect: %v", run.Report)
	}
	if run.Leaders == 0 || len(run.Colors) != d.N() || len(run.TCs) != d.N() {
		t.Errorf("run bookkeeping: leaders=%d", run.Leaders)
	}
}

func TestDefaultBudgetFloor(t *testing.T) {
	d := topology.Ring(10)
	par := MeasureParams(d)
	if defaultBudget(par) < 1_000_000 {
		t.Error("budget below floor")
	}
}

func TestTrialSeedDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for cell := 0; cell < 10; cell++ {
		for trial := 0; trial < 5; trial++ {
			s := trialSeed(1, cell, trial)
			if seen[s] {
				t.Fatalf("duplicate seed %d", s)
			}
			seen[s] = true
		}
	}
}

func TestLookupAndRegistry(t *testing.T) {
	if len(Registry) != 27 {
		t.Fatalf("registry has %d entries, want 27", len(Registry))
	}
	seen := map[string]bool{}
	for _, e := range Registry {
		if e.ID == "" || e.Reproduces == "" || e.Run == nil {
			t.Errorf("incomplete entry %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
	if Lookup("E3") == nil || Lookup("E3").ID != "E3" {
		t.Error("Lookup(E3) failed")
	}
	if Lookup("nope") != nil {
		t.Error("Lookup(nope) should be nil")
	}
}

// The per-experiment smoke tests run each generator at tiny scale and
// assert the table has the promised shape. These are integration tests
// of the full stack (topology → protocol → verify → stats).

func checkTable(t *testing.T, tb *stats.Table, minRows int) {
	t.Helper()
	if tb.NumRows() < minRows {
		t.Fatalf("table %q has %d rows, want ≥ %d:\n%s", tb.Title, tb.NumRows(), minRows, tb)
	}
	if tb.Title == "" {
		t.Error("untitled table")
	}
}

func TestE1Smoke(t *testing.T)  { checkTable(t, E1Kappa(quickOpts()), 8) }
func TestE6Smoke(t *testing.T)  { checkTable(t, E6Locality(quickOpts()), 2) }
func TestE12Smoke(t *testing.T) { checkTable(t, E12Messages(quickOpts()), 3) }

func TestE26Smoke(t *testing.T) {
	tb := E26TiledKernel(quickOpts())
	checkTable(t, tb, 2)
	// Field-for-field identity between the tiled and one-tile runs is
	// the experiment's contract at every scale, including smoke scale.
	if !strings.Contains(tb.String(), "/1") || strings.Contains(tb.String(), "0/1") {
		t.Errorf("tiled run not identical to one tile:\n%s", tb)
	}
}

func TestE27Smoke(t *testing.T) {
	tb := E27RecolorChurn(quickOpts())
	checkTable(t, tb, 2)
	// The experiment's contract: every trial repairs to a proper
	// coloring strictly faster than the cold start converged (the
	// `proper` column counts trials satisfying both), at every scale.
	if !strings.Contains(tb.String(), "/1") || strings.Contains(tb.String(), "0/1") {
		t.Errorf("perturbation repair not strictly faster than cold start:\n%s", tb)
	}
}

func TestE25Smoke(t *testing.T) {
	tb := E25CrossModel(quickOpts())
	checkTable(t, tb, 3)
	// On a matched-noise deployment the graph rule must succeed at
	// small scale; the table's first row carries its correct count.
	if !strings.Contains(tb.String(), "graph") || !strings.Contains(tb.String(), "sinr") {
		t.Errorf("missing model rows:\n%s", tb)
	}
}

func TestE3SmokeAndShape(t *testing.T) {
	tb := E3TimeVsDelta(quickOpts())
	checkTable(t, tb, 6)
	// The last row carries the power fit; at tiny scale we only assert
	// it rendered.
	if !strings.Contains(tb.String(), "T ∝ Δ^") {
		t.Errorf("missing fit row:\n%s", tb)
	}
}

func TestE7Smoke(t *testing.T) {
	tb := E7ParamSweep(Options{Trials: 1, SizeFactor: 0.3, Seed: 3})
	checkTable(t, tb, 7)
	if !strings.Contains(tb.String(), "γ/γ_th") {
		t.Errorf("missing theoretical comparison:\n%s", tb)
	}
}

func TestE9Smoke(t *testing.T) {
	tb := E9Wakeup(quickOpts())
	checkTable(t, tb, len(radio.WakePatterns))
}

func TestE11Smoke(t *testing.T) {
	tb := E11Ablation(quickOpts())
	checkTable(t, tb, 3)
	s := tb.String()
	if !strings.Contains(s, "full algorithm") || !strings.Contains(s, "naive reset rule") {
		t.Errorf("missing variants:\n%s", s)
	}
}

func TestLognHelper(t *testing.T) {
	if logn(2) != 1 || logn(4) != 2 || logn(5) != 3 || logn(1024) != 10 {
		t.Errorf("logn: %v %v %v %v", logn(2), logn(4), logn(5), logn(1024))
	}
}

func TestE2Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow matrix")
	}
	checkTable(t, E2Correctness(quickOpts()), 6*len(radio.WakePatterns))
}

func TestE4Smoke(t *testing.T) {
	tb := E4TimeVsN(quickOpts())
	checkTable(t, tb, 4)
	if !strings.Contains(tb.String(), "ln n") {
		t.Errorf("missing log fit:\n%s", tb)
	}
}

func TestE5Smoke(t *testing.T) {
	tb := E5Colors(quickOpts())
	checkTable(t, tb, 6)
	if !strings.Contains(tb.String(), "#colors = ") {
		t.Errorf("missing linear fit:\n%s", tb)
	}
}

func TestE8Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow baselines")
	}
	tb := E8Baselines(quickOpts())
	checkTable(t, tb, 16)
	s := tb.String()
	for _, name := range []string{"ours", "busch", "aloha", "luby(mp)"} {
		if !strings.Contains(s, name) {
			t.Errorf("missing algorithm %s:\n%s", name, s)
		}
	}
}

func TestE10Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow metrics sweep")
	}
	checkTable(t, E10UnitBall(quickOpts()), 5)
}

func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite")
	}
	var b strings.Builder
	if err := RunAll(&b, Options{Trials: 1, SizeFactor: 0.25, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, e := range Registry {
		if !strings.Contains(out, e.ID+" — ") {
			t.Errorf("suite output missing %s", e.ID)
		}
	}
}

func TestE13Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow square-graph runs")
	}
	tb := E13Distance2(quickOpts())
	checkTable(t, tb, 2)
	s := tb.String()
	if !strings.Contains(s, "1-hop") || !strings.Contains(s, "distance-2") {
		t.Errorf("missing variants:\n%s", s)
	}
}

func TestE14Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow adaptive runs")
	}
	tb := E14AdaptiveDelta(quickOpts())
	checkTable(t, tb, 2)
	if !strings.Contains(tb.String(), "estimated Δ") {
		t.Errorf("missing adaptive row:\n%s", tb)
	}
}

func TestE15Smoke(t *testing.T) {
	tb := E15RandomIDs(quickOpts())
	checkTable(t, tb, 3)
	if !strings.Contains(tb.String(), "P ≤") {
		t.Errorf("missing analytical bound:\n%s", tb)
	}
}

func TestE16Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow loss sweep")
	}
	tb := E16MessageLoss(quickOpts())
	checkTable(t, tb, 5)
	if !strings.Contains(tb.String(), "×") {
		t.Errorf("missing slowdown column:\n%s", tb)
	}
}

func TestE17Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow dual-engine runs")
	}
	tb := E17Unaligned(quickOpts())
	checkTable(t, tb, 2)
	if !strings.Contains(tb.String(), "unaligned") {
		t.Errorf("missing unaligned row:\n%s", tb)
	}
}

func TestE18Smoke(t *testing.T) {
	tb := E18MISFromScratch(quickOpts())
	checkTable(t, tb, 3)
	if !strings.Contains(tb.String(), "%") {
		t.Errorf("missing percentage column:\n%s", tb)
	}
}

func TestE19Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow reduction runs")
	}
	tb := E19ColorReduction(quickOpts())
	checkTable(t, tb, 3)
	if !strings.Contains(tb.String(), "after reduction") {
		t.Errorf("missing reduction row:\n%s", tb)
	}
}

func TestE20Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow capture sweep")
	}
	tb := E20CaptureEffect(quickOpts())
	checkTable(t, tb, 4)
}

func TestE21Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow channel sweep")
	}
	tb := E21MultiChannel(quickOpts())
	checkTable(t, tb, 4)
}

func TestE22Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow collection runs")
	}
	tb := E22DataCollection(quickOpts())
	checkTable(t, tb, 3)
	if !strings.Contains(tb.String(), "distance-2") {
		t.Errorf("missing schedule row:\n%s", tb)
	}
}

func TestE23Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow adversary search")
	}
	tb := E23AdversarySearch(quickOpts())
	checkTable(t, tb, 3)
}

func TestE24Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow fault sweep")
	}
	tb := E24FaultInjection(quickOpts())
	checkTable(t, tb, 5)
	// The hard-violation column is the safety verdict: it must be 0 at
	// every loss rate.
	var buf strings.Builder
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	anyDown := false
	for _, ln := range lines[1:] {
		fields := strings.Split(ln, ",")
		if fields[1] != "0" {
			t.Errorf("hard violations in row %q", ln)
		}
		if down, err := strconv.ParseFloat(fields[6], 64); err == nil && down > 0 {
			anyDown = true
		}
	}
	// Vacuity guard: the crash schedule must actually fell nodes — a
	// window past the run's termination slot would leave every row 0.
	if !anyDown {
		t.Error("no row reports nodes down; crash schedule never fired")
	}
}
