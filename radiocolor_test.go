package radiocolor

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
)

func TestColorGraphPath(t *testing.T) {
	adj := [][]int{{1}, {0, 2}, {1, 3}, {2}}
	out, err := ColorGraph(adj, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK() {
		t.Fatalf("outcome not OK: %+v", out)
	}
	for v, ns := range adj {
		for _, u := range ns {
			if out.Colors[v] == out.Colors[u] {
				t.Errorf("adjacent nodes %d, %d share color %d", v, u, out.Colors[v])
			}
		}
	}
	if len(out.Leaders) == 0 {
		t.Error("no leaders")
	}
	if out.MaxLatency <= 0 || out.Slots <= 0 {
		t.Errorf("timing missing: %+v", out)
	}
}

func TestColorGraphValidation(t *testing.T) {
	if _, err := ColorGraph(nil, Options{}); err == nil {
		t.Error("empty graph accepted")
	}
	if _, err := ColorGraph([][]int{{0}}, Options{}); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := ColorGraph([][]int{{5}}, Options{}); err == nil {
		t.Error("out-of-range neighbor accepted")
	}
	if _, err := ColorGraph([][]int{{1}, {0}}, Options{WakeupName: "bogus"}); err == nil {
		t.Error("unknown wakeup accepted")
	}
}

func TestColorUnitDisk(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	points := make([][2]float64, 70)
	for i := range points {
		points[i] = [2]float64{r.Float64() * 5, r.Float64() * 5}
	}
	out, err := ColorUnitDisk(points, 1.2, Options{Seed: 9, WakeupName: "uniform"})
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK() {
		t.Fatalf("outcome not OK: proper=%v complete=%v", out.Proper, out.Complete)
	}
	// UDG parameter bounds from Sect. 2.
	if out.Kappa1 > 5 || out.Kappa2 > 18 {
		t.Errorf("κ out of UDG bounds: %d/%d", out.Kappa1, out.Kappa2)
	}
	if out.MaxColor >= (out.Delta)*(out.Kappa2+1)+out.Kappa2 {
		t.Errorf("max color %d out of O(κ₂Δ) band", out.MaxColor)
	}
}

func TestColorUnitDiskValidation(t *testing.T) {
	if _, err := ColorUnitDisk([][2]float64{{0, 0}}, 0, Options{}); err == nil {
		t.Error("non-positive radius accepted")
	}
}

func TestTDMAFromOutcome(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	points := make([][2]float64, 60)
	for i := range points {
		points[i] = [2]float64{r.Float64() * 4, r.Float64() * 4}
	}
	out, err := ColorUnitDisk(points, 1.1, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := out.TDMA()
	if err != nil {
		t.Fatal(err)
	}
	if s.DirectConflicts != 0 {
		t.Errorf("TDMA has %d direct conflicts", s.DirectConflicts)
	}
	if s.MaxInterferers > out.Kappa1 {
		t.Errorf("interferers %d exceed κ₁ %d", s.MaxInterferers, out.Kappa1)
	}
	if s.FrameLen != out.MaxColor+1 {
		t.Errorf("frame length %d vs max color %d", s.FrameLen, out.MaxColor)
	}
	if s.SuccessRate <= 0 || s.SuccessRate > 1 {
		t.Errorf("success rate %v", s.SuccessRate)
	}
	for v, l := range s.LocalFrameLens {
		if l < 1 || l > s.FrameLen {
			t.Errorf("local frame len[%d] = %d", v, l)
		}
	}
}

func TestTDMARejectsBadOutcome(t *testing.T) {
	out := &Outcome{Proper: false, Complete: true}
	if _, err := out.TDMA(); err == nil {
		t.Error("improper outcome scheduled")
	}
}

func TestDeterministicAcrossWorkers(t *testing.T) {
	adj := [][]int{}
	const n = 40
	for i := 0; i < n; i++ {
		var ns []int
		if i > 0 {
			ns = append(ns, i-1)
		}
		if i < n-1 {
			ns = append(ns, i+1)
		}
		adj = append(adj, ns)
	}
	a, err := ColorGraph(adj, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ColorGraph(adj, Options{Seed: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Colors {
		if a.Colors[i] != b.Colors[i] {
			t.Fatalf("worker count changed node %d: %d vs %d", i, a.Colors[i], b.Colors[i])
		}
	}
	if a.Slots != b.Slots {
		t.Errorf("slot counts differ: %d vs %d", a.Slots, b.Slots)
	}
}

func TestParamScaleSlowsButColors(t *testing.T) {
	adj := [][]int{{1, 2}, {0, 2}, {0, 1}}
	fast, err := ColorGraph(adj, Options{Seed: 6, ParamScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := ColorGraph(adj, Options{Seed: 6, ParamScale: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !fast.OK() || !slow.OK() {
		t.Fatal("triangle runs failed")
	}
	if slow.MaxLatency <= fast.MaxLatency {
		t.Errorf("scaling up constants should slow the run: %d vs %d", slow.MaxLatency, fast.MaxLatency)
	}
}

func TestMaxSlotsBudgetRespected(t *testing.T) {
	adj := [][]int{{1}, {0}}
	out, err := ColorGraph(adj, Options{Seed: 1, MaxSlots: 5})
	if err != nil {
		t.Fatal(err)
	}
	if out.Complete {
		t.Error("5 slots cannot complete the protocol")
	}
	if out.Slots > 5 {
		t.Errorf("budget exceeded: %d", out.Slots)
	}
}

// TestTilingPublic pins the public tiled-kernel surface: a tiled run
// produces a proper complete coloring, is bit-deterministic for fixed
// options (including across worker counts), maps fault reports back to
// caller node ids, and rejects invalid Tiling values. The underlying
// engine identity is pinned by the internal/radio differential suite;
// this is the library-level wrapper contract (relabel, run, map back).
func TestTilingPublic(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	points := make([][2]float64, 90)
	for i := range points {
		points[i] = [2]float64{r.Float64() * 5, r.Float64() * 5}
	}
	tiled, err := ColorUnitDisk(points, 1.2, Options{Seed: 3, Tiling: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !tiled.OK() {
		t.Fatalf("tiled outcome not OK: proper=%v complete=%v", tiled.Proper, tiled.Complete)
	}

	// Determinism across worker counts: tiles are order-free, so the
	// parallel sweeps must not change a single field.
	again, err := ColorUnitDisk(points, 1.2, Options{Seed: 3, Tiling: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(tiled)
	b, _ := json.Marshal(again)
	if !bytes.Equal(a, b) {
		t.Fatalf("tiled outcome changed with Workers=4:\n %s\n %s", a, b)
	}

	// Auto tile count on the pure-graph path (BFS relabeling).
	adj := [][]int{}
	const n = 48
	for i := 0; i < n; i++ {
		adj = append(adj, []int{(i + n - 1) % n, (i + 1) % n})
	}
	ring, err := ColorGraph(adj, Options{Seed: 7, Tiling: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !ring.OK() {
		t.Fatalf("tiled ring outcome not OK: %+v", ring)
	}

	// Fault reports must speak original node ids after the internal
	// relabeling: crash node 5 permanently and expect exactly it down.
	fc, err := ParseFaults("crash=5@40")
	if err != nil {
		t.Fatal(err)
	}
	crashed, err := ColorGraph(adj, Options{Seed: 7, Tiling: 4, Faults: fc})
	if err != nil {
		t.Fatal(err)
	}
	if crashed.Faults == nil || len(crashed.Faults.Down) != 1 || crashed.Faults.Down[0] != 5 {
		t.Fatalf("crashed node not mapped back to caller id 5: %+v", crashed.Faults)
	}

	// Invalid Tiling is a validation error, caught before any work.
	if _, err := ColorGraph(adj, Options{Tiling: -2}); err == nil {
		t.Error("Tiling=-2 accepted")
	}
}

func TestTilingCrashRestartRegression(t *testing.T) {
	// fault.Profile.Permute under Options.Tiling, composed with a
	// restart schedule: the crash victim's id must follow it through
	// the relabeling, the restarted node must re-decide, and every
	// report must speak caller ids. Regression guard for the permute ×
	// restart × tiling composition, which no other test exercised. The
	// restart slot (2500) sits far past cold convergence (~850 slots on
	// this ring), so a decision after it can only belong to the victim
	// or a neighbor stalled waiting on it — anything else is an id
	// mapped back through the wrong permutation.
	adj := [][]int{}
	const n = 48
	for i := 0; i < n; i++ {
		adj = append(adj, []int{(i + n - 1) % n, (i + 1) % n})
	}
	fc, err := ParseFaults("crash=5@40:2500")
	if err != nil {
		t.Fatal(err)
	}
	out, err := ColorGraph(adj, Options{Seed: 7, Tiling: 4, Faults: fc})
	if err != nil {
		t.Fatal(err)
	}
	fo := out.Faults
	if fo == nil || fo.Crashes != 1 || fo.Restarts != 1 {
		t.Fatalf("fault counters: %+v", fo)
	}
	if len(fo.Down) != 0 {
		t.Errorf("restarted node still down: %v", fo.Down)
	}
	if !out.OK() {
		t.Fatalf("restarted run not OK: proper=%v complete=%v", out.Proper, out.Complete)
	}
	// The victim's decision postdates its restart (latency counts from
	// its original wake at slot 0).
	if out.PerNodeLatency[5] < 2500 {
		t.Errorf("node 5 latency %d predates its restart at slot 2500", out.PerNodeLatency[5])
	}
	// Only the victim's 2-hop ring neighborhood may be dragged past the
	// restart slot by waiting on it.
	for v, l := range out.PerNodeLatency {
		if l >= 2500 && (v < 3 || v > 7) {
			t.Errorf("node %d latency %d postdates the restart (id mapping)", v, l)
		}
	}

	// One-tile reference: the same schedule without relabeling agrees on
	// the fault verdict (executions differ numerically; the contract is
	// the verdict, not the colors).
	ref, err := ColorGraph(adj, Options{Seed: 7, Faults: fc})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Faults == nil || ref.Faults.Crashes != 1 || ref.Faults.Restarts != 1 || !ref.OK() {
		t.Fatalf("one-tile reference disagrees: %+v ok=%v", ref.Faults, ref.OK())
	}
	if ref.PerNodeLatency[5] < 2500 {
		t.Errorf("one-tile node 5 latency %d predates its restart", ref.PerNodeLatency[5])
	}
}
