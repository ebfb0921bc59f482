package radio_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"radiocolor/internal/core"
	"radiocolor/internal/graph"
	"radiocolor/internal/radio"
	"radiocolor/internal/topology"
)

// These tests pin the CSR kernel bit-for-bit to the retained seed slot
// loop (reference.go): over randomized graphs × wakeup schedules ×
// seeds, every engine variant — reference and CSR, Workers ∈ {1, 4} —
// must produce an identical Result (colors, slots, message counts). Any
// divergence means the rewritten kernel silently changed the model.

// diffCase is one (graph, schedule, seed) cell of the matrix.
type diffCase struct {
	name    string
	g       *graph.Graph
	wake    []int64
	seed    int64
	drop    float64
	capture float64
}

// diffBudget bounds each run: bit-identity must hold whether or not the
// protocol terminated, so a fixed budget keeps the matrix fast while
// still crossing wake-up ramps, contention peaks, and decisions.
const diffBudget = 2200

func erdosRenyi(n int, p float64, seed int64) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				b.AddEdge(i, j)
			}
		}
	}
	return b.Build()
}

// diffParams measures protocol parameters for g the same way the
// experiment runner does, at test-sized budgets.
func diffParams(g *graph.Graph) core.Params {
	k := g.Kappa(graph.KappaOptions{Budget: 20_000, MaxNeighborhood: 60})
	return core.Practical(g.N(), g.MaxDegree(), k.K1, k.K2)
}

func diffCases(t *testing.T) []diffCase {
	t.Helper()
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"er50", erdosRenyi(50, 0.08, 11)},
		{"er50dense", erdosRenyi(50, 0.2, 12)},
		{"udg60", topology.UDGWithTargetDegree(60, 8, 13).G},
		{"clique12", topology.Clique(12).G},
		{"star30", topology.Star(30).G},
	}
	var cases []diffCase
	for _, gr := range graphs {
		par := diffParams(gr.g)
		for _, pat := range radio.WakePatterns {
			for _, seed := range []int64{1, 42} {
				c := diffCase{
					name: fmt.Sprintf("%s/%s/seed%d", gr.name, pat.Name, seed),
					g:    gr.g,
					wake: pat.Make(gr.g.N(), par.WaitSlots(), seed),
					seed: seed,
				}
				cases = append(cases, c)
			}
		}
	}
	// Drop and capture exercise the stateless coins, which must agree
	// across kernels and worker counts too.
	base := graphs[0].g
	par := diffParams(base)
	wake := radio.WakeUniform(base.N(), 4*par.WaitSlots(), 7)
	cases = append(cases,
		diffCase{name: "er50/drop", g: base, wake: wake, seed: 7, drop: 0.2},
		diffCase{name: "er50/capture", g: base, wake: wake, seed: 7, capture: 0.5},
		diffCase{name: "er50/drop+capture", g: base, wake: wake, seed: 7, drop: 0.1, capture: 0.3},
	)
	return cases
}

// runVariant executes one engine variant on fresh protocol instances and
// returns the Result together with the per-node colors and intra-cluster
// colors the protocols decided on.
func runVariant(t *testing.T, c diffCase, workers int, reference bool) (*radio.Result, []int32, []int32) {
	t.Helper()
	par := diffParams(c.g)
	nodes, protos := core.Nodes(c.g.N(), c.seed, par, core.Ablation{})
	cfg := radio.Config{
		G: c.g, Protocols: protos, Wake: c.wake,
		MaxSlots: diffBudget, NEstimate: par.N,
		DropProb: c.drop, DropSeed: c.seed, CaptureProb: c.capture,
		Workers: workers,
	}
	var res *radio.Result
	var err error
	if reference {
		res, err = radio.RunReference(cfg)
	} else {
		res, err = radio.Run(cfg)
	}
	if err != nil {
		t.Fatalf("%s workers=%d reference=%v: %v", c.name, workers, reference, err)
	}
	colors := make([]int32, len(nodes))
	tcs := make([]int32, len(nodes))
	for i, v := range nodes {
		colors[i] = v.Color()
		tcs[i] = v.TC()
	}
	return res, colors, tcs
}

func TestDifferentialCSRMatchesReference(t *testing.T) {
	cases := diffCases(t)
	if testing.Short() && len(cases) > 12 {
		cases = cases[:12]
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			refRes, refColors, refTCs := runVariant(t, c, 1, true)
			for _, variant := range []struct {
				label     string
				workers   int
				reference bool
			}{
				{"reference/workers=4", 4, true},
				{"csr/workers=1", 1, false},
				{"csr/workers=4", 4, false},
			} {
				res, colors, tcs := runVariant(t, c, variant.workers, variant.reference)
				if !reflect.DeepEqual(res, refRes) {
					t.Fatalf("%s: Result diverged from sequential reference\n ref: %+v\n got: %+v", variant.label, refRes, res)
				}
				if !reflect.DeepEqual(colors, refColors) {
					t.Fatalf("%s: colors diverged from sequential reference", variant.label)
				}
				if !reflect.DeepEqual(tcs, refTCs) {
					t.Fatalf("%s: intra-cluster colors diverged from sequential reference", variant.label)
				}
			}
		})
	}
}

// TestDifferentialScriptedCollisions drives both kernels with scripted
// protocols that force dense simultaneous transmissions — the regime
// where the resolve/deliver rewrite (count accumulation, lowest-sender
// selection, capture) is most likely to drift.
func TestDifferentialScriptedCollisions(t *testing.T) {
	for _, seed := range []int64{3, 9, 27} {
		g := erdosRenyi(40, 0.15, seed)
		r := rand.New(rand.NewSource(seed * 1000))
		scripts := make([][]bool, g.N())
		for i := range scripts {
			scripts[i] = make([]bool, 60)
			for s := range scripts[i] {
				scripts[i][s] = r.Float64() < 0.35
			}
		}
		wake := radio.WakeUniform(g.N(), 20, seed)
		build := func() []radio.Protocol {
			protos := make([]radio.Protocol, g.N())
			for i := range protos {
				protos[i] = &scriptedDiffProto{id: radio.NodeID(i), script: scripts[i]}
			}
			return protos
		}
		run := func(workers int, reference bool) *radio.Result {
			cfg := radio.Config{
				G: g, Protocols: build(), Wake: wake,
				MaxSlots: 120, CaptureProb: 0.4, DropSeed: seed,
				Workers: workers,
			}
			var res *radio.Result
			var err error
			if reference {
				res, err = radio.RunReference(cfg)
			} else {
				res, err = radio.Run(cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		ref := run(1, true)
		for _, w := range []int{1, 4} {
			if got := run(w, false); !reflect.DeepEqual(got, ref) {
				t.Fatalf("seed %d: CSR workers=%d diverged\n ref: %+v\n got: %+v", seed, w, ref, got)
			}
			if got := run(w, true); !reflect.DeepEqual(got, ref) {
				t.Fatalf("seed %d: reference workers=%d diverged\n ref: %+v\n got: %+v", seed, w, ref, got)
			}
		}
	}
}

type scriptedDiffProto struct {
	id     radio.NodeID
	script []bool
	local  int64
	recvs  int
}

type diffMsg struct {
	from radio.NodeID
}

func (m *diffMsg) Sender() radio.NodeID { return m.from }
func (m *diffMsg) Bits(n int) int       { return 16 }

func (p *scriptedDiffProto) Start(slot int64) {}
func (p *scriptedDiffProto) Send(slot int64) radio.Message {
	i := p.local
	p.local++
	if i < int64(len(p.script)) && p.script[i] {
		return &diffMsg{from: p.id}
	}
	return nil
}
func (p *scriptedDiffProto) Recv(slot int64, msg radio.Message) { p.recvs++ }
func (p *scriptedDiffProto) Done() bool                         { return p.local >= int64(len(p.script)) }

// traceEvent is one entry of a whole-run event stream: an Observer
// callback or a protocol phase transition, in emission order.
type traceEvent struct {
	kind    string
	slot    int64
	node    int32
	a, b, c int32 // transmitters (collision); from, to, class (phase)
}

// streamRecorder appends every Observer callback and every phase-hook
// transition to one ordered stream.
type streamRecorder struct{ evs []traceEvent }

func (r *streamRecorder) add(kind string, slot int64, node int32, a, b, c int32) {
	r.evs = append(r.evs, traceEvent{kind, slot, node, a, b, c})
}
func (r *streamRecorder) OnSlot(slot int64) { r.add("slot", slot, -1, 0, 0, 0) }
func (r *streamRecorder) OnWake(slot int64, node radio.NodeID) {
	r.add("wake", slot, int32(node), 0, 0, 0)
}
func (r *streamRecorder) OnTransmit(slot int64, from radio.NodeID, _ radio.Message) {
	r.add("tx", slot, int32(from), 0, 0, 0)
}
func (r *streamRecorder) OnDeliver(slot int64, to radio.NodeID, msg radio.Message) {
	r.add("rx", slot, int32(to), int32(msg.Sender()), 0, 0)
}
func (r *streamRecorder) OnCollision(slot int64, at radio.NodeID, transmitters int) {
	r.add("col", slot, int32(at), int32(transmitters), 0, 0)
}
func (r *streamRecorder) OnDecide(slot int64, node radio.NodeID) {
	r.add("decide", slot, int32(node), 0, 0, 0)
}
func (r *streamRecorder) onPhase(slot int64, node int32, from, to core.Phase, class int32) {
	r.add("phase", slot, node, int32(from), int32(to), class)
}

// recordStream runs one diff case at Workers = 1 with every event seam
// recording into one stream.
func recordStream(t *testing.T, c diffCase, reference bool) []traceEvent {
	t.Helper()
	par := diffParams(c.g)
	nodes, protos := core.Nodes(c.g.N(), c.seed, par, core.Ablation{})
	rec := &streamRecorder{}
	for _, v := range nodes {
		v.SetPhaseHook(rec.onPhase)
	}
	cfg := radio.Config{
		G: c.g, Protocols: protos, Wake: c.wake,
		MaxSlots: diffBudget, NEstimate: par.N,
		DropProb: c.drop, DropSeed: c.seed, CaptureProb: c.capture,
		Observer: rec, Workers: 1,
	}
	var err error
	if reference {
		_, err = radio.RunReference(cfg)
	} else {
		_, err = radio.Run(cfg)
	}
	if err != nil {
		t.Fatalf("%s reference=%v: %v", c.name, reference, err)
	}
	return rec.evs
}

// TestTracedStreamMatchesReference pins the one-tile slot loop's whole
// traced execution to the seed loop, event for event: wake, transmit,
// deliver, collision, decide and slot callbacks plus the protocol's
// phase transitions, interleaved in one stream. Transmissions are
// reported after every Send of the slot (so phase changes made inside
// Send precede them), deliveries in first-touch order, decisions in
// ascending id order.
func TestTracedStreamMatchesReference(t *testing.T) {
	kinds := map[string]bool{}
	for _, c := range diffCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			ref := recordStream(t, c, true)
			got := recordStream(t, c, false)
			for i := 0; i < len(ref) && i < len(got); i++ {
				if got[i] != ref[i] {
					t.Fatalf("event %d diverged: reference %+v, engine %+v", i, ref[i], got[i])
				}
			}
			if len(got) != len(ref) {
				t.Fatalf("stream length %d, reference %d", len(got), len(ref))
			}
			for _, ev := range ref {
				kinds[ev.kind] = true
			}
		})
	}
	for _, k := range []string{"slot", "wake", "tx", "rx", "col", "decide", "phase"} {
		if !kinds[k] {
			t.Errorf("no %q events in any case; stream differential is vacuous", k)
		}
	}
}
