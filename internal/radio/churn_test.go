package radio

import (
	"reflect"
	"testing"

	"radiocolor/internal/churn"
	"radiocolor/internal/fault"
	"radiocolor/internal/graph"
)

func mustPlan(t *testing.T, s *churn.Schedule, g *graph.Graph) *churn.Plan {
	t.Helper()
	p, err := s.Compile(churn.Env{G: g})
	if err != nil {
		t.Fatal(err)
	}
	if p == nil {
		t.Fatal("active schedule compiled to a nil plan")
	}
	return p
}

func TestChurnLeaveSilencesNode(t *testing.T) {
	// 0-1-2: node 0 transmits every slot but leaves at slot 2. Node 1
	// must hear it in slots 0 and 1 only; the leaver's undecided state
	// must not block termination (final leave, graceful degradation).
	g := line(3)
	protos, cfg := buildScripted(g, [][]bool{
		{true, true, true, true, true, true},
		make([]bool, 6),
		make([]bool, 6),
	}, WakeSynchronous(3))
	protos[0].doneAt = 10_000 // never decides within the run
	cfg.Churn = mustPlan(t, &churn.Schedule{
		Leaves: []churn.Event{{Node: 0, At: 2}},
	}, g)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := protos[1].recvSlot; !reflect.DeepEqual(got, []int64{0, 1}) {
		t.Errorf("node 1 heard slots %v, want [0 1]", got)
	}
	if res.Leaves != 1 || res.Joins != 0 {
		t.Errorf("leaves=%d joins=%d, want 1/0", res.Leaves, res.Joins)
	}
	if !reflect.DeepEqual(res.Left, []int32{0}) {
		t.Errorf("Left = %v, want [0]", res.Left)
	}
	if res.Down != nil {
		t.Errorf("Down = %v for a run without faults", res.Down)
	}
	if res.AllDone {
		t.Error("AllDone with a departed undecided node")
	}
}

func TestChurnLateJoinStartsAtJoinSlot(t *testing.T) {
	// 0-1-2: node 2's first event is a join at slot 3, so it is absent
	// from slot 0 (its wake slot) and must neither start nor hear node
	// 1's beacons until it joins.
	g := line(3)
	protos, cfg := buildScripted(g, [][]bool{
		make([]bool, 8),
		{true, true, true, true, true, true, true, true},
		make([]bool, 8),
	}, WakeSynchronous(3))
	cfg.Churn = mustPlan(t, &churn.Schedule{
		Joins:  []churn.Event{{Node: 2, At: 3}},
		Repair: churn.RepairNone, // scripted protocols don't color
	}, g)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if protos[2].wokeAt != 3 || protos[2].started != 1 {
		t.Errorf("node 2 woke at %d (started %d times), want slot 3 once",
			protos[2].wokeAt, protos[2].started)
	}
	for _, s := range protos[2].recvSlot {
		if s < 3 {
			t.Errorf("node 2 received in slot %d while absent", s)
		}
	}
	if len(protos[2].recvSlot) == 0 {
		t.Error("node 2 heard nothing after joining")
	}
	if res.Joins != 1 {
		t.Errorf("joins=%d, want 1", res.Joins)
	}
	if !res.AllDone {
		t.Error("run should complete once the joiner decides")
	}
	if res.WakeSlot[2] != 0 {
		t.Errorf("WakeSlot[2] = %d, want the scheduled 0", res.WakeSlot[2])
	}
}

func TestChurnRejoinResetsProtocol(t *testing.T) {
	// Node 0 leaves at slot 2 and rejoins at slot 5: its protocol must
	// be Reset and restarted from scratch, exactly like a fault restart.
	g := line(2)
	protos, cfg := buildScripted(g, [][]bool{
		make([]bool, 10),
		{true, true, true, true, true, true, true, true, true, true},
	}, WakeSynchronous(2))
	cfg.Churn = mustPlan(t, &churn.Schedule{
		Leaves: []churn.Event{{Node: 0, At: 2}},
		Joins:  []churn.Event{{Node: 0, At: 5}},
		Repair: churn.RepairNone,
	}, g)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if protos[0].started != 2 {
		t.Errorf("node 0 started %d times, want 2 (wake + rejoin)", protos[0].started)
	}
	if protos[0].wokeAt != 5 {
		t.Errorf("node 0's last start at %d, want rejoin slot 5", protos[0].wokeAt)
	}
	// Reset cleared the pre-leave receptions; everything on record is
	// post-rejoin.
	for _, s := range protos[0].recvSlot {
		if s < 5 {
			t.Errorf("reception at slot %d survived the reset", s)
		}
	}
	if res.Joins != 1 || res.Leaves != 1 {
		t.Errorf("joins=%d leaves=%d, want 1/1", res.Joins, res.Leaves)
	}
	if len(res.Left) != 0 {
		t.Errorf("Left = %v after a rejoin", res.Left)
	}
	if !res.AllDone {
		t.Error("run should complete after the rejoin")
	}
}

func TestChurnKeepsRunningThroughScheduledBatches(t *testing.T) {
	// Everyone decides within a few slots, but a join is scheduled at
	// slot 40: the run must not terminate early, apply the perturbation,
	// and only finish once the late joiner has decided too.
	g := line(3)
	_, cfg := buildScripted(g, [][]bool{
		{true}, make([]bool, 1), make([]bool, 1),
	}, WakeSynchronous(3))
	cfg.Churn = mustPlan(t, &churn.Schedule{
		Joins:  []churn.Event{{Node: 2, At: 40}},
		Repair: churn.RepairNone,
	}, g)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slots <= 40 {
		t.Errorf("run ended at slot %d, before the scheduled join at 40", res.Slots)
	}
	if res.Joins != 1 || !res.AllDone {
		t.Errorf("joins=%d allDone=%v, want 1/true", res.Joins, res.AllDone)
	}
	if res.DecideSlot[2] < 40 {
		t.Errorf("node 2 decided at %d, before it joined", res.DecideSlot[2])
	}
}

// recolorProto decides immediately with a preassigned color; a Reset
// (conflict retraction or rejoin) makes it re-decide with a fallback
// color on its next tick. It never transmits — repair semantics are
// the engine's, not the protocol's, so the scripted minimum suffices.
type recolorProto struct {
	color, fallback int32
	resets          int
	done            bool
}

func (p *recolorProto) Start(int64) {}
func (p *recolorProto) Send(int64) Message {
	p.done = true
	return nil
}
func (p *recolorProto) Recv(int64, Message) {}
func (p *recolorProto) Done() bool          { return p.done }
func (p *recolorProto) Color() int32        { return p.color }
func (p *recolorProto) Reset() {
	p.resets++
	p.color = p.fallback
	p.done = false
}

func TestChurnRepairRetractsLaterDecider(t *testing.T) {
	// Nodes 0 and 2 are not adjacent and both pick color 7; node 2
	// wakes (and so decides) later. At slot 10 mobility is approximated
	// by a leave/rejoin of node 1 — but the conflict edge comes from a
	// geometric compile in the churn package tests; here the adds are
	// produced by node 2 itself leaving and rejoining, which re-adds
	// its edges. To get a direct 0-2 conflict edge the graph is a
	// triangle minus (0,2) with node 1 absent, so node 2's rejoin adds
	// edge (0,2)... that edge does not exist in the base graph, so
	// instead: node 0 and node 1 are adjacent in the base graph, same
	// color, and node 1 leaves at 5 and rejoins at 10. The rejoin
	// re-adds (0,1), both endpoints decided with color 7 — but the
	// rejoiner itself was just reset, so no conflict. The genuine
	// standing-vs-standing conflict therefore uses three nodes: 1
	// leaves before anyone decides, 0 and 2 (only connected through 1)
	// decide with the same color, and 1's rejoin re-adds edges to both
	// — no conflict on those either (1 is fresh). The only edge that
	// can conflict is one between two standing decided nodes, which in
	// a non-geometric compile only appears via a rejoin. So: make the
	// conflict by REJOINING A DECIDED NEIGHBORHOOD — nodes 0-1 adjacent,
	// 1 absent from slot 0 (late join at 8). Node 0 decides with 7 at
	// its first tick; node 1 joins at 8, decides with 7 at slot 8; no
	// repair (the join added the edge before 1 decided). Conflict
	// repair across a join therefore needs the joiner to already be
	// decided — impossible, a join always resets. The retraction path
	// is thus exercised directly through a crafted Plan instead of a
	// compiled schedule.
	g := line(3) // 0-1-2; edge (0,2) absent in the base graph
	protos := []Protocol{
		&recolorProto{color: 7, fallback: 3},
		&recolorProto{color: 1, fallback: 2},
		&recolorProto{color: 7, fallback: 9},
	}
	wake := []int64{0, 0, 2} // node 2 decides later -> it is the victim
	plan := planWithConflictEdge(t, g)
	cfg := Config{G: g, Protocols: protos, Wake: wake, MaxSlots: 100, Churn: plan}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ConflictsRepaired != 1 {
		t.Fatalf("ConflictsRepaired = %d, want 1", res.ConflictsRepaired)
	}
	p0 := protos[0].(*recolorProto)
	p2 := protos[2].(*recolorProto)
	if p0.resets != 0 || p2.resets != 1 {
		t.Errorf("resets: node0=%d node2=%d, want 0/1 (later decider retracts)", p0.resets, p2.resets)
	}
	if p0.Color() == p2.Color() {
		t.Errorf("conflict persists: both endpoints hold color %d", p0.Color())
	}
	if !res.AllDone {
		t.Error("victim should have re-decided")
	}
	if res.DecideSlot[2] < 10 {
		t.Errorf("victim's decide slot %d predates the retraction", res.DecideSlot[2])
	}
}

// planWithConflictEdge builds a hand-crafted one-batch plan that adds
// edge (0,2) at slot 10, the shape a geometric (mobility) compile
// produces when two same-colored nodes drift into range.
func planWithConflictEdge(t *testing.T, g *graph.Graph) *churn.Plan {
	t.Helper()
	// A leave/rejoin pair on node 1 carries the batch; the add of
	// (0,2) is injected into the compiled batch exactly where a mover
	// delta would sit. Using the compiler keeps the plan's invariants
	// (sorted joins, exact leave deltas) intact.
	plan := mustPlan(t, &churn.Schedule{
		Leaves: []churn.Event{{Node: 1, At: 9}},
		Joins:  []churn.Event{{Node: 1, At: 10}},
	}, g)
	last := &plan.Batches[len(plan.Batches)-1]
	if last.Slot != 10 {
		t.Fatalf("expected the rejoin batch at slot 10, got %d", last.Slot)
	}
	last.Delta.Adds = append(last.Delta.Adds, [2]int32{0, 2})
	return plan
}

func TestChurnBitIdenticalAcrossWorkersAndTiles(t *testing.T) {
	// One fixed schedule, four engine shapes: results must match
	// bit-for-bit at any worker and tile count.
	const n = 64
	g := line(n)
	sched := &churn.Schedule{
		Leaves: []churn.Event{{Node: 5, At: 3}, {Node: 40, At: 6}, {Node: 17, At: 9}},
		Joins:  []churn.Event{{Node: 5, At: 12}, {Node: 40, At: 15}, {Node: 63, At: 4}},
		Repair: churn.RepairNone,
	}
	run := func(workers, tiles int) *Result {
		scripts := make([][]bool, n)
		wake := make([]int64, n)
		for i := range scripts {
			s := make([]bool, 20)
			for j := range s {
				s[j] = (i+j)%7 == 0 // deterministic sparse beaconing
			}
			scripts[i] = s
			wake[i] = int64(i % 5)
		}
		_, cfg := buildScripted(g, scripts, wake)
		cfg.Workers = workers
		cfg.Tiles = tiles
		cfg.Churn = mustPlan(t, sched, g)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(1, 0)
	for _, shape := range [][2]int{{4, 0}, {1, 4}, {4, 4}} {
		got := run(shape[0], shape[1])
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Workers=%d Tiles=%d diverged:\n got %+v\nwant %+v", shape[0], shape[1], got, want)
		}
	}
}

func TestChurnRejectsInvalidCombinations(t *testing.T) {
	g := line(3)
	_, cfg := buildScripted(g, [][]bool{{true}, {false}, {false}}, WakeSynchronous(3))
	plan := mustPlan(t, &churn.Schedule{
		Leaves: []churn.Event{{Node: 0, At: 2}},
		Joins:  []churn.Event{{Node: 0, At: 5}},
		Repair: churn.RepairNone, // so each case below fails for its own reason
	}, g)

	// Fault victim overlap.
	cfg.Churn = plan
	cfg.Faults = mustInjector(t, &fault.Profile{
		Crashes: []fault.Crash{{Node: 0, At: 3}},
	}, 3)
	if _, err := NewEngine(cfg); err == nil {
		t.Error("engine accepted a node that is both crash victim and churn subject")
	}
	cfg.Faults = nil

	// Unaligned runner.
	if _, err := RunUnaligned(cfg, nil); err == nil {
		t.Error("RunUnaligned accepted a churn plan")
	}

	// Joiner without Restartable.
	bad := Config{
		G:         g,
		Protocols: []Protocol{&fixedProto{}, &fixedProto{}, &fixedProto{}},
		Wake:      WakeSynchronous(3),
		Churn:     plan,
	}
	if _, err := NewEngine(bad); err == nil {
		t.Error("engine accepted a rejoin for a non-Restartable protocol")
	}

	// Wrong size.
	small := Config{G: line(2), Protocols: make([]Protocol, 2), Wake: WakeSynchronous(2), Churn: plan}
	for i := range small.Protocols {
		small.Protocols[i] = &scriptProto{doneAt: -1}
	}
	if _, err := NewEngine(small); err == nil {
		t.Error("engine accepted a plan compiled for a different node count")
	}
}

// TestChurnUnsetZeroAlloc pins the fifth seam's no-regression contract
// from both sides: with Config.Churn nil the slot loop allocates
// nothing per slot under live traffic, and with a plan whose batches
// are exhausted the churn cursor check itself is also allocation-free
// (steady state between and after perturbations).
func TestChurnUnsetZeroAlloc(t *testing.T) {
	n := 32
	build := func(plan *churn.Plan) *Engine {
		protos := make([]Protocol, n)
		for i := range protos {
			protos[i] = &beaconProto{msg: &testMsg{}, mod: 3}
		}
		e, err := NewEngine(Config{
			G: line(n), Protocols: protos, Wake: WakeSynchronous(n),
			MaxSlots: 1 << 40, Churn: plan,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	e := build(nil)
	e.Step()
	if allocs := testing.AllocsPerRun(500, func() { e.Step() }); allocs != 0 {
		t.Errorf("nil-churn engine allocates %v per slot under traffic, want 0", allocs)
	}

	// Leaves-only plan (no Restartable requirement): after the last
	// batch slot the churned engine's steady state is allocation-free
	// too.
	ec := build(mustPlan(t, &churn.Schedule{
		Leaves: []churn.Event{{Node: 0, At: 1}},
	}, line(n)))
	for i := 0; i < 4; i++ {
		ec.Step() // run past the batch at slot 1
	}
	if allocs := testing.AllocsPerRun(500, func() { ec.Step() }); allocs != 0 {
		t.Errorf("churned engine allocates %v per slot after its last batch, want 0", allocs)
	}
}
