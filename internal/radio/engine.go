package radio

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"radiocolor/internal/churn"
	"radiocolor/internal/fault"
	"radiocolor/internal/graph"
	"radiocolor/internal/medium"
	"radiocolor/internal/obs"
)

// Config describes one simulation run.
type Config struct {
	// G is the communication graph (required).
	G *graph.Graph
	// Protocols holds one Protocol per node (required, len == G.N()).
	Protocols []Protocol
	// Wake holds each node's wake-up slot (required, len == G.N(),
	// non-negative). Generate with the schedules in wakeup.go.
	Wake []int64
	// MaxSlots aborts the run after this many slots (default 50M).
	MaxSlots int64
	// Observer receives trace events. nil (the default) disables the
	// seam entirely: the engines branch on nil per event and allocate
	// nothing. Combine several observers with Observers. A non-nil
	// Observer runs the slot loop sequentially (Workers is ignored), so
	// a traced stream is fully ordered; at Tiles <= 1 it is the reference
	// engine's stream event for event.
	Observer Observer
	// Metrics, when non-nil, receives atomic event counters (see
	// internal/obs). Like Observer, nil costs one branch per event.
	// Metrics is independent of Observer so a shared registry can
	// aggregate across concurrent runs without any fan-out indirection.
	// Being atomic, Metrics does not force a sequential slot loop.
	Metrics *obs.Metrics
	// NEstimate is the network-size estimate used for message-size
	// accounting (default G.N()).
	NEstimate int
	// DropProb injects message loss beyond the model: each successful
	// delivery is independently suppressed with this probability.
	// Deliveries suppressed this way are indistinguishable from
	// collisions to the receiver. Used by failure-injection tests.
	DropProb float64
	// DropSeed seeds the deterministic drop and capture coins.
	DropSeed int64
	// CaptureProb models the capture effect, a deviation ABOVE the
	// model: when exactly two neighbors transmit simultaneously, the
	// stronger signal (deterministically, the lower-indexed transmitter)
	// is still decoded with this probability instead of being lost to
	// the collision. Real radios often exhibit capture; the model
	// assumes none. Used by robustness experiments.
	CaptureProb float64
	// Faults, when non-nil, threads the deterministic fault-injection
	// layer through the slot loop: per-link loss and jamming suppress
	// receptions, crash/restart events fail-stop nodes (see
	// internal/fault). nil (the default) disables the seam entirely —
	// the hot path pays one nil check per phase and the output is
	// bit-identical to a fault-free engine. Compile the injector for
	// exactly G.N() nodes; profiles with clock skew must run through
	// RunUnaligned, and profiles that schedule restarts require the
	// victims' protocols to implement Restartable.
	Faults *fault.Injector
	// Medium, when non-nil, replaces the built-in reception rule (a
	// listener decodes iff exactly one graph neighbor transmits) with a
	// pluggable physical model — SINR with cumulative interference,
	// multi-channel hopping, or any other medium.Instance bound for
	// exactly G.N() nodes (see internal/medium). nil keeps the seam
	// entirely off the hot path: one check per slot, output bit-identical
	// to the pre-seam kernel. On the medium path CaptureProb is ignored
	// (capture is the medium's own semantics), per-listener OnCollision
	// events are not emitted (collisions are counted in aggregate), and
	// fault suppression (jam, loss) applies per reception after the
	// medium resolves, exactly as on the built-in path.
	Medium medium.Instance
	// Churn, when non-nil, threads the dynamic-topology layer through
	// the slot loop: a compiled churn.Plan's batches of node joins,
	// leaves and mobility-derived edge deltas apply incrementally to a
	// dynamic CSR at the start of their slot, before fault events and
	// wake-ups (see internal/churn). nil (the default) disables the
	// seam entirely — the hot path pays one nil check per phase and the
	// output is bit-identical to the static engine. Batches apply
	// single-threaded, so churned runs are bit-identical at any Workers
	// and Tiles setting. Compile the plan for exactly G.N() nodes;
	// churn cannot be combined with a pluggable Medium or with
	// RunUnaligned, joining nodes' protocols must implement Restartable,
	// retraction repair additionally needs Colored, and a node cannot be
	// both a fault crash/restart victim and a churn subject.
	Churn *churn.Plan
	// Workers > 1 runs each slot's two tile sweeps (see Tiles) on that
	// many goroutines, with tiles handed out dynamically. Results are
	// bit-identical to a sequential run: every node owns an independent
	// random stream, tiles write only tile-owned state, and every merge
	// across tiles is order-free (counts add, the winning sender is a
	// min). With Tiles <= 1, Workers > 1 partitions the caller's ids
	// into min(Workers, n) tiles so there is work to share.
	Workers int
	// Tiles partitions node ids into that many contiguous blocks (see
	// tiled.go). Each slot makes two tile-major sweeps: Send plus the
	// intra-tile resolve, then a boundary-exchange merge of cross-tile
	// edges plus deliver and decide. Results are bit-identical at any
	// tile and worker count, which the tiled differential suite pins.
	// Tiling pays off when ids are spatially coherent (relabel with
	// internal/graph HilbertOrder/StripOrder/BFSOrder first) so that
	// most edges stay inside a tile. Tiles < 0 picks a size-based count
	// (AutoTiles); 0 and 1 mean one tile, the degenerate case with no
	// buckets and no boundary exchange. A non-nil Medium resolves the
	// whole slot's transmitter list itself, between the two sweeps.
	// Within a slot a traced run with several tiles emits
	// OnDeliver/OnCollision events grouped by tile; all other event
	// streams, and every Result field, do not depend on the tiling.
	Tiles int
}

// Engine executes a Config slot by slot. Use Run for the common case;
// the step-wise API supports protocols that need outside inspection
// between slots (tests, visualizers).
//
// The slot loop works on the graph's CSR view (one flat edge array plus
// offsets) and is zero-alloc in steady state: per-slot scratch is
// kept valid by standing sentinels rather than cleared, transmissions and undecided nodes
// are tracked in compact lists so no phase scans all n nodes, and a
// transmitter's whole neighborhood is one contiguous read. The original
// slice-chasing slot loop is retained verbatim as the reference engine
// (reference.go); differential tests pin this kernel to it bit-for-bit.
type Engine struct {
	cfg     Config
	n       int
	slot    int64
	awake   []bool
	out     []Message
	order   []int32 // node ids sorted by wake slot
	next    int     // index into order of the next node to wake
	numDone int
	decided []bool
	res     Result

	// CSR view of the topology, hoisted out of the per-edge hot path:
	// node v's neighbors are edges[rowStart[v]:rowEnd[v]]. On a static
	// run rowStart and rowEnd alias the graph's offsets array
	// (rowStart = offsets[:n], rowEnd = offsets[1:]), so every read
	// hits the exact addresses the offsets-based kernel read; under
	// churn they alias the dynamic CSR's headers, which graph.Dyn
	// mutates in place (only the edges array must be re-fetched after
	// a delta, because a row relocation may reallocate it).
	rowStart []int32
	rowEnd   []int32
	edges    []int32

	// Compact activity lists, all in ascending node order. Ascending
	// matters: protocol state and per-node RNG arrays are allocated
	// node-by-node, so an ascending sweep is a regular-stride memory
	// walk the prefetcher can follow, while wake-order iteration is a
	// random permutation that stalls on every node at large n.
	// awakeList holds every awake node; pending the recently woken ones
	// not yet merged into it (its first pendingSorted entries are known
	// ascending, pendScratch is the merge buffer); undecided the awake
	// nodes that have not decided, compacted stably in place as
	// decisions land.
	awakeList     []int32
	pending       []int32
	pendingSorted int
	pendScratch   []int32
	undecided     []int32

	// Per-slot receive scratch. The between-slot invariant: count == 0
	// for awake listeners, count == asleepCount for asleep nodes (set at
	// init, flipped at wake). Resolve treats count == 0 as "first touch
	// this slot", accumulates positive counts, and ignores negative ones
	// (asleep, or this slot's transmitters via txMarker) — negative
	// entries are never modified, so only touched listeners and
	// transmitters need a restore, both on lines already in hand.
	// Packing (from, count) into one 8-byte struct makes the resolve
	// phase's random accesses as dense as possible: eight receivers per
	// cache line.
	rs []recvSlot

	// Tile partition and per-tile sweep scratch (tiled.go); nil only on
	// the RunUnaligned path, whose half-slot loop does not use it.
	ts *tileState
	// silent marks nodes whose protocols declared permanent quiescence
	// (see the Quiescent interface); the Send sweep skips them and the
	// activity lists compact them away. nil unless some protocol
	// implements Quiescent and neither faults nor churn are set.
	silent      []bool
	silentCount int

	// Fault-injection state; nil unless Config.Faults is set (fault.go).
	fs *faultState

	// Dynamic-topology state; nil unless Config.Churn is set (churn.go).
	cs *churnState

	// off is the combined exclusion filter the protocol phases consult:
	// off[v] is true while v is crashed (faults) or absent (churn).
	// nil unless at least one of those seams is active — the plain hot
	// path keeps its single nil check — and the two node sets are
	// validated disjoint, so each seam owns its members' bits.
	off []bool
	// everWoke tracks membership in awakeList∪pending (entries are
	// never removed from those lists), so a fault restart or churn
	// rejoin knows whether the node must be re-inserted or is merely
	// reactivated in place. Allocated with off.
	everWoke []bool
	// woken, rejoinU and rejoinA are slot-prologue scratch shared by
	// the fault and churn seams (both run sequentially, each flushing
	// before the other starts): the surviving wake block, re-inserts
	// into undecided, and re-inserts into the awake lists.
	woken   []int32
	rejoinU []int32
	rejoinA []int32

	// Reception-medium state; nil unless Config.Medium is set
	// (medium.go). listenFn is the standing listener predicate handed to
	// the medium (built once, so the slot loop allocates no closures),
	// recs the reusable reception buffer and tx the slot's transmitters
	// gathered across tiles.
	med      medium.Instance
	listenFn func(int32) bool
	recs     []medium.Reception
	tx       []int32
}

// recvSlot is one receiver's per-slot resolve accumulator. The
// between-slot invariant is count == 0 for awake nodes and
// count == asleepCount for asleep ones, so the resolve phase reads the
// receiver's sleep state from the accumulator it must load anyway and
// never consults the awake array.
type recvSlot struct {
	from  int32 // lowest-indexed transmitting neighbor this slot
	count int32 // transmitting neighbors this slot
}

// asleepCount is the standing count of an asleep receiver: negative, so
// the resolve phase skips the node without consulting the awake array.
// The entry is never modified while the node sleeps; a wake-up resets
// it to 0.
const asleepCount = -1 << 30

// txMarker is the count a node's own transmission stamps into its rs
// entry during the Send phase. Negative like asleepCount, it keeps
// transmitting receivers out of touched, so the deliver phase needs no
// outbox check; the per-slot tx sweep restores the entries to 0.
const txMarker = -1 << 28

// NewEngine validates the configuration and prepares a run.
func NewEngine(cfg Config) (*Engine, error) {
	return newEngine(cfg, false)
}

// newEngine is NewEngine for the aligned slot loop (unaligned false) or
// for RunUnaligned, the only engine that models clock offsets; the
// latter gets no tile state.
func newEngine(cfg Config, unaligned bool) (*Engine, error) {
	if err := validateConfig(&cfg); err != nil {
		return nil, err
	}
	n := cfg.G.N()
	csr := cfg.G.CSR()
	e := &Engine{
		cfg:       cfg,
		n:         n,
		awake:     make([]bool, n),
		out:       make([]Message, n),
		decided:   make([]bool, n),
		rowStart:  csr.Offsets[:n],
		rowEnd:    csr.Offsets[1:],
		edges:     csr.Edges,
		awakeList: make([]int32, 0, n),
		undecided: make([]int32, 0, n),
		rs:        make([]recvSlot, n),
	}
	for i := range e.rs {
		e.rs[i].count = asleepCount // everyone starts asleep
	}
	e.order = wakeOrder(cfg.Wake)
	e.res = newResult(cfg.Wake)
	if cfg.Faults != nil || cfg.Churn != nil {
		e.off = make([]bool, n)
		e.everWoke = make([]bool, n)
	}
	if cfg.Faults != nil {
		fs, err := newFaultState(cfg.Faults, &e.cfg, n, unaligned)
		if err != nil {
			return nil, err
		}
		e.fs = fs
	}
	if cfg.Churn != nil {
		if unaligned {
			return nil, errors.New("radio: churn cannot run through RunUnaligned (the half-slot resolver has a static neighbor view)")
		}
		cs, err := newChurnState(cfg.Churn, &e.cfg, n)
		if err != nil {
			return nil, err
		}
		e.cs = cs
		// Re-aim the CSR view at the dynamic graph: the row-bound
		// headers are mutated in place across deltas, and nodes absent
		// at slot 0 are excluded before anything runs.
		e.rowStart, e.rowEnd = cs.dyn.RowBounds()
		e.edges = cs.dyn.EdgeArray()
		for _, v := range cfg.Churn.InitialAbsent {
			cs.absent[v] = true
			e.off[v] = true
		}
	}
	if cfg.Medium != nil {
		if cfg.Medium.N() != n {
			return nil, fmt.Errorf("radio: medium %q bound for %d nodes, graph has %d", cfg.Medium.Name(), cfg.Medium.N(), n)
		}
		e.med = cfg.Medium
		// The between-slot rs invariant makes the listener predicate one
		// load: count == 0 exactly for awake, non-transmitting,
		// non-crashed nodes (asleep and crashed hold asleepCount,
		// transmitters txMarker during the slot).
		e.listenFn = func(i int32) bool { return e.rs[i].count == 0 }
	}
	if unaligned {
		return e, nil
	}
	ts := newTileState(cfg.Tiles, n, e.rowStart, e.rowEnd, e.edges)
	ts.workers = min(cfg.Workers, ts.tiles)
	ts.fuse = ts.tiles > 1 && cfg.Observer == nil && cfg.Medium == nil
	e.ts = ts
	if cfg.Faults == nil && cfg.Churn == nil && anyQuiescent(cfg.Protocols) {
		// The quiescence seam (tiled.go): allocated up front so parallel
		// tile workers never race to create it. Fault and churn profiles
		// disable it — a restart or rejoin must be able to revive any
		// node, and revived nodes re-enter via the pending list only if
		// they never left the activity lists (conflict repair likewise
		// re-contends a silenced node).
		e.silent = make([]bool, n)
	}
	return e, nil
}

// validateConfig checks and normalizes a Config in place. Shared with
// the reference engine so both reject exactly the same inputs.
func validateConfig(cfg *Config) error {
	if cfg.G == nil {
		return errors.New("radio: nil graph")
	}
	n := cfg.G.N()
	if len(cfg.Protocols) != n {
		return fmt.Errorf("radio: %d protocols for %d nodes", len(cfg.Protocols), n)
	}
	if len(cfg.Wake) != n {
		return fmt.Errorf("radio: %d wake slots for %d nodes", len(cfg.Wake), n)
	}
	for i, w := range cfg.Wake {
		if w < 0 {
			return fmt.Errorf("radio: node %d has negative wake slot %d", i, w)
		}
	}
	if cfg.MaxSlots <= 0 {
		cfg.MaxSlots = 50_000_000
	}
	if cfg.NEstimate <= 0 {
		cfg.NEstimate = n
	}
	if cfg.Workers <= 0 || cfg.Observer != nil {
		cfg.Workers = 1 // a traced run is sequential (see Config.Observer)
	}
	if cfg.Tiles < 0 {
		cfg.Tiles = AutoTiles(n)
	}
	if cfg.Tiles <= 1 {
		cfg.Tiles = cfg.Workers // one tile, or one per worker
	}
	cfg.Tiles = max(1, min(cfg.Tiles, maxTiles, n))
	return nil
}

// wakeOrder returns node ids sorted stably by wake slot (ties keep id
// order, so synchronous schedules wake in ascending id order).
func wakeOrder(wake []int64) []int32 {
	order := make([]int32, len(wake))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		return wake[order[a]] < wake[order[b]]
	})
	return order
}

// newResult initializes the per-run Result bookkeeping.
func newResult(wake []int64) Result {
	res := Result{
		WakeSlot:   append([]int64(nil), wake...),
		DecideSlot: make([]int64, len(wake)),
		PerNodeTx:  make([]int64, len(wake)),
	}
	for i := range res.DecideSlot {
		res.DecideSlot[i] = -1
	}
	return res
}

// splitmix64 advances a SplitMix64 state; used for the stateless drop
// coin so that drops are a pure function of (seed, slot, receiver).
func splitmix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// dropCoin reports whether the delivery to receiver in slot is dropped:
// a pure function of (seed, slot, receiver), so the outcome is identical
// across engines, worker counts and phase orderings.
func dropCoin(seed, slot int64, receiver int32, prob float64) bool {
	if prob <= 0 {
		return false
	}
	h := splitmix64(splitmix64(uint64(seed)^uint64(slot)) ^ uint64(receiver))
	return float64(h>>11)/float64(1<<53) < prob
}

// captureCoin is the equally pure coin for the capture effect.
func captureCoin(seed, slot int64, receiver int32, prob float64) bool {
	if prob <= 0 {
		return false
	}
	h := splitmix64(splitmix64(uint64(seed)^uint64(slot)*0x9E3779B9) ^ uint64(receiver) ^ 0xCA97)
	return float64(h>>11)/float64(1<<53) < prob
}

func (e *Engine) dropped(slot int64, receiver int32) bool {
	return dropCoin(e.cfg.DropSeed, slot, receiver, e.cfg.DropProb)
}

func (e *Engine) captured(slot int64, receiver int32) bool {
	return captureCoin(e.cfg.DropSeed, slot, receiver, e.cfg.CaptureProb)
}

// Step simulates one slot. It returns false when the run is over
// (everyone decided or the slot limit was reached).
//
// The slot runs over the tile partition (tiled.go) in two tile-major
// sweeps: sweep 1 ticks each tile's awake nodes and resolves their
// transmissions, sweep 2 folds the boundary exchange, delivers, and
// detects decisions. At one tile this is the model's plain phase
// sequence — wake, Send, resolve, deliver, decide — over the whole
// network. A pluggable medium resolves and delivers the slot's full
// transmitter list between the sweeps instead.
func (e *Engine) Step() bool {
	t := e.slot
	ob := e.cfg.Observer
	met := e.cfg.Metrics
	ts := e.ts

	e.wakePhase(t, ob, met)
	e.mergePending(ob != nil || e.med != nil)

	// Quiescence compaction: once a quarter of the awake list is
	// permanently silent, rewrite it without those nodes (silent nodes
	// are never in pending — they quiesced after waking). Amortized
	// O(1) per silenced node; the silent flags stay set (the nodes
	// remain valid listeners for the resolve phase).
	if e.silentCount > 0 && e.silentCount*4 >= len(e.awakeList)+len(e.pending) {
		sil := e.silent
		w := 0
		for _, i := range e.awakeList {
			if !sil[i] {
				e.awakeList[w] = i
				w++
			}
		}
		e.awakeList = e.awakeList[:w]
		e.silentCount = 0
	}

	ts.segment(e.awakeList, ts.aSeg)
	ts.segment(e.pending, ts.pSeg)
	ts.segment(e.undecided, ts.uSeg)

	// Sweep 1: Send + intra-tile resolve + boundary bucketing.
	e.sweep(t, (*Engine).tileSendResolve)

	// Counter-side transmission bookkeeping (PerNodeTx, message-size
	// max) happened inside sweep 1 on tile-owned state; only the
	// per-event seams need this sequential pass. It follows every Send
	// of the slot, as in the reference engine, and is ascending on the
	// traced path, where pending is always empty.
	if ob != nil || met != nil {
		for k := 0; k < ts.tiles; k++ {
			for _, v := range ts.txs[k] {
				if ob != nil {
					ob.OnTransmit(t, NodeID(v), e.out[v])
				}
				if met != nil {
					met.AddTransmission()
				}
			}
		}
	}

	if e.med != nil {
		// Media accumulate floats, so they see one ascending transmitter
		// list (pending was merged above) whatever the tiling.
		e.tx = e.tx[:0]
		for k := 0; k < ts.tiles; k++ {
			e.tx = append(e.tx, ts.txs[k]...)
		}
		e.mediumResolveDeliver(t, ob, met)
	}

	// Sweep 2: boundary exchange + deliver + decide.
	e.sweep(t, (*Engine).tileDeliverDecide)

	// Fold the per-tile tallies in tile order (sums are order-free).
	for k := 0; k < ts.tiles; k++ {
		tl := &ts.tallies[k]
		e.res.Transmissions += int64(len(ts.txs[k]))
		if tl.maxBits > e.res.MaxMessageBits {
			e.res.MaxMessageBits = tl.maxBits
		}
		e.res.Deliveries += tl.deliveries
		e.res.Captures += tl.captures
		e.res.Collisions += tl.collisions
		e.res.Jammed += tl.jammed
		e.res.Lost += tl.lost
		e.numDone += int(tl.decisions)
		e.silentCount += int(tl.silenced)
		*tl = tileTally{}
	}

	// Squash the per-tile undecided survivors back into one compact
	// list. Tile k's survivors sit at [uSeg[k], uSeg[k]+uLen[k]); the
	// forward copy is safe because the write cursor never passes a
	// tile's own segment start.
	w := ts.uLen[0]
	for k := 1; k < ts.tiles; k++ {
		w += copy(e.undecided[w:], e.undecided[ts.uSeg[k]:ts.uSeg[k]+ts.uLen[k]])
	}
	e.undecided = e.undecided[:w]

	// Transmitter cleanup. Runs after both sweeps because a remote
	// tile's deliver reads e.out[from] across the tile boundary.
	for k := 0; k < ts.tiles; k++ {
		for _, v := range ts.txs[k] {
			e.out[v] = nil
			e.rs[v].count = 0 // transmitters return to the awake-idle state
		}
	}

	return e.finishSlot(t, ob, met)
}

// mergePending keeps pending sorted and folds it into awakeList when
// flush is set (a traced or medium run, whose transmitter lists must be
// ascending) or once it exceeds an eighth of the merged list. The
// sweeps walk per-tile segments of both sorted lists; rather than
// re-sorting pending every slot, its sorted prefix length is tracked
// and only this slot's appended block (one ascending wake run, plus
// any restart rejoins) is sorted and merged in — O(|pending|) per
// slot, and O(n) merge work over any wake ramp.
func (e *Engine) mergePending(flush bool) {
	if len(e.pending) == 0 {
		return
	}
	if e.pendingSorted < len(e.pending) {
		suffix := e.pending[e.pendingSorted:]
		if !ascending32(suffix) {
			sortInt32s(suffix)
		}
		if e.pendingSorted > 0 {
			e.pendScratch = append(e.pendScratch[:0], suffix...)
			e.pending = mergeSorted(e.pending[:e.pendingSorted], e.pendScratch)
		}
		e.pendingSorted = len(e.pending)
	}
	if flush || len(e.pending) >= 256 && len(e.pending)*8 >= len(e.awakeList) {
		e.awakeList = mergeSorted(e.awakeList, e.pending)
		e.pending = e.pending[:0]
		e.pendingSorted = 0
	}
}

// wakePhase applies the slot's churn batches, fault events and
// wake-ups, sequentially, before any protocol ticks.
func (e *Engine) wakePhase(t int64, ob Observer, met *obs.Metrics) {
	// Topology batches (joins/leaves/edge deltas) and fault events
	// (crash/restart) take effect at the start of the slot, before any
	// protocol runs.
	if e.cs != nil {
		e.churnBeginSlot(t, ob, met)
	}
	if e.fs != nil {
		e.faultBeginSlot(t, ob, met)
	}

	// Wake-ups scheduled for this slot. The block e.order[prevNext:next]
	// is in ascending id order (wakeOrder sorts stably, so ties keep id
	// order), letting the sorted activity lists absorb it with one
	// backward merge each. The filtered variant additionally consumes
	// nodes that are crashed or absent at their wake slot without
	// starting them.
	if e.off != nil {
		e.filteredWake(t, ob, met)
		return
	}
	prevNext := e.next
	for e.next < e.n && e.cfg.Wake[e.order[e.next]] == t {
		id := e.order[e.next]
		e.awake[id] = true
		e.rs[id].count = 0 // standing state flips from asleep to awake-idle
		if ob != nil {
			ob.OnWake(t, NodeID(id))
		}
		if met != nil {
			met.AddWakeup()
		}
		e.cfg.Protocols[id].Start(t)
		e.next++
	}
	if e.next > prevNext {
		woken := e.order[prevNext:e.next]
		e.undecided = mergeSorted(e.undecided, woken)
		// Newly woken ids go to a small pending list first; merging the
		// whole awake list every slot of a long wake ramp would cost
		// O(awake) per slot. The pending list is flushed once it exceeds
		// an eighth of the merged list, so total merge work stays O(n)
		// over any ramp while Send still walks mostly-ascending ids.
		e.pending = append(e.pending, woken...)
	}
}

// finishSlot is the shared slot epilogue: end-of-slot seams, counters,
// and the termination check.
func (e *Engine) finishSlot(t int64, ob Observer, met *obs.Metrics) bool {
	if ob != nil {
		ob.OnSlot(t)
	}
	if met != nil {
		met.AddSlot()
	}
	e.slot++
	simulatedSlots.Add(1)
	e.res.Slots = e.slot
	if e.cs != nil && e.slot <= e.cs.last {
		// Churn batches remain: a scheduled perturbation (join, leave,
		// or mobility delta) must not be skipped by early termination,
		// even if every currently present node has decided. This is
		// what lets one run measure recolor convergence after a
		// perturbation of an already converged coloring.
		return e.slot < e.cfg.MaxSlots
	}
	if e.numDone == e.n {
		e.res.AllDone = true
		return false
	}
	never := 0
	if e.fs != nil {
		never += e.fs.neverDone
	}
	if e.cs != nil {
		never += e.cs.neverDone
	}
	if never > 0 && e.numDone+never == e.n {
		// Graceful degradation: every node that can still decide has;
		// the remainder are down or gone for good. AllDone stays false
		// so callers see the run as incomplete.
		return false
	}
	return e.slot < e.cfg.MaxSlots
}

// sortInt32s sorts ids ascending. Used on the out-of-order tail of the
// pending wake list and on fault/churn rejoin blocks.
func sortInt32s(ids []int32) {
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
}

// ascending32 reports whether ids is already sorted ascending — true
// for every wake block, so the incremental pending merge only pays for
// a sort when fault restarts or churn joins interleaved with wakes.
func ascending32(ids []int32) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i] < ids[i-1] {
			return false
		}
	}
	return true
}

// mergeSorted merges the ascending block add into the ascending list
// dst in place (backward merge over the appended tail), preserving
// ascending order. add must not alias dst.
func mergeSorted(dst, add []int32) []int32 {
	old := len(dst)
	dst = append(dst, add...)
	if old == 0 || dst[old-1] < add[0] {
		return dst // already in order (synchronous and sequential wakes)
	}
	i, j := old-1, len(add)-1
	for k := len(dst) - 1; j >= 0; k-- {
		if i >= 0 && dst[i] > add[j] {
			dst[k] = dst[i]
			i--
		} else {
			dst[k] = add[j]
			j--
		}
	}
	return dst
}

// Result returns the statistics accumulated so far. It is valid after
// the run finishes (Step returned false) and between steps.
func (e *Engine) Result() *Result {
	if e.fs != nil {
		e.res.Down = e.downList(e.res.Down[:0])
	}
	if e.cs != nil {
		e.res.Left = e.cs.leftList(e.res.Left[:0])
	}
	return &e.res
}

// downList appends the currently crashed nodes to dst in ascending
// order: the combined off filter minus the churn layer's absentees
// (the two sets are disjoint by validation).
func (e *Engine) downList(dst []int32) []int32 {
	for i, o := range e.off {
		if o && (e.cs == nil || !e.cs.absent[i]) {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

// Slot returns the next slot to be simulated.
func (e *Engine) Slot() int64 { return e.slot }

// Run executes the configuration to completion and returns the result.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// cancelCheckMask gates the cancellation poll in the run loops: the
// context is consulted once every 1024 slots, keeping the select off
// the per-slot hot path (a full slot simulates n Send calls, so 1024
// slots bound the cancellation latency to well under a millisecond of
// wall time at realistic sizes).
const cancelCheckMask = 1024 - 1

// RunContext executes the configuration to completion, polling ctx
// every 1024 slots. On cancellation it returns ctx.Err() and no result.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	done := ctx.Done()
	for e.Step() {
		if done != nil && e.slot&cancelCheckMask == 0 {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
	}
	return e.Result(), nil
}
