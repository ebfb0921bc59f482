package radio

import (
	"sync"
	"sync/atomic"
)

// The tiled slot kernel, the body of Engine.Step. A slot that streamed
// four global phases over all n nodes — Send, resolve, deliver, decide
// — would re-walk a working set far beyond cache at 1M+ nodes and go
// memory-bound. The slot loop instead partitions node ids into
// contiguous blocks ("tiles", ~32k nodes) and makes two tile-major
// sweeps:
//
//	sweep 1, per tile: Send every awake node of the tile, then resolve
//	  each transmitter's intra-tile neighbors against the tile's own
//	  receive accumulators; neighbors outside the tile are bucketed as
//	  (receiver, sender) pairs into a per-(source,destination) exchange
//	  bucket instead of touching remote accumulators.
//	sweep 2, per tile: fold the tile's incoming exchange buckets (the
//	  boundary exchange — only cross-tile edges enter this merge), then
//	  deliver to the tile's touched listeners and run decision
//	  detection over the tile's undecided segment.
//
// One tile is the degenerate case: every edge is intra-tile, so there
// are no buckets and sweep 2 is the plain deliver and decide phases.
// After a locality-preserving relabeling (internal/graph HilbertOrder /
// StripOrder / BFSOrder) almost all edges are intra-tile, so one tile's
// slot work — its protocols, accumulators and list segments, a couple
// of MB — stays cache-resident across fused phases instead of being
// streamed four times. Because every accumulator merge is order-free
// (counts add, the winning sender is a min) and the per-node coins are
// pure functions of (seed, slot, node), the loop is bit-identical at
// any tile and worker count; the tiled differential suite pins this,
// and the reference differential pins one tile to the seed loop.
// Tiles are independent, so under Workers > 1 both sweeps distribute
// tiles over goroutines with a barrier between the sweeps (a non-nil
// Observer keeps both sweeps sequential so event streams stay ordered).
//
// The second ingredient is the Quiescent seam: the synthetic bench
// protocol and many real ones permanently fall silent once they have
// decided, and a long asynchronous deployment therefore spends most
// Send calls ticking nodes that can never transmit again. A protocol
// that declares this lets the engine drop it from the Send sweep
// entirely (deliveries to it are still resolved and counted, so every
// Result field is unchanged).

// maxTiles bounds the tile count: the boundary exchange keeps a
// tiles×tiles bucket matrix of slice headers, so the cap keeps that
// matrix (24 MiB at 1024²) from dwarfing the state it organizes.
const maxTiles = 1024

// tileNodes is the tile size AutoTiles aims for: big enough that a
// tile's protocols and accumulators amortize the two-sweep overhead,
// small enough (~2 MB of per-tile state) to stay cache-resident.
const tileNodes = 32 << 10

// AutoTiles returns the tile count Config.Tiles < 0 selects for an
// n-node run: one tile per tileNodes nodes, clamped to [1, maxTiles].
func AutoTiles(n int) int {
	t := n / tileNodes
	if t < 1 {
		t = 1
	}
	if t > maxTiles {
		t = maxTiles
	}
	return t
}

// Quiescent is an optional Protocol extension: a protocol whose
// Quiescent() returns true declares that it has permanently fallen
// silent — every future Send would return nil and its future behavior
// does not depend on further receptions. The engine consults it once,
// in the slot the node's Done() first reports true, and then drops the
// node from the Send sweep and skips its Recv calls; channel
// statistics are unaffected (the node keeps resolving and counting as
// a listener), so results stay bit-identical to an engine that keeps
// ticking the node — which is what the reference engine does, and what
// the tiled differential suite checks. Fault-injected and churned runs
// ignore the seam (a restart or rejoin must be able to revive any
// node).
type Quiescent interface {
	Quiescent() bool
}

// anyQuiescent reports whether some protocol implements Quiescent; the
// engine allocates the silent flags (and pays their per-node checks)
// only then.
func anyQuiescent(protos []Protocol) bool {
	for _, p := range protos {
		if _, ok := p.(Quiescent); ok {
			return true
		}
	}
	return false
}

// crossRef is one cross-tile reception candidate produced by sweep 1:
// sender from (in the source tile) reaches receiver to (in the
// destination tile). Folded into the destination's accumulators during
// sweep 2's boundary exchange.
type crossRef struct {
	to, from int32
}

// tileTally is one tile's share of the order-free per-slot counters.
type tileTally struct {
	deliveries, captures, collisions int64
	jammed, lost                     int64
	decisions                        int64
	silenced                         int64
	maxBits                          int
}

// tileState is the slot loop's standing partition and scratch. All
// per-tile slices are high-water reused ([:0] truncation), so the
// steady state allocates nothing.
type tileState struct {
	tiles   int
	size    int32 // nodes per tile; tile of node v is v/size
	workers int   // goroutines per sweep: 1 on a traced run

	// rowLo/rowHi split node v's sorted CSR row edges[rowStart[v]:
	// rowEnd[v]] into the cross-below, intra-tile and cross-above
	// spans: [rowLo, rowHi) are v's neighbors inside v's own tile. At
	// one tile they alias rowStart/rowEnd.
	rowLo, rowHi []int32

	// interior[v] marks nodes whose whole neighborhood lives in v's own
	// tile. No boundary-exchange bucket can ever target them, so their
	// receive state is final at the end of their tile's first sweep and
	// (when fuse is set) they are delivered to and decision-polled right
	// there, while the tile's accumulators and protocol state are still
	// cache-hot. After a locality relabeling almost every node is
	// interior, leaving sweep 2 only the tile-boundary ring. fuse needs
	// several tiles, no Observer (event order) and no medium (which
	// delivers between the sweeps); interior is nil at one tile.
	interior []bool
	fuse     bool

	// cross[s*tiles+d] is the boundary-exchange bucket from source tile
	// s to destination tile d; only cross-tile edges enter it.
	cross [][]crossRef

	// Per-tile sweep outputs: this slot's transmitters and touched
	// listeners, and the counter tallies folded after sweep 2.
	txs     [][]int32
	touched [][]int32
	tallies []tileTally

	// Per-slot segment bounds of the shared activity lists: tile k owns
	// awakeList[aSeg[k]:aSeg[k+1]], pending[pSeg[k]:pSeg[k+1]] and
	// undecided[uSeg[k]:uSeg[k+1]]. uLen1[k] is the segment length
	// surviving sweep 1's interior decision pass, uLen[k] the final
	// length after sweep 2's boundary pass, used by the sequential
	// squash that re-compacts the list.
	aSeg, pSeg, uSeg []int
	uLen1, uLen      []int
}

// newTileState precomputes the partition for a run: tile bounds and
// the per-node intra-tile row spans. Row bounds come as the engine's
// rowStart/rowEnd view (aliasing either the static offsets array or
// the dynamic CSR's headers); under churn, refreshRows re-derives the
// spans of rows a delta changed. The engine sets workers and fuse.
func newTileState(tiles, n int, rowStart, rowEnd, edges []int32) *tileState {
	size := max(1, (n+tiles-1)/tiles)
	tiles = max(1, (n+size-1)/size) // drop empty trailing tiles
	ts := &tileState{
		tiles:   tiles,
		size:    int32(size),
		workers: 1,
		rowLo:   rowStart,
		rowHi:   rowEnd,
		cross:   make([][]crossRef, tiles*tiles),
		txs:     make([][]int32, tiles),
		touched: make([][]int32, tiles),
		tallies: make([]tileTally, tiles),
		aSeg:    make([]int, tiles+1),
		pSeg:    make([]int, tiles+1),
		uSeg:    make([]int, tiles+1),
		uLen1:   make([]int, tiles),
		uLen:    make([]int, tiles),
	}
	if tiles > 1 {
		ts.rowLo = make([]int32, n)
		ts.rowHi = make([]int32, n)
		ts.interior = make([]bool, n)
		for v := int32(0); v < int32(n); v++ {
			ts.refreshRow(v, rowStart, rowEnd, edges)
		}
	}
	return ts
}

// refreshRows re-derives the intra-tile spans and interior flags of
// the given rows after a churn delta changed them. Runs in the slot
// prologue, single-threaded, before any tile sweep reads the spans.
// An added cross-tile edge can demote an interior node to the boundary
// ring, and a removed one promote it back; both directions are exact
// recomputation, so churned runs stay bit-identical at any tiling. At
// one tile the spans alias the row bounds and need no refresh.
func (ts *tileState) refreshRows(rows []int32, rowStart, rowEnd, edges []int32) {
	if ts.tiles == 1 {
		return
	}
	for _, v := range rows {
		ts.refreshRow(v, rowStart, rowEnd, edges)
	}
}

func (ts *tileState) refreshRow(v int32, rowStart, rowEnd, edges []int32) {
	lo, hi := rowStart[v], rowEnd[v]
	tile := v / ts.size
	start, end := tile*ts.size, (tile+1)*ts.size
	ts.rowLo[v] = lowerBound32(edges, lo, hi, start)
	ts.rowHi[v] = lowerBound32(edges, ts.rowLo[v], hi, end)
	ts.interior[v] = ts.rowLo[v] == lo && ts.rowHi[v] == hi
}

// lowerBound32 returns the first index in [lo, hi) whose edge value is
// ≥ bound (rows are sorted ascending).
func lowerBound32(edges []int32, lo, hi, bound int32) int32 {
	for lo < hi {
		mid := lo + (hi-lo)/2
		if edges[mid] < bound {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// segment fills seg with the tile boundaries of the ascending id list:
// seg[k] is the first index whose id belongs to tile ≥ k.
func (ts *tileState) segment(list []int32, seg []int) {
	pos := 0
	seg[0] = 0
	for k := 1; k < ts.tiles; k++ {
		bound := int32(k) * ts.size
		lo, hi := pos, len(list)
		for lo < hi {
			mid := lo + (hi-lo)/2
			if list[mid] < bound {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		pos = lo
		seg[k] = pos
	}
	seg[ts.tiles] = len(list)
}

// sweep runs fn over every tile: in tile order on one goroutine, or on
// ts.workers goroutines with dynamic (work-stealing) tile assignment —
// tiles near the wake ramp's frontier carry most of the load, so
// static ranges would straggle. Safe because fn only touches
// tile-owned state.
func (e *Engine) sweep(t int64, fn func(*Engine, int, int64)) {
	tiles, workers := e.ts.tiles, e.ts.workers
	if workers <= 1 {
		for k := 0; k < tiles; k++ {
			fn(e, k, t)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= tiles {
					return
				}
				fn(e, k, t)
			}
		}()
	}
	wg.Wait()
}

// tileSendResolve is sweep 1 for tile k: tick the tile's awake nodes,
// resolve each transmitter's intra-tile neighbors against the tile's
// own accumulators, and bucket cross-tile neighbors for sweep 2. It
// writes only tile-k-owned state (the tile's protocols and outboxes,
// rs entries of tile-k nodes, the k-th tx/touched lists and the k-th
// bucket row), so tiles are safe to run concurrently. On the medium
// path only the Send half runs: the medium resolves the whole slot.
func (e *Engine) tileSendResolve(k int, t int64) {
	ts := e.ts
	tl := &ts.tallies[k]
	ts.txs[k] = ts.txs[k][:0]
	e.send(t, e.awakeList[ts.aSeg[k]:ts.aSeg[k+1]], &ts.txs[k], tl)
	e.send(t, e.pending[ts.pSeg[k]:ts.pSeg[k+1]], &ts.txs[k], tl)
	txs := ts.txs[k]
	ts.uLen1[k] = ts.uSeg[k+1] - ts.uSeg[k]
	if e.med != nil {
		return
	}

	touched := ts.touched[k]
	if ts.tiles == 1 {
		// Every edge is intra-tile: resolve whole rows and bucket
		// nothing, without loading the (aliased) intra-tile spans.
		for _, v := range txs {
			touched = e.accumulate(e.edges[e.rowStart[v]:e.rowEnd[v]], v, touched)
		}
		ts.touched[k] = touched
		return
	}
	size := ts.size
	tiles := ts.tiles
	for _, v := range txs {
		lo, hi := e.rowStart[v], e.rowEnd[v]
		rlo, rhi := ts.rowLo[v], ts.rowHi[v]
		touched = e.accumulate(e.edges[rlo:rhi], v, touched)
		for _, u := range e.edges[lo:rlo] {
			d := int(u / size)
			ts.cross[k*tiles+d] = append(ts.cross[k*tiles+d], crossRef{to: u, from: v})
		}
		for _, u := range e.edges[rhi:hi] {
			d := int(u / size)
			ts.cross[k*tiles+d] = append(ts.cross[k*tiles+d], crossRef{to: u, from: v})
		}
	}

	// Interior fusion (see tileState.fuse): an interior listener's
	// accumulator can never be reached by a boundary bucket, so its
	// receive state is already final — deliver it and poll its decision
	// now, while the tile's accumulators and protocol state are
	// cache-hot from the resolve loop, instead of re-streaming them in
	// sweep 2. Every touched state (rs, protos, sil, decided,
	// DecideSlot, the tile's tally and undecided segment) is tile-owned,
	// so the pass is safe under Workers > 1. Boundary listeners stay at
	// the front of touched, and non-interior undecided nodes in place,
	// for sweep 2.
	if ts.fuse {
		interior := ts.interior
		w := 0
		for i, u := range touched {
			if !interior[u] {
				touched[w], touched[i] = u, touched[w]
				w++
			}
		}
		e.deliver(t, touched[w:], tl, nil)
		touched = touched[:w]
		lo := ts.uSeg[k]
		ts.uLen1[k] = e.decide(t, e.undecided[lo:ts.uSeg[k+1]], interior, true, tl, nil)
	}
	ts.touched[k] = touched
}

// send ticks the nodes of ids, skipping crashed, absent and silent
// ones, and records each transmitter through transmit. The loop is
// unswitched on the skip filter: every value the loop reads is a stack
// reload after the Send interface call, and on a plain run (no filter)
// the extra checks are a measurable share of the engine's own time.
func (e *Engine) send(t int64, ids []int32, txs *[]int32, tl *tileTally) {
	protos := e.cfg.Protocols
	skip := e.off // crashed or absent nodes; the seams exclude quiescence
	if skip == nil {
		skip = e.silent // permanently silent nodes: Send would return nil
	}
	if skip == nil {
		for _, i := range ids {
			if msg := protos[i].Send(t); msg != nil {
				e.transmit(i, msg, txs, tl)
			}
		}
		return
	}
	for _, i := range ids {
		if !skip[i] {
			if msg := protos[i].Send(t); msg != nil {
				e.transmit(i, msg, txs, tl)
			}
		}
	}
}

// transmit stamps transmitter i's outbox and rs entry and appends it to
// *txs (through the pointer, so no slice header stays live across the
// Send calls). The per-node transmission counter and the tile's
// message-size max are fused in here on tile-owned state; the
// transmission count folds after sweep 2, and the OnTransmit/metrics
// seams run in a sequential pass after sweep 1.
func (e *Engine) transmit(i int32, msg Message, txs *[]int32, tl *tileTally) {
	e.out[i] = msg
	e.rs[i].count = txMarker
	*txs = append(*txs, i)
	e.res.PerNodeTx[i]++
	if bits := msg.Bits(e.cfg.NEstimate); bits > tl.maxBits {
		tl.maxBits = bits
	}
}

// accumulate resolves transmitter v against the receivers in row:
// each listener's count goes up and its lowest sender becomes min(v,
// from). Entries with a negative count (asleep, crashed, or
// transmitting — not listeners) are left untouched. A listener's first
// touch this slot appends it to touched, which is returned.
func (e *Engine) accumulate(row []int32, v int32, touched []int32) []int32 {
	for _, u := range row {
		r := &e.rs[u]
		if r.count == 0 {
			r.count = 1
			r.from = v
			touched = append(touched, u)
		} else if r.count > 0 {
			r.count++
			if v < r.from {
				r.from = v
			}
		}
	}
	return touched
}

// tileDeliverDecide is sweep 2 for tile k: fold the incoming boundary
// buckets (ascending source tile, though any order would merge to the
// same state — counts add, senders min), deliver to the tile's touched
// listeners, and run decision detection over the tile's undecided
// segment. Again only tile-k-owned state is written.
func (e *Engine) tileDeliverDecide(k int, t int64) {
	ts := e.ts
	tl := &ts.tallies[k]
	ob := e.cfg.Observer // non-nil only on the sequential path
	tiles := ts.tiles
	touched := ts.touched[k]

	// Boundary exchange: only cross-tile edges enter this merge.
	for s := 0; s < tiles; s++ {
		bucket := ts.cross[s*tiles+k]
		for _, c := range bucket {
			r := &e.rs[c.to]
			if r.count == 0 {
				r.count = 1
				r.from = c.from
				touched = append(touched, c.to)
			} else if r.count > 0 {
				r.count++
				if c.from < r.from {
					r.from = c.from
				}
			}
		}
		ts.cross[s*tiles+k] = bucket[:0]
	}

	// When fusing, sweep 1 already delivered the tile's interior
	// listeners and polled its interior undecided nodes, so this walks
	// only the boundary ring plus bucket-fold touches; interior
	// survivors are carried through without a second Done poll (a
	// protocol sees exactly one poll per slot). The sequential squash in
	// Step stitches the undecided segments back together.
	e.deliver(t, touched, tl, ob)
	ts.touched[k] = touched[:0]
	var polled []bool
	if ts.fuse {
		polled = ts.interior
	}
	lo := ts.uSeg[k]
	ts.uLen[k] = e.decide(t, e.undecided[lo:lo+ts.uLen1[k]], polled, false, tl, ob)
}

// deliver finishes the touched listeners us for slot t: read-and-clear
// each accumulator, apply the exactly-one rule with capture, drop and
// fault suppression, and hand a successful delivery to the protocol.
// ob is nil on sweep 1's fused interior pass (fusion only runs
// untraced).
func (e *Engine) deliver(t int64, us []int32, tl *tileTally, ob Observer) {
	met := e.cfg.Metrics
	protos := e.cfg.Protocols
	sil := e.silent
	for _, u := range us {
		r := &e.rs[u]
		count, from := r.count, r.from
		r.count = 0
		if count >= 2 {
			if count != 2 || !e.captured(t, u) {
				tl.collisions++
				if ob != nil {
					ob.OnCollision(t, NodeID(u), int(count))
				}
				if met != nil {
					met.AddCollision()
				}
				continue
			}
			// Capture effect: the lowest-indexed transmitter's signal
			// survives the two-way collision.
			if e.fs != nil && e.faultSuppressed(t, from, u, &tl.jammed, &tl.lost, met) {
				continue
			}
			tl.captures++
			if met != nil {
				met.AddCapture()
			}
		} else {
			if e.fs != nil && e.faultSuppressed(t, from, u, &tl.jammed, &tl.lost, met) {
				continue
			}
			if e.dropped(t, u) {
				if met != nil {
					met.AddDrop()
				}
				continue
			}
		}
		tl.deliveries++
		msg := e.out[from]
		if ob != nil {
			ob.OnDeliver(t, NodeID(u), msg)
		}
		if met != nil {
			met.AddDelivery()
		}
		if sil == nil || !sil[u] {
			// A quiescent node's behavior no longer depends on
			// receptions, so the Recv call is skipped; the delivery
			// itself is still counted above.
			protos[u].Recv(t, msg)
		}
	}
}

// decide polls Done over the undecided ids — all of them when polled
// is nil, otherwise those whose polled flag equals want — records each
// new decision, and compacts the survivors in place. It returns the
// number of survivors.
func (e *Engine) decide(t int64, ids []int32, polled []bool, want bool, tl *tileTally, ob Observer) int {
	protos := e.cfg.Protocols
	off := e.off
	w := 0
	if polled == nil && off == nil {
		// The plain run's loop. Each filter check is a stack reload
		// after the Done interface call, a measurable share of the
		// engine's own time on a full undecided list.
		for _, i := range ids {
			if protos[i].Done() {
				e.markDecided(t, i, tl, ob)
			} else {
				ids[w] = i
				w++
			}
		}
		return w
	}
	for _, i := range ids {
		if (polled == nil || polled[i] == want) && (off == nil || !off[i]) && protos[i].Done() {
			e.markDecided(t, i, tl, ob)
		} else {
			ids[w] = i
			w++
		}
	}
	return w
}

// markDecided records node i's decision in slot t and consults the
// Quiescent seam.
func (e *Engine) markDecided(t int64, i int32, tl *tileTally, ob Observer) {
	e.decided[i] = true
	tl.decisions++
	e.res.DecideSlot[i] = t
	if ob != nil {
		ob.OnDecide(t, NodeID(i))
	}
	if met := e.cfg.Metrics; met != nil {
		met.AddDecision()
	}
	if sil := e.silent; sil != nil {
		if q, ok := e.cfg.Protocols[i].(Quiescent); ok && q.Quiescent() {
			sil[i] = true
			tl.silenced++
		}
	}
}
