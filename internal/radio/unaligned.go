package radio

import (
	"context"
	"errors"
	"fmt"
)

// Non-aligned slot boundaries. Sect. 2 of the paper: "all analytical
// results carry over to the practical non-aligned case with an
// additional small constant factor, since each time slot can overlap
// with at most two time-slots of a neighbor [29]". This engine makes
// that claim testable: every node's local clock is shifted by half a
// slot (offset 0 or 1 half-slots), transmissions occupy two consecutive
// half-slots, receivers listen continuously while not transmitting, and
// a message is received iff no other audible transmission overlaps its
// two half-slots and the receiver transmits in neither.
//
// Protocols run unchanged. Experiment E17 measures the claimed
// small-constant slowdown and the preservation of correctness.

// RunUnaligned executes cfg under half-slot clock offsets. offsets[i] ∈
// {0, 1} is node i's clock shift in half-slots; nil derives a
// deterministic pseudo-random assignment from the node index. The
// parallel Workers option is ignored (the unaligned resolver is
// sequential).
func RunUnaligned(cfg Config, offsets []int8) (*Result, error) {
	return RunUnalignedContext(context.Background(), cfg, offsets)
}

// RunUnalignedContext is RunUnaligned with cancellation, polled every
// 1024 slots like RunContext. This engine is also the home of the
// fault layer's clock-skew profiles: a Config.Faults injector with
// skew supplies the offsets (pass nil to use them), and its loss,
// jam, and crash faults apply here exactly as in the aligned kernel.
func RunUnalignedContext(ctx context.Context, cfg Config, offsets []int8) (*Result, error) {
	if cfg.Medium != nil {
		// The half-slot resolver models overlap between offset slots; a
		// pluggable medium has no notion of half-slots, so the
		// combination is rejected rather than silently ignored.
		return nil, errors.New("radio: RunUnaligned does not support a pluggable medium")
	}
	// The half-slot resolver below is its own sequential loop, so the
	// engine is built without tile state; only validation and the
	// result bookkeeping are reused.
	e, err := newEngine(cfg, true)
	if err != nil {
		return nil, err
	}
	n := e.n
	if offsets == nil && cfg.Faults != nil && cfg.Faults.HasSkew() {
		offsets = cfg.Faults.SkewOffsets(n)
	}
	if offsets == nil {
		offsets = make([]int8, n)
		for i := range offsets {
			offsets[i] = int8(NodeRand(0x0FF5E7, NodeID(i)).Intn(2))
		}
	}
	if len(offsets) != n {
		return nil, fmt.Errorf("radio: %d offsets for %d nodes", len(offsets), n)
	}
	for i, off := range offsets {
		if off != 0 && off != 1 {
			return nil, fmt.Errorf("radio: node %d has offset %d, want 0 or 1", i, off)
		}
	}
	u := &unaligned{e: e, offsets: offsets}
	u.init()
	done := ctx.Done()
	for u.step() {
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

// txRec is one in-flight transmission: initiated in slot "slot" by
// "node", occupying half-slots h0 and h0+1.
type txRec struct {
	node NodeID
	msg  Message
	h0   int64
}

type unaligned struct {
	e       *Engine
	offsets []int8

	// occ[u][h&7] counts transmitting neighbors of u in half-slot h;
	// selfTx[u][h&7] marks u transmitting in h. Ring of 8 half-slots (a half is cleared 2–3 slots before it is resolved, so 4 would alias).
	occ    [][8]int16
	selfTx [][8]bool

	prev []txRec // transmissions initiated in the previous slot
}

func (u *unaligned) init() {
	n := u.e.n
	u.occ = make([][8]int16, n)
	u.selfTx = make([][8]bool, n)
}

// clearHalf zeroes ring entries for half-slot h across all nodes.
func (u *unaligned) clearHalf(h int64) {
	idx := h & 7
	for i := range u.occ {
		u.occ[i][idx] = 0
		u.selfTx[i][idx] = false
	}
}

func (u *unaligned) step() bool {
	e := u.e
	t := e.slot
	ob := e.cfg.Observer
	met := e.cfg.Metrics

	// Fault events first, then wake-ups. Crashed nodes clear e.awake,
	// which every sweep below already consults, so the crash/restart
	// machinery is shared with the aligned kernel.
	if e.fs != nil {
		e.faultBeginSlot(t, ob, met)
	}
	for e.next < e.n && e.cfg.Wake[e.order[e.next]] == t {
		id := e.order[e.next]
		e.next++
		if e.off != nil && e.off[id] {
			continue // fail-stopped before waking; restart handles rejoin
		}
		e.awake[id] = true
		if e.everWoke != nil {
			e.everWoke[id] = true
		}
		if ob != nil {
			ob.OnWake(t, NodeID(id))
		}
		if met != nil {
			met.AddWakeup()
		}
		e.cfg.Protocols[id].Start(t)
	}

	// This slot's transmissions touch half-slots 2t .. 2t+2. Halves
	// 2t+1 and 2t+2 are first touched now; zero their ring entries.
	u.clearHalf(2*t + 1)
	u.clearHalf(2*t + 2)

	// Send phase.
	var cur []txRec
	for i := 0; i < e.n; i++ {
		if !e.awake[i] {
			continue
		}
		msg := e.cfg.Protocols[i].Send(t)
		if msg == nil {
			continue
		}
		h0 := 2*t + int64(u.offsets[i])
		cur = append(cur, txRec{node: NodeID(i), msg: msg, h0: h0})
		e.res.Transmissions++
		e.res.PerNodeTx[i]++
		if bits := msg.Bits(e.cfg.NEstimate); bits > e.res.MaxMessageBits {
			e.res.MaxMessageBits = bits
		}
		if ob != nil {
			ob.OnTransmit(t, NodeID(i), msg)
		}
		if met != nil {
			met.AddTransmission()
		}
		for _, h := range [2]int64{h0, h0 + 1} {
			u.selfTx[i][h&7] = true
			for _, w := range e.edges[e.rowStart[i]:e.rowEnd[i]] {
				u.occ[w][h&7]++
			}
		}
	}

	// Resolve the previous slot's transmissions: their half-slots
	// (2(t−1) .. 2t) are now finalized.
	for _, tx := range u.prev {
		v := int(tx.node)
		for _, w := range e.edges[e.rowStart[v]:e.rowEnd[v]] {
			if !e.awake[w] {
				continue
			}
			blocked := false
			collided := false
			for _, h := range [2]int64{tx.h0, tx.h0 + 1} {
				idx := h & 7
				if u.selfTx[w][idx] {
					blocked = true
				}
				if u.occ[w][idx] > 1 {
					blocked = true
					collided = true
				}
			}
			if blocked {
				if collided {
					e.res.Collisions++
					if ob != nil {
						ob.OnCollision(t, NodeID(w), 2)
					}
					if met != nil {
						met.AddCollision()
					}
				}
				continue
			}
			if e.fs != nil && e.faultSuppressed(t, int32(v), w, &e.res.Jammed, &e.res.Lost, met) {
				continue
			}
			if e.dropped(t, w) {
				if met != nil {
					met.AddDrop()
				}
				continue
			}
			e.res.Deliveries++
			if ob != nil {
				ob.OnDeliver(t, NodeID(w), tx.msg)
			}
			if met != nil {
				met.AddDelivery()
			}
			e.cfg.Protocols[w].Recv(t, tx.msg)
		}
	}
	u.prev = cur

	// Decision detection, as in the aligned engine.
	for i := 0; i < e.n; i++ {
		if !e.decided[i] && e.awake[i] && e.cfg.Protocols[i].Done() {
			e.decided[i] = true
			e.numDone++
			e.res.DecideSlot[i] = t
			if ob != nil {
				ob.OnDecide(t, NodeID(i))
			}
			if met != nil {
				met.AddDecision()
			}
		}
	}
	if ob != nil {
		ob.OnSlot(t)
	}
	if met != nil {
		met.AddSlot()
	}
	e.slot++
	simulatedSlots.Add(1)
	e.res.Slots = e.slot
	if e.numDone == e.n {
		e.res.AllDone = true
		return false
	}
	if e.fs != nil && e.numDone+e.fs.neverDone == e.n {
		return false // every node that can still decide has (see engine.go)
	}
	return e.slot < e.cfg.MaxSlots
}
