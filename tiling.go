package radiocolor

import (
	"radiocolor/internal/graph"
	"radiocolor/internal/radio"
)

// Support for Options.Tiling: the relabeling pass that makes the tiled
// kernel's contiguous-range tiles spatially coherent, and the adapters
// that keep the relabeling invisible — every event and every Outcome
// field is mapped back to the caller's node ids before anyone sees it.
// The permutation-differential suite in internal/radio pins the
// underlying identity: a tiled run on the relabeled graph, mapped back
// through the inverse permutation, is byte-identical to a one-tile run
// of the same execution.

// tilingPermutation picks the locality order for a tiled run: Hilbert
// curve when node positions are known (geometric entry points), BFS
// order on the bare graph otherwise.
func tilingPermutation(g *graph.Graph, xs, ys []float64) graph.Permutation {
	if xs != nil {
		return graph.HilbertOrder(xs, ys)
	}
	return graph.BFSOrder(g)
}

// invObserver maps the node ids of every engine event back through a
// relabeling's inverse before handing them to the inner observer, so
// collectors, tracers and caller observers all speak original ids.
type invObserver struct {
	inner radio.Observer
	inv   []int32
}

func (o invObserver) node(v radio.NodeID) radio.NodeID { return radio.NodeID(o.inv[v]) }

// invMsg re-labels a message's sender; all other message behavior
// (payload size accounting) passes through.
type invMsg struct {
	radio.Message
	sender radio.NodeID
}

func (m invMsg) Sender() radio.NodeID { return m.sender }

func (o invObserver) mapMsg(msg radio.Message) radio.Message {
	if msg == nil {
		return nil
	}
	return invMsg{Message: msg, sender: o.node(msg.Sender())}
}

func (o invObserver) OnSlot(slot int64)                 { o.inner.OnSlot(slot) }
func (o invObserver) OnWake(slot int64, v radio.NodeID) { o.inner.OnWake(slot, o.node(v)) }
func (o invObserver) OnTransmit(slot int64, from radio.NodeID, msg radio.Message) {
	o.inner.OnTransmit(slot, o.node(from), o.mapMsg(msg))
}
func (o invObserver) OnDeliver(slot int64, to radio.NodeID, msg radio.Message) {
	o.inner.OnDeliver(slot, o.node(to), o.mapMsg(msg))
}
func (o invObserver) OnCollision(slot int64, at radio.NodeID, transmitters int) {
	o.inner.OnCollision(slot, o.node(at), transmitters)
}
func (o invObserver) OnDecide(slot int64, v radio.NodeID) {
	o.inner.OnDecide(slot, o.node(v))
}

// mapTiledResult rewrites a relabeled run's Result into original node
// ids: per-node arrays gathered through Forward, the down list mapped
// through Inverse (re-sorted ascending), scalar counters verbatim.
func mapTiledResult(res *radio.Result, p graph.Permutation) *radio.Result {
	n := len(p.Forward)
	mapped := *res
	mapped.WakeSlot = make([]int64, n)
	mapped.DecideSlot = make([]int64, n)
	mapped.PerNodeTx = make([]int64, n)
	for v := 0; v < n; v++ {
		mapped.WakeSlot[v] = res.WakeSlot[p.Forward[v]]
		mapped.DecideSlot[v] = res.DecideSlot[p.Forward[v]]
		mapped.PerNodeTx[v] = res.PerNodeTx[p.Forward[v]]
	}
	if len(res.Down) > 0 {
		down := make([]int32, len(res.Down))
		for i, v := range res.Down {
			down[i] = p.Inverse[v]
		}
		sortInt32Asc(down)
		mapped.Down = down
	}
	if len(res.Left) > 0 {
		left := make([]int32, len(res.Left))
		for i, v := range res.Left {
			left[i] = p.Inverse[v]
		}
		sortInt32Asc(left)
		mapped.Left = left
	}
	return &mapped
}

func sortInt32Asc(xs []int32) {
	// Insertion sort: down lists are tiny (crashed nodes only).
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
