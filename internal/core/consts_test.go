package core

import (
	"fmt"
	"math"
	"testing"

	"radiocolor/internal/radio"
)

// constsGrid is every Params the compiled-constant tests cover: both
// constructors, scales from far below to far above the practical
// constants, network sizes from a single node to a million, and a few
// κ pairs.
func constsGrid() []Params {
	var grid []Params
	for _, build := range []func(n, delta, kappa1, kappa2 int) Params{Practical, Theoretical} {
		for _, s := range []float64{1.0 / 64, 0.5, 1, 2, 8} {
			for _, n := range []int{1, 2, 5, 250, 1_000_000} {
				for _, delta := range []int{2, 14, 300} {
					for _, k := range [][2]int{{1, 2}, {5, 18}, {3, 7}, {10, 40}} {
						grid = append(grid, build(n, delta, k[0], k[1]).Scale(s))
					}
				}
			}
		}
	}
	return grid
}

func TestCompiledConstantsMatchParams(t *testing.T) {
	for _, p := range constsGrid() {
		v := NewNode(0, radio.NodeRand(1, 0), p, Ablation{})
		k := v.k
		name := fmt.Sprintf("%+v", p)
		if k.threshold != p.Threshold() {
			t.Errorf("%s: threshold = %d, Threshold() = %d", name, k.threshold, p.Threshold())
		}
		if want := max(1, p.WaitSlots()); k.wait != want || k.wait < 1 {
			t.Errorf("%s: wait = %d, want max(1, WaitSlots()) = %d", name, k.wait, want)
		}
		if want := max(1, p.ServeSlots()); k.serve != want || k.serve < 1 {
			t.Errorf("%s: serve = %d, want max(1, ServeSlots()) = %d", name, k.serve, want)
		}
		for _, class := range []int32{0, 1, 2, 19, 1000} {
			if got, want := k.crit(class), p.CriticalRange(class); got != want {
				t.Errorf("%s: crit(%d) = %d, CriticalRange = %d", name, class, got, want)
			}
		}
		if math.Float64bits(k.pSend) != math.Float64bits(p.PSend()) {
			t.Errorf("%s: pSend = %v, PSend() = %v", name, k.pSend, p.PSend())
		}
		if math.Float64bits(k.pLeader) != math.Float64bits(p.PLeader()) {
			t.Errorf("%s: pLeader = %v, PLeader() = %v", name, k.pLeader, p.PLeader())
		}
		if k.stride != int32(p.Kappa2)+1 {
			t.Errorf("%s: stride = %d, κ₂+1 = %d", name, k.stride, p.Kappa2+1)
		}
	}
}

func TestNodeConstantsIgnoreLaterParamsChanges(t *testing.T) {
	p := Practical(250, 14, 5, 18)
	v := NewNode(0, radio.NodeRand(1, 0), p, Ablation{})
	before := v.k
	p = p.Scale(8)
	p.N, p.Delta, p.Kappa2 = 1_000_000, 300, 40
	if v.k != before {
		t.Fatalf("node constants moved with the caller's Params: %+v → %+v", before, v.k)
	}
}

// bitsForLog2 is the floating-point definition bitsFor must agree with.
func bitsForLog2(v int64) int {
	if v <= 1 {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(v + 1))))
}

func TestBitsForMatchesLog2(t *testing.T) {
	for v := int64(0); v <= 1<<20; v++ {
		if got, want := bitsFor(v), bitsForLog2(v); got != want {
			t.Fatalf("bitsFor(%d) = %d, ⌈log₂(v+1)⌉ = %d", v, got, want)
		}
	}
	for k := 0; k < 40; k++ {
		for _, v := range []int64{1<<k - 1, 1 << k, 1<<k + 1} {
			if got, want := bitsFor(v), bitsForLog2(v); got != want {
				t.Errorf("bitsFor(%d) = %d, ⌈log₂(v+1)⌉ = %d", v, got, want)
			}
		}
	}
}

// idBitsLog2 is the floating-point definition idBits must agree with.
func idBitsLog2(n int) int {
	if n < 2 {
		n = 2
	}
	return int(math.Ceil(3 * math.Log2(float64(n))))
}

func TestIDBitsMatchesLog2(t *testing.T) {
	for n := -1; n < 1<<21; n++ {
		if got, want := idBits(n), idBitsLog2(n); got != want {
			t.Fatalf("idBits(%d) = %d, ⌈3 log₂ n⌉ = %d", n, got, want)
		}
	}
	// Near each boundary 2^(k/3), where ⌈3 log₂ n⌉ steps from k to k+1,
	// on both sides of the integer range.
	for k := 1; k <= 120; k++ {
		b := int(math.Round(math.Exp2(float64(k) / 3)))
		for n := b - 3; n <= b+3; n++ {
			if got, want := idBits(n), idBitsLog2(n); got != want {
				t.Errorf("idBits(%d) = %d, ⌈3 log₂ n⌉ = %d", n, got, want)
			}
		}
	}
}

// sendSink keeps the benchmarked Send calls' results live.
var sendSink radio.Message

// BenchmarkNodeSend measures one Send tick in each transmitting phase,
// at the practical constants of a 250-node unit disk graph.
func BenchmarkNodeSend(b *testing.B) {
	par := Practical(250, 14, 5, 18)
	cases := []struct {
		name  string
		setup func(v *Node)
	}{
		{"active", func(v *Node) {
			v.phase = PhaseActive
			v.counter = math.MinInt64 / 2 // never reaches the threshold
		}},
		{"requesting", func(v *Node) {
			v.comp = nil
			v.leader = 1
			v.phase = PhaseRequest
		}},
		{"leader", func(v *Node) {
			v.class = 0
			v.becomeColored()
		}},
		{"colored", func(v *Node) {
			v.class = 3
			v.becomeColored()
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			v := NewNode(0, radio.NodeRand(1, 0), par, Ablation{})
			v.Start(0)
			c.setup(v)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sendSink = v.Send(int64(i))
			}
		})
	}
}
