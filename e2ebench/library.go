package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"radiocolor"
	"radiocolor/internal/core"
	"radiocolor/internal/graph"
	"radiocolor/internal/radio"
	"radiocolor/internal/verify"
)

// tracedCalls colorings run in every traced run however short it is;
// the per-layer counts come from these, so they depend on the seed alone.
const tracedCalls = 3

// libraryWorkload colors uniform random unit-disk placements through
// radiocolor.ColorUnitDiskContext with uniform wake-up and the
// constants scaled by paramScale.
type libraryWorkload struct {
	n int
	// minCalls colorings run in every untraced run however short it is;
	// the simulated metrics come from these, so they depend on the seed
	// alone.
	minCalls int
}

// libraryInput is one coloring: a placement and the protocol seed.
type libraryInput struct {
	pts  [][2]float64
	seed int64
}

func (w libraryWorkload) input(seed int64, i int) libraryInput {
	return libraryInput{
		pts:  uniformPoints(w.n, side(w.n), inputSeed(seed, i, saltPlace)),
		seed: inputSeed(seed, i, saltProtocol),
	}
}

func (in libraryInput) options() radiocolor.Options {
	return radiocolor.Options{Seed: in.seed, Wakeup: radiocolor.WakeupUniform, ParamScale: paramScale}
}

// measure is the untraced run: for the run time, each input gets a
// set-up call and then a coloring, each timed around the public call
// alone. Spreading the set-up calls over the run, rather than making
// them first, keeps a slow spell of the host from landing on all of
// them at once.
func (w libraryWorkload) measure(ctx context.Context, rc runConfig) (tally, map[string]float64, error) {
	var t tally
	var setup, calls, latency, colors []float64
	start := time.Now()
	for i := 0; i < w.minCalls || time.Since(start) < rc.dur; i++ {
		in := w.input(rc.seed, i)
		opt := in.options()
		opt.MaxSlots = 1
		t0 := time.Now()
		if _, err := radiocolor.ColorUnitDiskContext(ctx, in.pts, radius, opt); err != nil {
			return t, nil, fmt.Errorf("set-up call: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())

		t0 = time.Now()
		out, err := radiocolor.ColorUnitDiskContext(ctx, in.pts, radius, in.options())
		d := time.Since(t0)
		if ctx.Err() != nil {
			return t, nil, ctx.Err()
		}
		if err != nil {
			t.attempted++
			t.fail("input %d: %v", i, err)
			continue
		}
		calls = append(calls, d.Seconds())
		t.judge(fmt.Sprintf("input %d", i), out, w.n, unitDiskEdges(in.pts, radius))
		if i < w.minCalls {
			latency = append(latency, float64(out.MaxLatency))
			colors = append(colors, float64(out.NumColors))
		}
	}
	return t, map[string]float64{
		"run_s":             median(calls),
		"setup_s":           median(setup),
		"peak_rss_mb":       peakRSSMB(),
		"ok_frac":           t.okFrac(),
		"max_latency_slots": median(latency),
		"num_colors":        median(colors),
		// A library request is the call itself.
		"job_p50_s": median(calls),
	}, nil
}

// trace is the traced run: each input goes through the public call and
// through a stage-by-stage replay, and the two must agree.
func (w libraryWorkload) trace(ctx context.Context, rc runConfig, tr *tracer) (tally, map[string]float64, error) {
	var t tally
	var lt layerTally
	start := time.Now()
	for i := 0; i < tracedCalls || time.Since(start) < rc.dur; i++ {
		in := w.input(rc.seed, i)
		if err := traceInput(ctx, tr, fmt.Sprintf("p%d", i), in, &t, &lt, i < tracedCalls); err != nil {
			return t, nil, err
		}
	}
	values := lt.values()
	for _, m := range perLayer {
		if _, ok := values[m.name]; !ok {
			values[m.name] = 0 // serve and store do not run here
		}
	}
	return t, values, nil
}

// layerTally collects per-layer figures over the traced inputs. Times
// are reported as medians over all inputs; counts are summed over the
// first tracedCalls inputs, so they depend on the seed alone.
type layerTally struct {
	front, kappa, kappaPerVertex, nodes, bytesPerNode []float64
	sim, nsPerNodeSlot, check                         []float64

	vertices, capped                  int
	awake, tx, deliveries, collisions int64
}

func (lt *layerTally) values() map[string]float64 {
	return map[string]float64{
		"radiocolor.front_s":           median(lt.front),
		"graph.kappa_s":                median(lt.kappa),
		"graph.kappa_us_per_vertex":    median(lt.kappaPerVertex),
		"graph.kappa_capped_share":     ratio(float64(lt.capped), float64(lt.vertices)),
		"core.nodes_s":                 median(lt.nodes),
		"core.bytes_per_node":          median(lt.bytesPerNode),
		"radio.sim_s":                  median(lt.sim),
		"radio.awake_node_slots":       float64(lt.awake),
		"radio.ns_per_awake_node_slot": median(lt.nsPerNodeSlot),
		"radio.tx":                     float64(lt.tx),
		"radio.deliveries":             float64(lt.deliveries),
		"radio.collisions":             float64(lt.collisions),
		"radio.delivery_ratio":         ratio(float64(lt.deliveries), float64(lt.deliveries+lt.collisions)),
		"verify.check_s":               median(lt.check),
	}
}

// traceInput colors one input three ways — the public call, the public
// front end with the measured parameters preset and a one-slot budget,
// and the replay — and records each layer's figures. The replay must
// reproduce the public Outcome exactly, or the run aborts.
func traceInput(ctx context.Context, tr *tracer, run string, in libraryInput, t *tally, lt *layerTally, counted bool) error {
	n := len(in.pts)
	edges := unitDiskEdges(in.pts, radius)

	var pub *radiocolor.Outcome
	var err error
	tr.timed(run, "radiocolor.ColorUnitDiskContext", -1, func() {
		pub, err = radiocolor.ColorUnitDiskContext(ctx, in.pts, radius, in.options())
	})
	if err != nil {
		return fmt.Errorf("%s: public call: %w", run, err)
	}
	t.judge(run, pub, n, edges)

	front := in.options()
	front.MaxSlots = 1
	front.Measured = &radiocolor.Measured{Delta: pub.Delta, Kappa1: pub.Kappa1, Kappa2: pub.Kappa2}
	d := tr.timed(run, "radiocolor.front", -1, func() {
		_, err = radiocolor.ColorUnitDiskContext(ctx, in.pts, radius, front)
	})
	if err != nil {
		return fmt.Errorf("%s: front-end call: %w", run, err)
	}
	lt.front = append(lt.front, d.Seconds())

	rp, err := replay(ctx, tr, run, n, edges, in.seed)
	if err != nil {
		return fmt.Errorf("%s: replay: %w", run, err)
	}
	if err := rp.matches(pub); err != nil {
		return fmt.Errorf("%s: the stage replay does not reproduce the public Outcome: %w", run, err)
	}

	lt.kappa = append(lt.kappa, rp.kappa.Seconds())
	lt.kappaPerVertex = append(lt.kappaPerVertex, rp.kappa.Seconds()*1e6/float64(n))
	lt.nodes = append(lt.nodes, rp.nodes.Seconds())
	lt.bytesPerNode = append(lt.bytesPerNode, float64(rp.nodesBytes)/float64(n))
	lt.sim = append(lt.sim, rp.sim.Seconds())
	awake := awakeNodeSlots(rp.res)
	lt.nsPerNodeSlot = append(lt.nsPerNodeSlot, float64(rp.sim.Nanoseconds())/float64(awake))
	lt.check = append(lt.check, rp.check.Seconds())
	if counted {
		tr.timed(run, "graph.TwoHop", -1, func() {
			for v := 0; v < n; v++ {
				if len(rp.g.TwoHop(v)) > kappaOptions.MaxNeighborhood {
					lt.capped++
				}
			}
		})
		lt.vertices += n
		lt.awake += awake
		lt.tx += rp.res.Transmissions
		lt.deliveries += rp.res.Deliveries
		lt.collisions += rp.res.Collisions
	}
	return nil
}

// kappaOptions are the measurement limits radiocolor's front end uses.
var kappaOptions = graph.KappaOptions{Budget: 150_000, MaxNeighborhood: 140}

// replayResult is the outcome of a stage replay and the time each
// stage took.
type replayResult struct {
	g      *graph.Graph
	delta  int
	k      graph.KappaResult
	colors []int32
	res    *radio.Result
	report *verify.Report

	kappa, nodes, sim, check time.Duration
	nodesBytes               uint64
}

// awakeNodeSlots is Σ_v (Slots − WakeSlot[v]) over the nodes that
// woke: the node-slots the slot loop simulated.
func awakeNodeSlots(res *radio.Result) int64 {
	var sum int64
	for _, w := range res.WakeSlot {
		if w >= 0 && w < res.Slots {
			sum += res.Slots - w
		}
	}
	return sum
}

// replay runs radiocolor's coloring stages one module call at a time, in
// the front end's order: build the graph, measure Δ and κ, instantiate
// the protocol constants, the wake pattern and the nodes, simulate, and
// verify.
func replay(ctx context.Context, tr *tracer, run string, n int, edges [][2]int32, seed int64) (*replayResult, error) {
	r := &replayResult{}
	root := tr.begin(run, "replay", -1)
	defer tr.end(root)

	tr.timed(run, "graph.Builder", root, func() {
		b := graph.NewBuilder(n)
		for _, e := range edges {
			b.AddEdge(int(e[0]), int(e[1]))
		}
		r.g = b.Build()
	})
	tr.timed(run, "graph.MaxDegree", root, func() { r.delta = r.g.MaxDegree() })
	r.kappa = tr.timed(run, "graph.Kappa", root, func() { r.k = r.g.Kappa(kappaOptions) })

	var par core.Params
	tr.timed(run, "core.Practical", root, func() {
		par = core.Practical(n, r.delta, r.k.K1, r.k.K2).Scale(paramScale)
	})
	var wake []int64
	tr.timed(run, "radio.WakePatterns", root, func() {
		for _, p := range radio.WakePatterns {
			if p.Name == radiocolor.WakeupUniform.String() {
				wake = p.Make(n, par.WaitSlots(), seed)
			}
		}
	})
	budget := max(int64(par.Kappa2+2)*par.Threshold()*40, 1_000_000)

	var nodes []*core.Node
	var protos []radio.Protocol
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.nodes = tr.timed(run, "core.Nodes", root, func() {
		nodes, protos = core.Nodes(n, seed, par, core.Ablation{})
	})
	runtime.ReadMemStats(&after)
	r.nodesBytes = after.TotalAlloc - before.TotalAlloc

	var res *radio.Result
	var err error
	r.sim = tr.timed(run, "radio.RunContext", root, func() {
		res, err = radio.RunContext(ctx, radio.Config{
			G:         r.g,
			Protocols: protos,
			Wake:      wake,
			MaxSlots:  budget,
			NEstimate: par.N,
		})
	})
	if err != nil {
		return nil, err
	}
	r.res = res

	r.colors = make([]int32, n)
	for i, v := range nodes {
		r.colors[i] = v.Color()
	}
	r.check = tr.timed(run, "verify.Check", root, func() { r.report = verify.Check(r.g, r.colors) })
	return r, nil
}

// matches compares the replay with the public Outcome field by field.
func (r *replayResult) matches(pub *radiocolor.Outcome) error {
	switch {
	case r.delta != pub.Delta:
		return fmt.Errorf("Δ %d, public %d", r.delta, pub.Delta)
	case r.k.K1 != pub.Kappa1 || r.k.K2 != pub.Kappa2:
		return fmt.Errorf("κ %d/%d, public %d/%d", r.k.K1, r.k.K2, pub.Kappa1, pub.Kappa2)
	case r.res.Slots != pub.Slots:
		return fmt.Errorf("%d slots, public %d", r.res.Slots, pub.Slots)
	case r.res.MaxLatency() != pub.MaxLatency:
		return fmt.Errorf("max latency %d, public %d", r.res.MaxLatency(), pub.MaxLatency)
	case r.report.NumColors != pub.NumColors:
		return fmt.Errorf("%d colors, public %d", r.report.NumColors, pub.NumColors)
	case r.report.Proper != pub.Proper:
		return fmt.Errorf("proper=%v, public %v", r.report.Proper, pub.Proper)
	}
	colors := make([]int, len(r.colors))
	for i, c := range r.colors {
		colors[i] = int(c)
	}
	if !slices.Equal(colors, pub.Colors) {
		return fmt.Errorf("colors differ")
	}
	return nil
}
