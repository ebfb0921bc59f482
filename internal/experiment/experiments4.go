package experiment

import (
	"fmt"
	"math/rand"
	"reflect"

	"radiocolor/internal/baseline/cds"
	"radiocolor/internal/churn"
	"radiocolor/internal/core"
	"radiocolor/internal/geom"
	"radiocolor/internal/graph"
	"radiocolor/internal/medium"
	"radiocolor/internal/radio"
	"radiocolor/internal/stats"
	"radiocolor/internal/topology"
	"radiocolor/internal/verify"
)

// E25CrossModel runs the paper's protocol on IDENTICAL unit-disk
// deployments under three reception models — the paper's graph rule,
// the physical SINR model (noise floor matched so the decode range
// coincides with the unit-disk radius), and 2-channel random hopping —
// and compares correctness, palette size, time and energy. The
// deployment, wake-up schedule and every protocol coin are fixed per
// trial; only the medium differs, so any spread in the columns is the
// reception model's doing. The interesting cell is SINR: the protocol's
// analysis assumes the graph rule, so surviving cumulative interference
// and capture (deliveries the graph rule would have annihilated) is an
// out-of-model robustness result, not a theorem.
func E25CrossModel(o Options) *stats.Table {
	o = o.normalized()
	t := stats.NewTable("E25: reception models — graph rule vs SINR vs multi-channel on one deployment",
		"medium", "correct", "mean colors", "mean maxT", "tx/node", "captures", "drowned")
	n := o.scale(110, 40)
	const radius = 1.2
	models := []string{"graph", "sinr (matched)", "multichannel k=2"}
	type trialRes struct {
		ok                bool
		colors, maxT      float64
		txPerNode         float64
		captures, drowned float64
	}
	grid := parTrials(o, "E25", len(models), o.Trials, func(mi, tr int) trialRes {
		// The seed deliberately ignores mi: every model sees the same
		// deployment, schedule and protocol randomness.
		seed := trialSeed(o.Seed, 2500, tr)
		d := topology.RandomUDG(topology.UDGConfig{N: n, Side: 6, Radius: radius, Seed: seed})
		par := MeasureParams(d)
		nodes, protos := core.Nodes(d.N(), seed, par, core0)
		// The budget is sized for the slowest arm: channel hopping slows
		// the counter-paced protocol roughly k-fold (E21), and finished
		// runs stop early regardless.
		cfg := radio.Config{
			G: d.G, Protocols: protos, Wake: radio.WakeUniform(d.N(), par.WaitSlots()/4, seed),
			MaxSlots: 40 * defaultBudget(par), NEstimate: par.N,
		}
		var res *radio.Result
		var err error
		switch mi {
		case 0:
			res, err = radio.Run(cfg)
		case 1:
			// 5% margin past the radius keeps border links decodable
			// under mild interference instead of exactly on threshold.
			m := medium.SINR{Alpha: 4, Beta: 1.5,
				NoiseDBM: medium.MatchedNoiseDBM(0, 1.5, 4, radius*1.05)}
			cfg.Medium, err = m.Bind(medium.Env{N: d.N(), Points: d.Points})
			if err == nil {
				res, err = radio.Run(cfg)
			}
		default:
			res, err = radio.RunMultiChannel(cfg, 2, seed)
		}
		if err != nil {
			panic(err)
		}
		cs := make([]int32, d.N())
		for i, v := range nodes {
			cs[i] = v.Color()
		}
		var r trialRes
		if res.AllDone && verify.Check(d.G, cs).OK() {
			r.ok = true
			r.maxT = float64(res.MaxLatency())
			palette := map[int32]bool{}
			for _, c := range cs {
				palette[c] = true
			}
			r.colors = float64(len(palette))
		}
		r.txPerNode = float64(res.Transmissions) / float64(d.N())
		r.captures = float64(res.Captures)
		r.drowned = float64(res.Drowned)
		return r
	})
	for mi, name := range models {
		correct := 0
		var colors, ts, tx, caps, drn []float64
		for _, r := range grid[mi] {
			if r.ok {
				correct++
				colors = append(colors, r.colors)
				ts = append(ts, r.maxT)
			}
			tx = append(tx, r.txPerNode)
			caps = append(caps, r.captures)
			drn = append(drn, r.drowned)
		}
		t.AddRow(name, fmt.Sprintf("%d/%d", correct, o.Trials),
			stats.Mean(colors), stats.Mean(ts), stats.Mean(tx),
			stats.Mean(caps), stats.Mean(drn))
	}
	return t
}

// E26TiledKernel runs the REAL protocol on one Hilbert-relabeled
// deployment through the slot loop at one tile and at several tiles
// and checks — the point of the differential harness — field-for-field
// identity: at fixed labels the two partitions must agree on every
// decision slot, every color, and every delivery/collision count. The
// printed title still calls the one-tile run "the untiled loop", so
// that experiments stdout stays byte-identical across releases. The
// table reports
// only deterministic quantities (the experiments stdout contract:
// byte-identical at any -parallel), so throughput lives elsewhere —
// BENCH_kernel.json isolates the engine at 1M–10M nodes, and the
// EXPERIMENTS.md E26 prose carries one-off wall-clock ratios. The
// shared columns come from the one-tile run; `identical` certifies the
// tiled run produced exactly the same ones.
func E26TiledKernel(o Options) *stats.Table {
	o = o.normalized()
	t := stats.NewTable("E26: tiled slot kernel vs untiled loop (real protocol, shared Hilbert relabeling)",
		"n", "tiles", "slots", "colors", "deliveries", "collisions", "identical")
	sizes := []int{o.scale(2500, 500), o.scale(10_000, 1000)}
	for ci, n := range sizes {
		identical := 0
		var slots, deliveries, collisions int64
		var colors int
		tiles := radio.AutoTiles(n)
		if tiles < 4 {
			tiles = 4
		}
		for tr := 0; tr < o.Trials; tr++ {
			seed := trialSeed(o.Seed, 2600+ci, tr)
			d := topology.UDGWithTargetDegree(n, 10, seed)
			relabelHilbert(d)
			par := MeasureParams(d)
			wake := radio.WakeUniform(d.N(), par.WaitSlots()/4, seed)
			run := func(tileCount int) (*radio.Result, []int32) {
				nodes, protos := core.Nodes(d.N(), seed, par, core0)
				cfg := radio.Config{
					G: d.G, Protocols: protos, Wake: wake,
					MaxSlots: defaultBudget(par), NEstimate: par.N,
					Tiles: tileCount,
				}
				res, err := radio.Run(cfg)
				if err != nil {
					panic(err)
				}
				cs := make([]int32, d.N())
				for i, v := range nodes {
					cs[i] = v.Color()
				}
				return res, cs
			}
			oneRes, oneCols := run(1)
			tRes, tCols := run(tiles)
			same := oneRes.Slots == tRes.Slots && reflect.DeepEqual(oneCols, tCols) &&
				reflect.DeepEqual(oneRes.DecideSlot, tRes.DecideSlot) &&
				oneRes.Deliveries == tRes.Deliveries && oneRes.Collisions == tRes.Collisions
			if same {
				identical++
			}
			slots += oneRes.Slots
			deliveries += oneRes.Deliveries
			collisions += oneRes.Collisions
			palette := map[int32]bool{}
			for _, c := range oneCols {
				palette[c] = true
			}
			colors += len(palette)
		}
		tn := int64(o.Trials)
		t.AddRow(fmt.Sprintf("%d", sizes[ci]), fmt.Sprintf("%d", tiles),
			fmt.Sprintf("%d", slots/tn), fmt.Sprintf("%d", int64(colors)/tn),
			fmt.Sprintf("%d", deliveries/tn), fmt.Sprintf("%d", collisions/tn),
			fmt.Sprintf("%d/%d", identical, o.Trials))
	}
	return t
}

// E27RecolorChurn measures how much cheaper repairing a perturbed
// coloring is than producing one from scratch, on the standard UDG
// sweep. Each trial first runs the protocol cold and records its
// convergence time; then it re-runs the identical execution with a
// churn schedule appended — after convergence, ~5% of the nodes leave
// and immediately rejoin, losing their colors (retract-repair
// semantics) — and records how long the network takes to become fully
// colored again. The perturbation re-contends against an already-quiet
// neighborhood, so recoloring k ≪ n nodes should beat the cold start's
// max-over-n convergence by a wide margin; the `speedup` column
// quantifies it. The last two columns repeat the comparison in the
// clean message-passing world via the CdS color-fixing baseline
// (internal/baseline/cds): rounds to fix a monochromatic start vs
// rounds to fix the same k-node perturbation of a proper coloring.
// The `proper` column counts trials whose repaired coloring is proper
// AND strictly faster than its own cold start, over the trials whose
// cold run converged properly at all — a seed the base protocol fails
// cold (whp, see E2) has no converged coloring to perturb and is
// excluded rather than averaged in as zeros.
func E27RecolorChurn(o Options) *stats.Table {
	o = o.normalized()
	t := stats.NewTable("E27: recolor after perturbation vs cold start (churn rejoin + CdS baseline)",
		"n", "perturbed", "cold slots", "recolor slots", "speedup", "cds cold", "cds fix", "proper")
	sizes := []int{o.scale(110, 40), o.scale(250, 80)}
	type trialRes struct {
		k                int
		coldOK           bool
		cold, recolor    float64
		cdsCold, cdsFix  float64
		proper, strictly bool
	}
	grid := parTrials(o, "E27", len(sizes), o.Trials, func(ci, tr int) trialRes {
		seed := trialSeed(o.Seed, 2700+ci, tr)
		n := sizes[ci]
		d := topology.RandomUDG(topology.UDGConfig{N: n, Side: 6, Radius: 1.2, Seed: seed})
		par := MeasureParams(d)
		budget := defaultBudget(par)
		runOnce := func(plan *churn.Plan, maxSlots int64) (*radio.Result, []int32) {
			nodes, protos := core.Nodes(d.N(), seed, par, core0)
			res, err := radio.Run(radio.Config{
				G: d.G, Protocols: protos, Wake: radio.WakeSynchronous(d.N()),
				MaxSlots: maxSlots, NEstimate: par.N,
				Churn: plan,
			})
			if err != nil {
				panic(err)
			}
			cs := make([]int32, d.N())
			for i, v := range nodes {
				cs[i] = v.Color()
			}
			return res, cs
		}
		coldRes, coldCols := runOnce(nil, budget)
		if !coldRes.AllDone || !verify.Check(d.G, coldCols).OK() {
			// The BASE protocol failed this seed (its correctness is
			// whp — E2 records the rate). There is no converged
			// coloring to perturb, so the trial says nothing about
			// repair; it is excluded rather than averaged in as zeros.
			return trialRes{}
		}
		coldT := coldRes.MaxLatency()

		// Perturb ~5% of the nodes: leave right after convergence,
		// rejoin one slot later with cleared protocol state. Until the
		// first batch slot the churned run replays the cold run
		// bit-identically (same seed, same coins), so the measured
		// recolor window starts from exactly the converged coloring.
		k := n/20 + 2
		rng := rand.New(rand.NewSource(seed ^ 0x0c0ffee))
		victims := rng.Perm(n)[:k]
		at := coldT + 16
		sch := &churn.Schedule{}
		for _, v := range victims {
			sch.Leaves = append(sch.Leaves, churn.Event{Node: v, At: at})
			sch.Joins = append(sch.Joins, churn.Event{Node: v, At: at + 1})
		}
		plan, err := sch.Compile(churn.Env{G: d.G})
		if err != nil {
			panic(err)
		}
		chRes, chCols := runOnce(plan, at+1+budget)
		r := trialRes{k: k, coldOK: true, cold: float64(coldT)}
		if !chRes.AllDone {
			return r
		}
		var recolor int64
		for _, v := range victims {
			if lat := chRes.DecideSlot[v] - (at + 1); lat > recolor {
				recolor = lat
			}
		}
		r.recolor = float64(recolor)
		r.proper = verify.Check(d.G, chCols).OK()
		r.strictly = recolor < coldT

		// CdS comparator: fix-from-monochromatic (every node color 0 —
		// the worst cold start) vs fixing the same k victims after each
		// copies a neighbor's color (a guaranteed conflict per victim).
		maxRounds := 64*n + 1024
		cold, _, err := cds.Fix(d.G, make([]int32, n), seed, maxRounds)
		if err != nil {
			panic(err)
		}
		warm := append([]int32(nil), coldCols...)
		for _, v := range victims {
			if adj := d.G.Adj(v); len(adj) > 0 {
				warm[v] = coldCols[adj[0]]
			}
		}
		fix, _, err := cds.Fix(d.G, warm, seed, maxRounds)
		if err != nil {
			panic(err)
		}
		r.cdsCold = float64(cold.Rounds)
		r.cdsFix = float64(fix.Rounds)
		return r
	})
	for ci, n := range sizes {
		proper, valid := 0, 0
		var cold, recolor, cdsCold, cdsFix []float64
		k := 0
		for _, r := range grid[ci] {
			if !r.coldOK {
				continue // cold-start whp failure: nothing to repair
			}
			valid++
			if r.proper && r.strictly {
				proper++
			}
			k = r.k
			cold = append(cold, r.cold)
			recolor = append(recolor, r.recolor)
			cdsCold = append(cdsCold, r.cdsCold)
			cdsFix = append(cdsFix, r.cdsFix)
		}
		speedup := 0.0
		if m := stats.Mean(recolor); m > 0 {
			speedup = stats.Mean(cold) / m
		}
		t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", k),
			stats.Mean(cold), stats.Mean(recolor), speedup,
			stats.Mean(cdsCold), stats.Mean(cdsFix),
			fmt.Sprintf("%d/%d", proper, valid))
	}
	return t
}

// relabelHilbert renumbers a point deployment along the shared Hilbert
// relabeling pass — the tiled kernel's production path.
func relabelHilbert(d *topology.Deployment) {
	n := d.G.N()
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i, pt := range d.Points {
		xs[i], ys[i] = pt.X, pt.Y
	}
	p := graph.HilbertOrder(xs, ys)
	d.G = p.Apply(d.G)
	pts := make([]geom.Point, n)
	for old, nid := range p.Forward {
		pts[nid] = d.Points[old]
	}
	d.Points = pts
}
