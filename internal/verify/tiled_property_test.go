package verify_test

import (
	"fmt"
	"testing"

	"radiocolor/internal/core"
	"radiocolor/internal/fault"
	"radiocolor/internal/radio"
	"radiocolor/internal/verify"
)

// TestTiledSurvivorsProperlyColoredUnderFaults extends the graceful-
// degradation property to the tiled slot kernel: under composed link
// loss, random crash/restart schedules AND a duty-cycled jammer, a
// tiled parallel run on every wakeup schedule must still never leave
// two live adjacent nodes sharing a color. Every tiling is pinned
// bit-identical to one tile by the differential suite; this
// test closes the loop end-to-end through the real protocol and the
// survivor checker, so a partitioning bug that somehow slipped the
// differentials would still surface as a hard violation here.
func TestTiledSurvivorsProperlyColoredUnderFaults(t *testing.T) {
	g := propertyGraph(t)
	par := propertyParams(g)
	const budget = 60_000
	loss := 0.05
	for _, pat := range radio.WakePatterns {
		pat := pat
		t.Run(fmt.Sprintf("%s/tiled", pat.Name), func(t *testing.T) {
			t.Parallel()
			seed := int64(43)
			prof := &fault.Profile{
				Seed:    seed,
				Loss:    loss,
				Crashes: randomCrashes(g.N(), budget, seed),
				Jammers: []fault.Jammer{
					{Nodes: []int{2, 9, 31}, From: 500, Until: 20_000, Period: 32, Duty: 8, Prob: 0.7},
				},
			}
			inj, err := prof.Compile(g.N())
			if err != nil {
				t.Fatal(err)
			}
			nodes, protos := core.Nodes(g.N(), seed, par, core.Ablation{})
			cfg := radio.Config{
				G: g, Protocols: protos,
				Wake:     pat.Make(g.N(), par.WaitSlots(), seed),
				MaxSlots: budget, NEstimate: par.N,
				Faults:  inj,
				Workers: 4, Tiles: 4,
			}
			res, err := radio.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			colors := make([]int32, len(nodes))
			for i, v := range nodes {
				colors[i] = v.Color()
			}
			rep := verify.CheckSurvivors(g, colors, verify.DownSet(g.N(), res.Down))
			if rep.Hard() {
				t.Errorf("hard violations under tiled faulted run: %v\n%s", rep.HardViolations, rep)
			}
			// Vacuity guards: every composed fault class must have fired,
			// and degradation must stay graceful.
			if res.Crashes == 0 || res.Lost == 0 || res.Jammed == 0 {
				t.Fatalf("faults injected nothing (crashes=%d lost=%d jammed=%d); test is vacuous",
					res.Crashes, res.Lost, res.Jammed)
			}
			if rep.Survivors == 0 || rep.SurvivorsColored == 0 {
				t.Fatalf("nobody survived/colored (%s); test is vacuous", rep)
			}
			if rep.SurvivorsColored*2 < rep.Survivors {
				t.Errorf("only %d of %d survivors colored — degradation is not graceful (%s)",
					rep.SurvivorsColored, rep.Survivors, rep)
			}
		})
	}
}
