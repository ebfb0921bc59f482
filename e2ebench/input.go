package main

import (
	"fmt"
	"math"
	"math/rand"

	"radiocolor"
)

// radius is the transmission radius of every workload, the ROADMAP's
// r = 1.2.
const radius = 1.2

// paramScale multiplies the protocol's practical constants in every
// coloring. At the default 1.0 the protocol colors improperly in a few
// percent of these colorings (its guarantee holds only with high
// probability); at 2.0, the top of the all-correct plateau experiment
// E7 maps, none of thousands did. See README.md.
const paramScale = 2

// side returns the side of the square that holds n nodes at the
// ROADMAP's reference density of 150 nodes per 7×7 square.
func side(n int) float64 {
	return 7 * math.Sqrt(float64(n)/150)
}

// Salts keep the streams drawn from one run seed apart.
const (
	saltPlace = iota + 1
	saltProtocol
)

// inputSeed derives the seed of input i from the run seed with a
// splitmix64 finalizer, so each run draws its own sequence of
// independent inputs and equal run seeds draw equal ones.
func inputSeed(seed int64, i, salt int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)*0xD1B54A32D192ED03 + uint64(salt)*0x8CB92BA72F3D8DD7
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z>>1) | 1 // positive, never the zero "use the default" seed
}

// uniformPoints places n points uniformly in a side×side square.
func uniformPoints(n int, side float64, seed int64) [][2]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][2]float64, n)
	for i := range pts {
		pts[i] = [2]float64{rng.Float64() * side, rng.Float64() * side}
	}
	return pts
}

// unitDiskEdges lists every pair of points at most r apart: the
// benchmark's own edge list, computed without the program's graph
// builders.
func unitDiskEdges(pts [][2]float64, r float64) [][2]int32 {
	var edges [][2]int32
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if math.Hypot(pts[i][0]-pts[j][0], pts[i][1]-pts[j][1]) <= r {
				edges = append(edges, [2]int32{int32(i), int32(j)})
			}
		}
	}
	return edges
}

// checkColoring returns why colors is not a complete proper coloring of
// the graph with the given edges, or nil.
func checkColoring(n int, edges [][2]int32, colors []int) error {
	if len(colors) != n {
		return fmt.Errorf("%d colors for %d nodes", len(colors), n)
	}
	for v, c := range colors {
		if c < 0 {
			return fmt.Errorf("node %d is uncolored", v)
		}
	}
	for _, e := range edges {
		if colors[e[0]] == colors[e[1]] {
			return fmt.Errorf("edge %d-%d is monochromatic (color %d)", e[0], e[1], colors[e[0]])
		}
	}
	return nil
}

// tally counts the operations of a run and the checks they failed.
type tally struct {
	attempted, failed int
	// problems describes every failed operation and every disagreement
	// between the program and the benchmark's own checks.
	problems []string
	// mismatches counts the disagreements among problems.
	mismatches int
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
}

func (t *tally) mismatch(format string, args ...any) {
	t.mismatches++
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
}

// judge counts one coloring: it fails unless the benchmark's own check
// finds it complete and proper, and the program's own verdict must
// agree with that check.
func (t *tally) judge(label string, out *radiocolor.Outcome, n int, edges [][2]int32) {
	t.attempted++
	err := checkColoring(n, edges, out.Colors)
	if err != nil || !out.OK() {
		t.fail("%s: not a complete proper coloring (check: %v, proper=%v complete=%v)", label, err, out.Proper, out.Complete)
	}
	if (err == nil) != out.OK() {
		t.mismatch("%s: program verdict proper=%v complete=%v disagrees with the edge-list check (%v)", label, out.Proper, out.Complete, err)
	}
}

// okFrac is the share of attempted operations that succeeded.
func (t *tally) okFrac() float64 {
	return ratio(float64(t.attempted-t.failed), float64(t.attempted))
}
