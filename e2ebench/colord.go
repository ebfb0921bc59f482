package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"radiocolor"
	"radiocolor/internal/serve"
	"radiocolor/internal/store"
	"radiocolor/internal/topology"
)

const (
	// minJobs jobs run in every colord run however short it is; the
	// simulated metrics come from these, so they depend on the seed
	// alone.
	minJobs = 24
	// leaseTTL is short enough that a job's worker heartbeats the store
	// while it runs (every TTL/3), so heartbeats are measured.
	leaseTTL = 600 * time.Millisecond
	// comparedHits is how many hit jobs, the first of the run, are
	// compared with a direct call; comparing every one would make a run
	// a third longer.
	comparedHits = 4
)

// The job classes cycle in this order.
const (
	classHit    = "hit"    // a cached topology: built once, κ skipped
	classMiss   = "miss"   // a fresh topology: built, κ measured
	classPoints = "points" // explicit points: pairwise build, κ measured
)

var jobClasses = [...]string{classHit, classMiss, classPoints}

// colordWorkload drives an in-process colord — serve.Server on a
// store.File with one worker, behind a loopback listener — with a
// closed loop of one client, which submits a job and reads its stream
// to done before submitting the next. One job at a time keeps the
// figures steady on a 2-core host; see README.md.
type colordWorkload struct {
	// n is the node count of every job.
	n int
	// hitSpecs is the size of the fixed topology set hit jobs use.
	hitSpecs int
}

// jobInput is one job of the mix.
type jobInput struct {
	class string
	// spec is the hit topology's index in the fixed set.
	spec int
	req  serve.JobRequest
}

func (w colordWorkload) topology(seed int64) *serve.TopologySpec {
	return &serve.TopologySpec{Kind: "udg", N: w.n, Side: side(w.n), Radius: radius, Seed: seed}
}

// input returns job i of a run: its own protocol seed, and every other
// job asks for metrics.
func (w colordWorkload) input(seed int64, i int) jobInput {
	in := jobInput{class: jobClasses[i%len(jobClasses)]}
	in.req = serve.JobRequest{Seed: inputSeed(seed, i, saltProtocol), Wakeup: "uniform", ParamScale: paramScale, Metrics: i%2 == 0}
	switch in.class {
	case classHit:
		in.spec = i / len(jobClasses) % w.hitSpecs
		in.req.Topology = w.topology(int64(in.spec + 1))
	case classMiss:
		in.req.Topology = w.topology(inputSeed(seed, i, saltPlace))
	case classPoints:
		in.req.Points = uniformPoints(w.n, side(w.n), inputSeed(seed, i, saltPlace))
		in.req.Radius = radius
	}
	return in
}

// requestOptions are the library options a job request stands for.
func requestOptions(req serve.JobRequest) radiocolor.Options {
	return radiocolor.Options{Seed: req.Seed, Wakeup: radiocolor.WakeupUniform, ParamScale: req.ParamScale, Metrics: req.Metrics}
}

// deployment regenerates a topology job's placement.
func deployment(t *serve.TopologySpec) *topology.Deployment {
	return topology.RandomUDG(topology.UDGConfig{N: t.N, Side: t.Side, Radius: t.Radius, Seed: t.Seed})
}

// colord is one running server instance.
type colord struct {
	dir    string
	st     *store.File
	srv    *serve.Server
	hs     *http.Server
	url    string
	served chan struct{}
}

// startColord opens a file store in a fresh directory under parent,
// starts a server on it (through wrap, when set) behind a loopback
// listener, and returns once /healthz answers 200.
func startColord(parent string, wrap func(store.Store) store.Store, client *http.Client) (*colord, error) {
	dir, err := os.MkdirTemp(parent, "colord-")
	if err != nil {
		return nil, err
	}
	st, err := store.OpenFile(dir, store.FileOptions{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	var s store.Store = st
	if wrap != nil {
		s = wrap(st)
	}
	srv := serve.New(serve.Config{Store: s, Workers: 1, LeaseTTL: leaseTTL})
	c := &colord{dir: dir, st: st, srv: srv, hs: &http.Server{Handler: srv}, served: make(chan struct{})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		close(c.served)
		return nil, errors.Join(err, c.stop())
	}
	c.url = "http://" + ln.Addr().String()
	go func() {
		defer close(c.served)
		_ = c.hs.Serve(ln) // returns ErrServerClosed once stop shuts it down
	}()
	// A start-up takes well under a millisecond; poll finely enough not
	// to round it up.
	for start := time.Now(); ; time.Sleep(50 * time.Microsecond) {
		resp, err := client.Get(c.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		if time.Since(start) > 10*time.Second {
			return nil, errors.Join(fmt.Errorf("colord did not become healthy: %v", err), c.stop())
		}
	}
}

// stop shuts the listener and the server down, waits for both, closes
// the store and removes its directory.
func (c *colord) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := c.hs.Shutdown(ctx)
	<-c.served
	return errors.Join(err, c.srv.Shutdown(ctx), c.st.Close(), os.RemoveAll(c.dir))
}

// jobRecord is one job as its client saw it.
type jobRecord struct {
	i    int
	in   jobInput
	code int
	err  error
	// sent, accepted and done are the client's clock: POST sent, its
	// answer read, and the stream's done event read.
	sent, accepted, done time.Time
	status               serve.JobStatus
}

// do submits one job and reads its stream until the done event.
func (c *colord) do(ctx context.Context, client *http.Client, in jobInput) jobRecord {
	r := jobRecord{in: in}
	body, err := json.Marshal(in.req)
	if err != nil {
		r.err = err
		return r
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	r.sent = time.Now()
	resp, err := client.Do(req)
	if err != nil {
		r.err = err
		return r
	}
	var st serve.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	r.accepted = time.Now()
	r.code = resp.StatusCode
	if r.code != http.StatusAccepted {
		return r
	}
	if err != nil {
		r.err = fmt.Errorf("decode submit answer: %w", err)
		return r
	}
	r.status, r.err = c.await(ctx, client, st.ID)
	r.done = time.Now()
	return r
}

// await reads job id's NDJSON stream until its done event.
func (c *colord) await(ctx context.Context, client *http.Client, id string) (serve.JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return serve.JobStatus{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return serve.JobStatus{}, err
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	for {
		var ev serve.StreamEvent
		if err := dec.Decode(&ev); err != nil {
			return serve.JobStatus{}, fmt.Errorf("stream of %s: %w", id, err)
		}
		if ev.Type == "done" && ev.Status != nil {
			io.Copy(io.Discard, resp.Body) // let the connection be reused
			return *ev.Status, nil
		}
	}
}

// newClient returns the benchmark's HTTP client.
func newClient() *http.Client {
	return &http.Client{Timeout: 150 * time.Second, Transport: &http.Transport{}}
}

// window runs the closed loop for rc.dur (and at least minJobs jobs) and
// returns the records in job order. When setup is not nil, a second
// server is started and stopped after each job and its start-up time
// appended to setup, so that the start-ups are spread over the run like
// the jobs and a slow spell of the host cannot land on all of them.
func (w colordWorkload) window(ctx context.Context, c *colord, client *http.Client, rc runConfig, setup *[]float64) ([]jobRecord, error) {
	var recs []jobRecord
	deadline := time.Now().Add(rc.dur)
	for i := 0; (i < minJobs || time.Now().Before(deadline)) && ctx.Err() == nil; i++ {
		r := c.do(ctx, client, w.input(rc.seed, i))
		r.i = i
		recs = append(recs, r)
		if setup != nil {
			t0 := time.Now()
			probe, err := startColord(rc.out, nil, client)
			if err != nil {
				return recs, err
			}
			*setup = append(*setup, time.Since(t0).Seconds())
			if err := probe.stop(); err != nil {
				return recs, err
			}
		}
	}
	return recs, nil
}

// warm runs one job per hit topology so that hit jobs find it cached,
// with its measured parameters.
func (w colordWorkload) warm(ctx context.Context, c *colord, client *http.Client, seed int64) error {
	for i := 0; i < w.hitSpecs*len(jobClasses); i += len(jobClasses) {
		r := c.do(ctx, client, w.input(seed, i))
		if r.err != nil || r.status.State != serve.StateDone {
			return fmt.Errorf("warm-up job %d: code %d, state %s, %v", i, r.code, r.status.State, r.err)
		}
	}
	return nil
}

// start brings up the server the run's jobs go to and warms the hit
// topologies.
func (w colordWorkload) start(ctx context.Context, rc runConfig, client *http.Client, wrap func(store.Store) store.Store) (*colord, error) {
	c, err := startColord(rc.out, wrap, client)
	if err != nil {
		return nil, err
	}
	if err := w.warm(ctx, c, client, rc.seed); err != nil {
		return nil, errors.Join(err, c.stop())
	}
	return c, nil
}

// judgement is the verdict on a window's jobs.
type judgement struct {
	t tally
	// done are the jobs that ended in state done.
	done []jobRecord
	// direct holds the direct ColorGraphContext calls the first hit jobs
	// were compared with; adj the adjacency of each hit topology.
	direct []directHit
	adj    map[int][][]int
}

// directHit is a hit job's request and its direct call's Outcome.
type directHit struct {
	spec int
	req  serve.JobRequest
	out  *radiocolor.Outcome
}

// judge checks every job: it must be accepted and end done with a
// complete proper coloring of the benchmark's own edge list. The first
// comparedHits hit jobs must also be byte-equal to a direct
// ColorGraphContext call on the same input and seed (wall-clock fields
// aside).
func (w colordWorkload) judge(ctx context.Context, recs []jobRecord) (*judgement, error) {
	j := &judgement{adj: map[int][][]int{}}
	hitPoints := map[int][][2]float64{}
	for _, r := range recs {
		label := fmt.Sprintf("job %d (%s)", r.i, r.in.class)
		switch {
		case r.err != nil:
			j.t.attempted++
			j.t.fail("%s: %v", label, r.err)
			continue
		case r.code != http.StatusAccepted:
			j.t.attempted++
			j.t.fail("%s: submit answered %d", label, r.code)
			continue
		case r.status.State != serve.StateDone || r.status.Outcome == nil:
			j.t.attempted++
			j.t.fail("%s: ended %s: %s", label, r.status.State, r.status.Error)
			continue
		}
		j.done = append(j.done, r)

		var pts [][2]float64
		switch r.in.class {
		case classPoints:
			pts = r.in.req.Points
		case classMiss:
			pts = pairs(deployment(r.in.req.Topology))
		case classHit:
			if hitPoints[r.in.spec] == nil {
				d := deployment(r.in.req.Topology)
				hitPoints[r.in.spec] = pairs(d)
				j.adj[r.in.spec] = adjacency(d)
			}
			pts = hitPoints[r.in.spec]
		}
		j.t.judge(label, r.status.Outcome, len(pts), unitDiskEdges(pts, radius))

		if r.in.class == classHit && len(j.direct) < comparedHits {
			out, err := radiocolor.ColorGraphContext(ctx, j.adj[r.in.spec], requestOptions(r.in.req))
			if err != nil {
				return nil, fmt.Errorf("direct call for %s: %w", label, err)
			}
			j.direct = append(j.direct, directHit{spec: r.in.spec, req: r.in.req, out: out})
			if !bytes.Equal(scrubbedJSON(r.status.Outcome), scrubbedJSON(out)) {
				j.t.mismatch("%s: served Outcome differs from a direct ColorGraphContext call", label)
			}
		}
	}
	return j, nil
}

// scrubbedJSON encodes an Outcome without its wall-clock fields, the
// only ones that differ between equal runs.
func scrubbedJSON(o *radiocolor.Outcome) []byte {
	c := *o
	if o.Stats != nil {
		s := *o.Stats
		s.SlotsPerSec, s.Wall = 0, 0
		c.Stats = &s
	}
	data, _ := json.Marshal(&c) // an Outcome always encodes
	return data
}

// pairs returns a deployment's points in the public API's form.
func pairs(d *topology.Deployment) [][2]float64 {
	pts := make([][2]float64, len(d.Points))
	for i, p := range d.Points {
		pts[i] = [2]float64{p.X, p.Y}
	}
	return pts
}

// adjacency lists a deployment's graph the way colord passes a cached
// topology to ColorGraphContext.
func adjacency(d *topology.Deployment) [][]int {
	adj := make([][]int, d.G.N())
	for v := range adj {
		for _, u := range d.G.Adj(v) {
			adj[v] = append(adj[v], int(u))
		}
	}
	return adj
}

// measure is the untraced run.
func (w colordWorkload) measure(ctx context.Context, rc runConfig) (tally, map[string]float64, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	c, err := w.start(ctx, rc, client, nil)
	if err != nil {
		return tally{}, nil, err
	}
	var setup []float64
	recs, err := w.window(ctx, c, client, rc, &setup)
	if err := errors.Join(err, c.stop(), ctx.Err()); err != nil {
		return tally{}, nil, err
	}
	j, err := w.judge(ctx, recs)
	if err != nil {
		return tally{}, nil, err
	}

	var run, latency, slots, colors []float64
	for _, r := range j.done {
		run = append(run, r.status.Finished.Sub(*r.status.Started).Seconds())
		latency = append(latency, r.done.Sub(r.sent).Seconds())
		if r.i < minJobs {
			slots = append(slots, float64(r.status.Outcome.MaxLatency))
			colors = append(colors, float64(r.status.Outcome.NumColors))
		}
	}
	return j.t, map[string]float64{
		"run_s":             median(run),
		"setup_s":           median(setup),
		"peak_rss_mb":       peakRSSMB(),
		"ok_frac":           j.t.okFrac(),
		"max_latency_slots": median(slots),
		"num_colors":        median(colors),
		"job_p50_s":         median(latency),
	}, nil
}

// trace is the traced run: the same loop on a timing store, with every
// job's client and server times as spans, a direct baseline for the
// served hit jobs, and a stage replay of the first points jobs.
func (w colordWorkload) trace(ctx context.Context, rc runConfig, tr *tracer) (tally, map[string]float64, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	wrap := func(s store.Store) store.Store { return newTimedStore(s, tr) }
	c, err := w.start(ctx, rc, client, wrap)
	if err != nil {
		return tally{}, nil, err
	}
	mark := tr.mark()
	recs, err := w.window(ctx, c, client, rc, nil)
	// Only the timed store records spans during the window.
	storeValues := storeFigures(tr.since(mark), len(recs))
	if err := errors.Join(err, c.stop(), ctx.Err()); err != nil {
		return tally{}, nil, err
	}
	j, err := w.judge(ctx, recs)
	if err != nil {
		return tally{}, nil, err
	}

	var submit, queue, notify []float64
	exec := map[string][]float64{}
	hits, topologyJobs := 0, 0
	for _, r := range j.done {
		st := r.status
		id := st.ID
		root := tr.add(id, "colord.job", -1, r.sent, r.done)
		tr.add(id, "serve.submit", root, r.sent, r.accepted)
		tr.add(id, "serve.queue", root, st.Submitted, *st.Started)
		tr.add(id, "serve.exec", root, *st.Started, *st.Finished)
		tr.add(id, "serve.notify", root, *st.Finished, r.done)
		submit = append(submit, r.accepted.Sub(r.sent).Seconds())
		queue = append(queue, st.Started.Sub(st.Submitted).Seconds())
		exec[r.in.class] = append(exec[r.in.class], st.Finished.Sub(*st.Started).Seconds())
		notify = append(notify, r.done.Sub(*st.Finished).Seconds())
		if r.in.req.Topology != nil {
			topologyJobs++
			if st.CacheHit {
				hits++
			}
		}
	}
	direct, err := directHitTimes(ctx, tr, j)
	if err != nil {
		return tally{}, nil, err
	}

	t := j.t
	var lt layerTally
	// Replay the run's first points jobs: points is the last class.
	for k := 1; k <= tracedCalls; k++ {
		i := k*len(jobClasses) - 1
		in := w.input(rc.seed, i)
		lin := libraryInput{pts: in.req.Points, seed: in.req.Seed}
		if err := traceInput(ctx, tr, fmt.Sprintf("points-job-%d", i), lin, &t, &lt, true); err != nil {
			return t, nil, err
		}
	}

	values := lt.values()
	for k, v := range map[string]float64{
		"serve.submit_s":          median(submit),
		"serve.queue_wait_s":      median(queue),
		"serve.exec_hit_s":        median(exec[classHit]),
		"serve.exec_miss_s":       median(exec[classMiss]),
		"serve.exec_points_s":     median(exec[classPoints]),
		"serve.notify_s":          median(notify),
		"serve.cache_hit_ratio":   ratio(float64(hits), float64(topologyJobs)),
		"serve.observer_overhead": median(exec[classHit]) / median(direct),
	} {
		values[k] = v
	}
	for k, v := range storeValues {
		values[k] = v
	}
	return t, values, nil
}

// directHitTimes times direct ColorGraphContext calls on the compared
// hit jobs' inputs with the measured parameters preset, as a served hit
// job runs, one at a time as colord's one worker runs them.
func directHitTimes(ctx context.Context, tr *tracer, j *judgement) ([]float64, error) {
	var times []float64
	for k, hit := range j.direct {
		opt := requestOptions(hit.req)
		opt.Measured = &radiocolor.Measured{Delta: hit.out.Delta, Kappa1: hit.out.Kappa1, Kappa2: hit.out.Kappa2}
		var err error
		d := tr.timed(fmt.Sprintf("direct-hit-%d", k), "radiocolor.ColorGraphContext", -1, func() {
			_, err = radiocolor.ColorGraphContext(ctx, j.adj[hit.spec], opt)
		})
		if err != nil {
			return nil, err
		}
		times = append(times, d.Seconds())
	}
	return times, nil
}
