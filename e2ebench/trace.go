package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a call into a module's exported function.
type span struct {
	// Run groups the spans of one coloring or one job.
	Run  string `json:"run"`
	Name string `json:"name"`
	// Parent is the index of the enclosing span, or -1 for a root.
	Parent int `json:"parent"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its index.
func (t *tracer) add(run, name string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Run: run, Name: name, Parent: parent,
		Start: start.Sub(t.epoch).Nanoseconds(),
		End:   end.Sub(t.epoch).Nanoseconds(),
	})
	return len(t.spans) - 1
}

// begin opens a span that end closes; children opened in between name
// its index as their parent.
func (t *tracer) begin(run, name string, parent int) int {
	now := time.Now()
	return t.add(run, name, parent, now, now)
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now.Sub(t.epoch).Nanoseconds()
	return time.Duration(t.spans[i].End - t.spans[i].Start)
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(run, name string, parent int, fn func()) time.Duration {
	i := t.begin(run, name, parent)
	fn()
	return t.end(i)
}

// mark is the number of spans recorded so far; since(mark) returns the
// ones recorded after it.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// since returns a copy of the spans recorded after mark m.
func (t *tracer) since(m int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[m:]...)
}

// writeFile writes the environment and every span as one JSON document.
func (t *tracer) writeFile(path string, env envInfo) error {
	t.mu.Lock()
	doc := struct {
		Env   envInfo `json:"env"`
		Spans []span  `json:"spans"`
	}{env, t.spans}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
