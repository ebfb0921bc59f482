package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"radiocolor/internal/obs"
	"radiocolor/internal/store"
)

// eventStream negotiates NDJSON (default) or SSE (on Accept:
// text/event-stream) and writes one flushed event at a time. typ is
// the SSE event name, pulled from the payload's Type field by the
// caller.
type eventStream struct {
	w       http.ResponseWriter
	flusher http.Flusher
	sse     bool
}

func newEventStream(w http.ResponseWriter, r *http.Request) (*eventStream, bool) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "streaming unsupported"})
		return nil, false
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	return &eventStream{w: w, flusher: flusher, sse: sse}, true
}

func (e *eventStream) emit(typ string, payload any) bool {
	var err error
	if e.sse {
		var data []byte
		data, err = json.Marshal(payload)
		if err == nil {
			_, err = fmt.Fprintf(e.w, "event: %s\ndata: %s\n\n", typ, data)
		}
	} else {
		err = json.NewEncoder(e.w).Encode(payload)
	}
	if err != nil {
		return false
	}
	e.flusher.Flush()
	return true
}

// handleStream serves GET /v1/jobs/{id}/stream: an initial "status"
// event, periodic "progress" samples of the job's obs registry while it
// runs, a closing "progress" sample of the run's final counters when
// this replica finished it (also for a stream opened after the end),
// and a final "done" event carrying the full status (outcome included).
// The format is NDJSON by default and SSE when the client asks for
// text/event-stream; both flush per event, so a curl client watches the
// run live.
//
// State comes from the store, so the stream is correct even when the
// job executes on another replica; live progress samples, though, only
// flow while this replica runs the job (the obs registry is process
// local) — a remote job streams liveness "status" events until "done".
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, err := s.st.Get(id)
	if err != nil || rec.Kind != store.KindJob {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job"})
		return
	}
	es, ok := newEventStream(w, r)
	if !ok {
		return
	}
	emit := func(ev StreamEvent) bool { return es.emit(ev.Type, ev) }

	st := s.statusFromRecord(rec)
	if !emit(StreamEvent{Type: "status", State: st.State}) {
		return
	}
	j := s.lookup(id)
	// done ends the stream: a closing sample of the run's final
	// counters when this replica finished it, then the terminal status.
	done := func(fs JobStatus) {
		if ev := progressEvent(j); ev != nil && ev.State.Terminal() && !emit(*ev) {
			return
		}
		emit(StreamEvent{Type: "done", State: fs.State, Status: &fs})
	}
	if st.State.Terminal() {
		done(st)
		return
	}

	// The local done channel is the fast path; jobs executing elsewhere
	// never close it here, so the ticker polls the store too. A nil
	// channel blocks forever, which is exactly the fallback we want.
	var doneCh chan struct{}
	if j != nil {
		doneCh = j.done
	}
	final := func() {
		if rec, err := s.st.Get(id); err == nil {
			done(s.statusFromRecord(rec))
		}
	}
	ticker := time.NewTicker(s.cfg.StreamInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-doneCh:
			final()
			return
		case <-ticker.C:
			rec, err := s.st.Get(id)
			if err != nil {
				return // pruned mid-stream
			}
			if store.State(rec.State).Terminal() {
				final()
				return
			}
			if j == nil {
				// The job may have been claimed (and rehydrated) by this
				// replica after the stream opened.
				if j = s.lookup(id); j != nil {
					doneCh = j.done
				}
			}
			ev := progressEvent(j)
			if ev == nil {
				// Queued, or running remotely: re-emit the bare status so
				// the client sees liveness without a fake progress sample.
				ev = &StreamEvent{Type: "status", State: JobState(rec.State)}
			}
			if !emit(*ev) {
				return
			}
		}
	}
}

// progressEvent samples the registry of j's attempt while this replica
// runs it, and of its last attempt once this replica finished the job;
// nil otherwise (queued, run elsewhere, or a result it discarded).
func progressEvent(j *job) *StreamEvent {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	m, state := j.metrics, j.state
	j.mu.Unlock()
	if m == nil || (state != StateRunning && !state.Terminal()) {
		return nil
	}
	sample := sampleProgress(m)
	return &StreamEvent{Type: "progress", State: state, Progress: &sample}
}

// sampleProgress converts an obs snapshot into the wire sample.
func sampleProgress(m *obs.Metrics) ProgressSample {
	snap := m.Snapshot()
	p := ProgressSample{
		Slots:         snap.Slots,
		Wakeups:       snap.Wakeups,
		Decisions:     snap.Decisions,
		Transmissions: snap.Transmissions,
		Deliveries:    snap.Deliveries,
		Collisions:    snap.Collisions,
		CollisionRate: snap.CollisionRate(),
		SlotsPerSec:   snap.SlotsPerSec(),
		PhaseNodes:    make(map[string]int64, obs.NumPhases),
	}
	snap.Export(func(name string, v int64, counter bool) {
		if !counter {
			p.PhaseNodes[strings.TrimPrefix(name, "phase_")] = v
		}
	})
	return p
}
