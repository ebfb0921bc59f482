package serve

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"radiocolor/internal/store"
)

// This file is the Prometheus text-exposition encoder (version 0.0.4 of
// the format — the plain `name{labels} value` lines every Prometheus
// scraper accepts). The server has two metric sources: its own
// counters/gauges (queue depth, admissions, rejects, job latency) under
// the colord_ prefix, and the aggregate simulation registry
// (internal/obs) under the radiocolor_ prefix, exported through
// obs.Snapshot.Export so the vocabulary is shared with every other
// encoder in the repo.

// promMeta writes the # HELP / # TYPE preamble for one series.
func promMeta(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// promInt writes one un-labelled integer sample.
func promInt(w io.Writer, name string, v int64) {
	fmt.Fprintf(w, "%s %d\n", name, v)
}

// writeMetrics renders the full exposition.
func (s *Server) writeMetrics(w io.Writer) {
	// Server-level counters.
	promMeta(w, "colord_jobs_submitted_total", "counter", "Job submissions received (accepted + rejected).")
	promInt(w, "colord_jobs_submitted_total", s.submitted.Load())
	promMeta(w, "colord_jobs_accepted_total", "counter", "Jobs admitted to the queue.")
	promInt(w, "colord_jobs_accepted_total", s.accepted.Load())
	promMeta(w, "colord_jobs_rejected_total", "counter", "Submissions rejected with 429 (queue full).")
	promInt(w, "colord_jobs_rejected_total", s.rejected.Load())
	promMeta(w, "colord_jobs_completed_total", "counter", "Jobs finished, by terminal state.")
	fmt.Fprintf(w, "colord_jobs_completed_total{state=\"done\"} %d\n", s.completed.Load())
	fmt.Fprintf(w, "colord_jobs_completed_total{state=\"failed\"} %d\n", s.failed.Load())
	fmt.Fprintf(w, "colord_jobs_completed_total{state=\"canceled\"} %d\n", s.canceled.Load())
	fmt.Fprintf(w, "colord_jobs_completed_total{state=\"timed_out\"} %d\n", s.timedOut.Load())

	// Gauges.
	promMeta(w, "colord_queue_depth", "gauge", "Jobs waiting in the store's queue.")
	promInt(w, "colord_queue_depth", int64(s.queuedCount()))
	promMeta(w, "colord_queue_capacity", "gauge", "Queued-backlog admission bound of this replica.")
	promInt(w, "colord_queue_capacity", int64(s.cfg.QueueCap))
	promMeta(w, "colord_jobs_inflight", "gauge", "Jobs currently executing.")
	promInt(w, "colord_jobs_inflight", s.inflight.Load())
	promMeta(w, "colord_uptime_seconds", "gauge", "Seconds since the server was created.")
	fmt.Fprintf(w, "colord_uptime_seconds %s\n", promFloat(s.now().Sub(s.start).Seconds()))

	// Store occupancy: one gauge per state, from the shared store, so
	// every replica scrapes the same backlog picture.
	if counts, err := s.st.Counts(); err == nil {
		promMeta(w, "colord_store_jobs", "gauge", "Jobs in the store, by state.")
		for _, st := range []store.State{store.StateQueued, store.StateRunning, store.StateDone,
			store.StateFailed, store.StateCanceled, store.StateTimedOut} {
			fmt.Fprintf(w, "colord_store_jobs{state=%q} %d\n", string(st), counts[st])
		}
	}

	// Control-plane counters: store writes, lease traffic, sweeps.
	s.ctrl.Snapshot().Export(func(name string, v int64) {
		full := "colord_" + name + "_total"
		promMeta(w, full, "counter", "Control-plane "+strings.ReplaceAll(name, "_", " ")+".")
		promInt(w, full, v)
	})

	// Deployment cache.
	promMeta(w, "colord_cache_hits_total", "counter", "Deployment cache hits.")
	promInt(w, "colord_cache_hits_total", s.cache.hits.Load())
	promMeta(w, "colord_cache_misses_total", "counter", "Deployment cache misses.")
	promInt(w, "colord_cache_misses_total", s.cache.misses.Load())
	promMeta(w, "colord_cache_entries", "gauge", "Deployments currently cached.")
	promInt(w, "colord_cache_entries", int64(s.cache.len()))

	// Job latency histogram.
	cum, sum, count := s.latency.snapshot()
	promMeta(w, "colord_job_duration_seconds", "histogram", "Wall time of job executions (all attempts).")
	for i, bound := range s.latency.bounds {
		fmt.Fprintf(w, "colord_job_duration_seconds_bucket{le=%q} %d\n", promFloat(bound), cum[i])
	}
	fmt.Fprintf(w, "colord_job_duration_seconds_bucket{le=\"+Inf\"} %d\n", cum[len(cum)-1])
	fmt.Fprintf(w, "colord_job_duration_seconds_sum %s\n", promFloat(sum))
	fmt.Fprintf(w, "colord_job_duration_seconds_count %d\n", count)

	// Aggregate simulation registry: the engine counts every attempt
	// into its own registry, and simTotals sums the finished attempts
	// with the running ones, so these counters cover all jobs since the
	// server started and the phase gauges the jobs running now. Phase
	// occupancy gauges get a shared series with a phase label.
	snap := s.obsReg.Snapshot()
	phaseMetaDone := false
	snap.Export(func(name string, v int64, counter bool) {
		if counter {
			full := "radiocolor_" + name + "_total"
			promMeta(w, full, "counter", "Simulation "+name+" across all jobs.")
			promInt(w, full, v)
			return
		}
		if !phaseMetaDone {
			promMeta(w, "radiocolor_phase_nodes", "gauge", "Nodes currently in each protocol phase.")
			phaseMetaDone = true
		}
		phase := strings.TrimPrefix(name, "phase_")
		fmt.Fprintf(w, "radiocolor_phase_nodes{phase=%q} %d\n", phase, v)
	})
}

// promFloat renders a float the way Prometheus expects (no exponent for
// the usual magnitudes, trailing zeros trimmed).
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
