package main

import (
	"encoding/json"
	"strings"
	"time"

	"radiocolor/internal/store"
)

// timedStore decorates a store.Store: every call goes to the wrapped
// store unchanged and is recorded as a span named store.<Operation>
// whose run is the job it touched ("" for a Claim that found none).
type timedStore struct {
	inner store.Store
	tr    *tracer
}

func newTimedStore(inner store.Store, tr *tracer) *timedStore {
	return &timedStore{inner: inner, tr: tr}
}

func (s *timedStore) note(op, job string, t0 time.Time) {
	s.tr.add(job, "store."+op, -1, t0, time.Now())
}

// storeFigures derives the store layer's metrics from the store.<Op>
// spans among spans: each operation's median latency, the share of
// Claim calls that returned a job, and the operations per job.
func storeFigures(spans []span, jobs int) map[string]float64 {
	latency := map[string][]float64{}
	ops, claims, claimHits := 0, 0, 0
	for _, sp := range spans {
		op, ok := strings.CutPrefix(sp.Name, "store.")
		if !ok {
			continue
		}
		ops++
		latency[op] = append(latency[op], time.Duration(sp.End-sp.Start).Seconds())
		if op == "Claim" {
			claims++
			if sp.Run != "" {
				claimHits++
			}
		}
	}
	return map[string]float64{
		"store.create_s":        medianOrZero(latency["Create"]),
		"store.claim_s":         medianOrZero(latency["Claim"]),
		"store.finish_s":        medianOrZero(latency["Finish"]),
		"store.heartbeat_s":     medianOrZero(latency["Heartbeat"]),
		"store.claim_hit_ratio": ratio(float64(claimHits), float64(claims)),
		"store.ops_per_job":     ratio(float64(ops), float64(jobs)),
	}
}

func (s *timedStore) Create(j *store.Job) error {
	t0 := time.Now()
	err := s.inner.Create(j)
	s.note("Create", j.ID, t0)
	return err
}

func (s *timedStore) Get(id string) (*store.Job, error) {
	t0 := time.Now()
	j, err := s.inner.Get(id)
	s.note("Get", id, t0)
	return j, err
}

func (s *timedStore) List(f store.Filter) ([]*store.Job, error) {
	t0 := time.Now()
	js, err := s.inner.List(f)
	s.note("List", "", t0)
	return js, err
}

func (s *timedStore) Counts() (map[store.State]int, error) {
	t0 := time.Now()
	c, err := s.inner.Counts()
	s.note("Counts", "", t0)
	return c, err
}

func (s *timedStore) Claim(owner string, now time.Time, ttl time.Duration) (*store.Job, error) {
	t0 := time.Now()
	j, err := s.inner.Claim(owner, now, ttl)
	id := ""
	if j != nil {
		id = j.ID
	}
	s.note("Claim", id, t0)
	return j, err
}

func (s *timedStore) Heartbeat(id, owner string, now time.Time, ttl time.Duration) (bool, error) {
	t0 := time.Now()
	c, err := s.inner.Heartbeat(id, owner, now, ttl)
	s.note("Heartbeat", id, t0)
	return c, err
}

func (s *timedStore) Finish(id, owner string, state store.State, result json.RawMessage, errMsg string, now time.Time) error {
	t0 := time.Now()
	err := s.inner.Finish(id, owner, state, result, errMsg, now)
	s.note("Finish", id, t0)
	return err
}

func (s *timedStore) Release(id, owner string, now time.Time) error {
	t0 := time.Now()
	err := s.inner.Release(id, owner, now)
	s.note("Release", id, t0)
	return err
}

func (s *timedStore) RequestCancel(id string, now time.Time) (*store.Job, bool, error) {
	t0 := time.Now()
	j, changed, err := s.inner.RequestCancel(id, now)
	s.note("RequestCancel", id, t0)
	return j, changed, err
}

func (s *timedStore) Prune(keep int) (int, error) {
	t0 := time.Now()
	n, err := s.inner.Prune(keep)
	s.note("Prune", "", t0)
	return n, err
}

func (s *timedStore) Durable() bool { return s.inner.Durable() }

func (s *timedStore) Close() error { return s.inner.Close() }
