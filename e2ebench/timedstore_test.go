package main

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"radiocolor/internal/store"
)

// storeScript drives a store through create, claim, heartbeat, finish,
// get and the rest of the lease machinery at fixed times, and returns a
// transcript of every result and error.
func storeScript(t *testing.T, s store.Store) []string {
	t.Helper()
	var out []string
	note := func(op string, v any, err error) {
		data, merr := json.Marshal(v)
		if merr != nil {
			t.Fatalf("%s: encode result: %v", op, merr)
		}
		out = append(out, fmt.Sprintf("%s -> %s err=%v", op, data, err))
	}
	t0 := time.Date(2025, 1, 2, 3, 4, 5, 0, time.UTC)
	at := func(sec int) time.Time { return t0.Add(time.Duration(sec) * time.Second) }
	ttl := 10 * time.Second

	for i := 0; i < 3; i++ {
		j := &store.Job{Kind: store.KindJob, Spec: json.RawMessage(fmt.Sprintf(`{"n":%d}`, i)), Submitted: at(i)}
		err := s.Create(j)
		note("Create", j, err)
	}
	a, err := s.Claim("r1", at(10), ttl)
	note("Claim", a, err)
	cancel, err := s.Heartbeat(a.ID, "r1", at(12), ttl)
	note("Heartbeat", cancel, err)
	_, err = s.Heartbeat(a.ID, "r2", at(12), ttl)
	note("Heartbeat/other owner", nil, err)
	note("Finish", nil, s.Finish(a.ID, "r1", store.StateDone, json.RawMessage(`{"ok":true}`), "", at(13)))
	note("Finish/again", nil, s.Finish(a.ID, "r1", store.StateDone, nil, "", at(14)))

	b, err := s.Claim("r2", at(20), ttl)
	note("Claim", b, err)
	note("Release", nil, s.Release(b.ID, "r2", at(21)))
	b, err = s.Claim("r2", at(22), ttl)
	note("Claim/after release", b, err)
	note("Finish/failed", nil, s.Finish(b.ID, "r2", store.StateFailed, nil, "boom", at(23)))

	c, changed, err := s.RequestCancel("j-000003", at(30))
	note("RequestCancel", map[string]any{"job": c, "changed": changed}, err)
	none, err := s.Claim("r1", at(31), ttl)
	note("Claim/empty", none, err)

	for _, id := range []string{a.ID, b.ID, "j-000003", "j-999999"} {
		j, err := s.Get(id)
		note("Get "+id, j, err)
	}
	list, err := s.List(store.Filter{})
	note("List", list, err)
	counts, err := s.Counts()
	note("Counts", counts, err)
	pruned, err := s.Prune(1)
	note("Prune", pruned, err)
	list, err = s.List(store.Filter{})
	note("List/after prune", list, err)
	note("Durable", s.Durable(), nil)
	return out
}

func openFile(t *testing.T) *store.File {
	t.Helper()
	f, err := store.OpenFile(t.TempDir(), store.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	return f
}

// TestTimedStoreMatchesBareFile is the decorator's contract: a wrapped
// File returns exactly what a bare one does, and every call is timed.
func TestTimedStoreMatchesBareFile(t *testing.T) {
	bare := storeScript(t, openFile(t))
	tr := newTracer()
	ts := newTimedStore(openFile(t), tr)
	wrapped := storeScript(t, ts)
	if !reflect.DeepEqual(bare, wrapped) {
		for i := range bare {
			if i >= len(wrapped) || bare[i] != wrapped[i] {
				t.Fatalf("first difference at step %d:\n bare:    %s\n wrapped: %v", i, bare[i], wrapped[min(i, len(wrapped)-1)])
			}
		}
		t.Fatalf("wrapped transcript has %d steps, bare %d", len(wrapped), len(bare))
	}

	count := map[string]int{}
	for _, s := range tr.spans {
		count[s.Name]++
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	for op, want := range map[string]int{"Create": 3, "Claim": 4, "Heartbeat": 2, "Finish": 3, "Release": 1, "Get": 4} {
		if got := count["store."+op]; got != want {
			t.Errorf("%s timed %d times, want %d", op, got, want)
		}
	}
	figs := storeFigures(tr.spans, 3)
	if got := figs["store.claim_hit_ratio"]; got != 0.75 {
		t.Errorf("claim hit ratio = %v, want 0.75", got)
	}
	// 3 Create, 4 Claim, 2 Heartbeat, 3 Finish, 1 Release, 1 RequestCancel,
	// 4 Get, 2 List, 1 Counts, 1 Prune.
	if got := figs["store.ops_per_job"]; got != 22.0/3 {
		t.Errorf("ops per job = %v, want 22/3", got)
	}
}
