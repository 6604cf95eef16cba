package share

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/obs"
)

// runBatch runs scriptA then scriptB (cold fill, then warm hit) in
// one fresh session publishing into r, and returns the two reports.
func runBatch(t *testing.T, r *obs.Registry) (*RunReport, *RunReport) {
	t.Helper()
	cat, fs := testEnv(t)
	s, err := NewSession(Config{Catalog: cat, FS: fs, Machines: 8, Obs: r})
	if err != nil {
		t.Fatal(err)
	}
	repA, err := s.Run(scriptA)
	if err != nil {
		t.Fatal(err)
	}
	repB, err := s.Run(scriptB)
	if err != nil {
		t.Fatal(err)
	}
	return repA, repB
}

// TestSessionPublishMatchesReports checks that one session's published
// registry agrees with its RunReports: sharing counters sum over the
// runs, gauges hold the final cache occupancy, and the optimizer and
// executor sections are present.
func TestSessionPublishMatchesReports(t *testing.T) {
	r := obs.NewRegistry()
	repA, repB := runBatch(t, r)
	if repB.CacheHits == 0 {
		t.Fatal("warm script B did not hit the cache")
	}
	snap := r.Snapshot()
	if got, want := snap.Counters["share.cache_hits"], int64(repA.CacheHits+repB.CacheHits); got != want {
		t.Errorf("share.cache_hits = %d, want %d", got, want)
	}
	if got, want := snap.Counters["share.admitted"], int64(repA.Admitted+repB.Admitted); got != want {
		t.Errorf("share.admitted = %d, want %d", got, want)
	}
	if got, want := snap.Counters["share.admitted_bytes"], repA.AdmittedBytes+repB.AdmittedBytes; got != want {
		t.Errorf("share.admitted_bytes = %d, want %d", got, want)
	}
	if got, want := snap.Counters["exec.rows_processed"], repA.Metrics.RowsProcessed+repB.Metrics.RowsProcessed; got != want {
		t.Errorf("exec.rows_processed = %d, want %d", got, want)
	}
	if snap.Counters["opt.shared_groups"] == 0 {
		t.Error("optimizer stats were not published")
	}
	if h := snap.Hists["opt.optimize_us"]; h.Count != 2 || h.Sum <= 0 {
		t.Errorf("opt.optimize_us = %+v, want one positive observation per run", h)
	}
	if snap.Gauges["share.cache_entries"] == 0 || snap.Gauges["share.cache_bytes"] == 0 {
		t.Errorf("cache occupancy gauges not set: %+v", snap.Gauges)
	}
}

// TestConcurrentSessionsRegistryMerge is satellite criterion 3: K
// concurrent sessions — each running a cold script then a warm
// cache-hit script over its own data — publishing into one shared
// registry must leave exactly the Add of K private per-session
// snapshots. Counters and histograms are additive per run; the
// occupancy gauges are levels and agree because the sessions are
// identical.
func TestConcurrentSessionsRegistryMerge(t *testing.T) {
	priv := obs.NewRegistry()
	runBatch(t, priv)
	perSession := priv.Snapshot()
	if perSession.Counters["share.cache_hits"] == 0 {
		t.Fatal("per-session baseline saw no cache hits")
	}

	const k = 4
	want := obs.NewSnapshot()
	for i := 0; i < k; i++ {
		want = want.Add(perSession)
	}

	shared := obs.NewRegistry()
	var wg sync.WaitGroup
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("session %d panicked: %v", i, p)
				}
			}()
			cat, fs := testEnv(t)
			s, err := NewSession(Config{Catalog: cat, FS: fs, Machines: 8, Obs: shared})
			if err != nil {
				errs[i] = err
				return
			}
			if _, errs[i] = s.Run(scriptA); errs[i] != nil {
				return
			}
			_, errs[i] = s.Run(scriptB)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}

	got := shared.Snapshot()
	// opt.optimize_us observes the wall clock: one observation per run
	// is the law, the microseconds are not.
	for _, snap := range []obs.Snapshot{got, want} {
		snap.Hists["opt.optimize_us"] = obs.HistValue{Count: snap.Hists["opt.optimize_us"].Count}
	}
	if n := got.Hists["opt.optimize_us"].Count; n != 2*k {
		t.Errorf("opt.optimize_us holds %d observations, want one per run (%d)", n, 2*k)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("shared registry after %d concurrent sessions:\n%vwant %d x per-session snapshot:\n%v", k, got, k, want)
	}
}
