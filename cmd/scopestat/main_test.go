package main

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestReplayFixture replays the committed 20-event fixture (generated
// from a deterministic sequential scoped run of the paper's S1–S4
// scripts, 5 rounds) and pins the recomputed sharing statistics.
func TestReplayFixture(t *testing.T) {
	var b strings.Builder
	if err := runReplay("testdata/events.jsonl", &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "events=20 errors=0 ") {
		t.Errorf("replay header wrong: %q", out)
	}
	// Round 1 misses once per distinct shared aggregation, rounds 2-5
	// hit; the exact totals are pinned by the fixture.
	for _, want := range []string{"hits=", "misses=", "fold_rate=0.0%", "tenants: alice=5 bob=5 carol=5 dave=5"} {
		if !strings.Contains(out, want) {
			t.Errorf("replay output missing %q:\n%s", want, out)
		}
	}
}

func TestReplayMissingFile(t *testing.T) {
	if err := runReplay("testdata/nope.jsonl", &strings.Builder{}); err == nil {
		t.Fatal("missing file did not error")
	}
}

// TestParseProm round-trips a registry snapshot through the wire
// format: render with WritePrometheus, parse, and check the series.
func TestParseProm(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("share.cache_hits").Add(30)
	r.Counter("share.cache_misses").Add(10)
	r.Counter("serve.requests").Add(40)
	r.Counter("serve.folded").Add(4)
	h := r.Histogram("serve.latency_us")
	for v := int64(1); v <= 100; v++ {
		h.Observe(v * 10)
	}
	var b strings.Builder
	if err := r.Snapshot().WritePrometheus(&b, "scope"); err != nil {
		t.Fatal(err)
	}
	series, err := parseProm(b.String())
	if err != nil {
		t.Fatal(err)
	}
	if series["scope_share_cache_hits"] != 30 || series["scope_serve_requests"] != 40 {
		t.Errorf("parsed series wrong: %v", series)
	}
	// The reconstructed histogram matches the server-side one bucket
	// for bucket, so quantiles agree.
	got := histFromSeries(series, "scope_serve_latency_us")
	want := r.Snapshot().Hists["serve.latency_us"]
	if got.Count != want.Count || got.Sum != want.Sum || len(got.Buckets) != len(want.Buckets) {
		t.Fatalf("reconstructed histogram %+v, want %+v", got, want)
	}
	for i, n := range want.Buckets {
		if got.Buckets[i] != n {
			t.Errorf("bucket %d: %d, want %d", i, got.Buckets[i], n)
		}
	}
	if p50, w50 := got.Quantile(0.5), want.Quantile(0.5); p50 < w50/2 || p50 > w50*2 {
		t.Errorf("p50 %g far from server-side %g", p50, w50)
	}
}

func TestParsePromMalformed(t *testing.T) {
	if _, err := parseProm("scope_x notanumber"); err == nil {
		t.Fatal("malformed value accepted")
	}
}

// TestRenderStatus checks the live view computes ratios from the
// parsed sample.
func TestRenderStatus(t *testing.T) {
	series := map[string]float64{
		"scope_share_cache_hits":                   30,
		"scope_share_cache_misses":                 10,
		"scope_serve_requests":                     40,
		"scope_serve_folded":                       10,
		"scope_share_cache_entries":                3,
		"scope_exec_spills":                        2,
		`scope_serve_latency_us_bucket{le="1023"}`: 40,
		"scope_serve_latency_us_sum":               20000,
		"scope_serve_latency_us_count":             40,
		`scope_opt_optimize_us_bucket{le="255"}`:   40,
		"scope_opt_optimize_us_sum":                8000,
		"scope_opt_optimize_us_count":              40,
		"scope_opt_plan_hits":                      30,
		`scope_serve_queue_us_bucket{le="16383"}`:  40,
		"scope_serve_queue_us_sum":                 400000,
		"scope_serve_queue_us_count":               40,
	}
	out := renderStatus(series)
	for _, want := range []string{
		"hit ratio 75.0%", "fold rate 25.0%", "requests 40", "2 spills",
		"(n=40)   optimize: p50 1", // p50 of one [128,255] bucket, in µs
		"queue p50 12.",            // p50 of one [8192,16383] bucket, in ms
		"plan hits 75.0%",          // 30 of 40 optimizations served from the store
	} {
		if !strings.Contains(out, want) {
			t.Errorf("status missing %q:\n%s", want, out)
		}
	}
}

func TestBucketIndex(t *testing.T) {
	cases := map[uint64]int{1: 1, 3: 2, 7: 3, 1023: 10}
	for upper, want := range cases {
		if got := bucketIndex(upper); got != want {
			t.Errorf("bucketIndex(%d) = %d, want %d", upper, got, want)
		}
	}
}
