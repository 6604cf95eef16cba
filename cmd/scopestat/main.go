// Command scopestat is the operator's view of a running scoped
// service: it polls the server's Prometheus exposition and renders a
// one-screen live summary of the sharing machinery — hit ratio, fold
// rate, admissions, evictions, spills, latency quantiles and the share
// of plans served from the plan store — or
// replays a query event log offline.
//
// Live view (polls every -interval until interrupted; -once for a
// single sample):
//
//	scopestat -addr 127.0.0.1:8421
//
// Offline replay (the paper's log-analysis methodology over our own
// telemetry): read an events.jsonl stream and recompute the sharing
// statistics from the per-request records alone —
//
//	scopestat -replay events.jsonl
//
// The replay totals match the live registry exactly: both sides are
// fed from the same per-run reports (the additivity invariant the
// serve tests pin).
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/eventlog"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8421", "scoped server address (host:port)")
	interval := flag.Duration("interval", 2*time.Second, "poll interval for the live view")
	once := flag.Bool("once", false, "print one sample and exit")
	replay := flag.String("replay", "", "replay an events.jsonl file offline instead of polling")
	flag.Parse()

	if *replay != "" {
		if err := runReplay(*replay, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "scopestat:", err)
			os.Exit(1)
		}
		return
	}
	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	for {
		if err := pollOnce(base, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "scopestat:", err)
			os.Exit(1)
		}
		if *once {
			return
		}
		time.Sleep(*interval)
	}
}

// runReplay recomputes sharing statistics from a JSONL event stream.
func runReplay(path string, w io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := eventlog.ReadJSONL(f)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, eventlog.Summarize(events).String())
	return err
}

// pollOnce fetches one /metrics sample and renders the status screen.
func pollOnce(base string, w io.Writer) error {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return err
	}
	series, err := parseProm(string(body))
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, renderStatus(series))
	return err
}

// parseProm parses Prometheus text exposition into a series→value
// map keyed by the full series name including its label suffix
// (comment lines skipped). It only needs to understand what
// obs.WritePrometheus emits: `name{labels} value` with integer
// values.
func parseProm(text string) (map[string]float64, error) {
	out := map[string]float64{}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			return nil, fmt.Errorf("scopestat: metrics line %d: %q", ln+1, line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scopestat: metrics line %d: %v", ln+1, err)
		}
		out[line[:sp]] = v
	}
	return out, nil
}

// histFromSeries reconstructs a power-of-two HistValue from the
// cumulative _bucket/_sum/_count series of one histogram family, so
// the live view can interpolate quantiles exactly the way the server
// and the replay do. The observed maximum is not exported; the top
// non-empty bucket's upper bound stands in for it.
func histFromSeries(series map[string]float64, family string) obs.HistValue {
	hv := obs.HistValue{
		Count:   int64(series[family+"_count"]),
		Sum:     int64(series[family+"_sum"]),
		Buckets: map[int]int64{},
	}
	type bucket struct {
		upper uint64
		cum   int64
	}
	var buckets []bucket
	pfx := family + `_bucket{le="`
	for name, v := range series {
		if !strings.HasPrefix(name, pfx) {
			continue
		}
		le := strings.TrimSuffix(name[len(pfx):], `"}`)
		if le == "+Inf" {
			continue
		}
		upper, err := strconv.ParseUint(le, 10, 64)
		if err != nil {
			continue
		}
		buckets = append(buckets, bucket{upper: upper, cum: int64(v)})
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].upper < buckets[j].upper })
	prev := int64(0)
	for _, b := range buckets {
		if n := b.cum - prev; n > 0 {
			hv.Buckets[bucketIndex(b.upper)] = n
			hv.Max = int64(b.upper)
		}
		prev = b.cum
	}
	return hv
}

// bucketIndex inverts the exposition's upper bound (2^i − 1) back to
// the power-of-two bucket index.
func bucketIndex(upper uint64) int {
	i := 0
	for upper > 0 {
		upper >>= 1
		i++
	}
	return i
}

// renderStatus formats the one-screen live view from a parsed sample.
func renderStatus(series map[string]float64) string {
	c := func(name string) int64 { return int64(series["scope_"+name]) }
	hits, misses := c("share_cache_hits"), c("share_cache_misses")
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = float64(hits) / float64(hits+misses)
	}
	requests := c("serve_requests")
	foldRate := 0.0
	if requests > 0 {
		foldRate = float64(c("serve_folded")) / float64(requests)
	}
	lat := histFromSeries(series, "scope_serve_latency_us")
	var b strings.Builder
	fmt.Fprintf(&b, "scoped @ %s\n", time.Now().Format(time.TimeOnly))
	fmt.Fprintf(&b, "  requests %-10d errors %-8d rejected %-8d batches %d\n",
		requests, c("serve_errors"), c("serve_rejected"), c("serve_batches"))
	fmt.Fprintf(&b, "  hit ratio %.1f%%  (hits %d / misses %d)   fold rate %.1f%%\n",
		hitRatio*100, hits, misses, foldRate*100)
	fmt.Fprintf(&b, "  cache: %d entries, %d bytes; admitted %d, evicted %d, invalidated %d, quota-rejected %d\n",
		c("share_cache_entries"), c("share_cache_bytes"), c("share_admitted"),
		c("share_cache_evictions"), c("share_cache_invalidations"), c("share_quota_rejected"))
	fmt.Fprintf(&b, "  exec: %d spills, %d exchanges, %d cache reads\n",
		c("exec_spills"), c("exec_exchanges"), c("exec_cache_reads"))
	optimize := histFromSeries(series, "scope_opt_optimize_us")
	queue := histFromSeries(series, "scope_serve_queue_us")
	us := func(h obs.HistValue, p float64) time.Duration {
		return time.Duration(h.Quantile(p)) * time.Microsecond
	}
	planHits := 0.0
	if optimize.Count > 0 {
		planHits = float64(c("opt_plan_hits")) / float64(optimize.Count)
	}
	fmt.Fprintf(&b, "  latency: p50 %s  p99 %s  queue p50 %s  (n=%d)   optimize: p50 %s  p99 %s  plan hits %.1f%%\n",
		us(lat, 0.50), us(lat, 0.99), us(queue, 0.50), lat.Count, us(optimize, 0.50), us(optimize, 0.99), planHits*100)
	return b.String()
}
