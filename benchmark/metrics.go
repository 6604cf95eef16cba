package main

import (
	"time"

	"repro/internal/obs"
)

// metricDef is one row of the metric catalogue; BENCHMARK.json lists
// the same rows and bench_smoke_test.go keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndDefs are what a tenant or an operator of the service sees.
// failed_share is not listed because it is 0 on a correct service:
// the result line's attempted and failed carry it, and any failure
// fails the command.
var endToEndDefs = []metricDef{
	{"latency_p50_ms", "ms", "lower", 0.10},
	{"latency_p90_ms", "ms", "lower", 0.12},
	{"throughput_rps", "1/s", "higher", 0.10},
	{"cpu_ms_per_req", "ms", "lower", 0.10},
	{"metered_mb_per_req", "MB", "lower", 0.03},
	{"retained_heap_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayerDefs are single-layer numbers, named after the module they
// come from. Counts are deltas over the untraced interval of a traced
// run; *_us are medians over its traced pass.
var perLayerDefs = []metricDef{
	{Name: "sqlparse.parse_us", Unit: "us", Better: "lower"},
	{Name: "logical.bind_us", Unit: "us", Better: "lower"},
	{Name: "logical.memo_groups", Unit: "count", Better: "lower"},
	{Name: "core.identify_us", Unit: "us", Better: "lower"},
	{Name: "core.shared_groups", Unit: "count", Better: "higher"},
	{Name: "opt.optimize_us", Unit: "us", Better: "lower"},
	{Name: "opt.phase1_tasks", Unit: "count", Better: "lower"},
	{Name: "opt.phase2_tasks", Unit: "count", Better: "lower"},
	{Name: "opt.rounds", Unit: "count", Better: "lower"},
	{Name: "opt.rounds_pruned", Unit: "count", Better: "higher"},
	{Name: "opt.cachescans_per_plan", Unit: "count", Better: "higher"},
	{Name: "opt.est_cost", Unit: "cost", Better: "lower"},
	{Name: "opt.est_cost_ratio", Unit: "ratio", Better: "lower"},
	{Name: "exec.run_us", Unit: "us", Better: "lower"},
	{Name: "exec.rows_per_req", Unit: "count", Better: "lower"},
	{Name: "exec.rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "exec.disk_mb_per_req", Unit: "MB", Better: "lower"},
	{Name: "exec.net_mb_per_req", Unit: "MB", Better: "lower"},
	{Name: "exec.cache_read_mb_per_req", Unit: "MB", Better: "lower"},
	{Name: "exec.cache_written_mb_per_req", Unit: "MB", Better: "lower"},
	{Name: "exec.spools_per_req", Unit: "count", Better: "lower"},
	{Name: "exec.exchanges_per_req", Unit: "count", Better: "lower"},
	{Name: "exec.batches_per_req", Unit: "count", Better: "higher"},
	{Name: "exec.spills", Unit: "count", Better: "lower"},
	{Name: "exec.spill_mb", Unit: "MB", Better: "lower"},
	{Name: "share.hit_share", Unit: "ratio", Better: "higher"},
	{Name: "share.hits_per_req", Unit: "count", Better: "higher"},
	{Name: "share.misses_per_req", Unit: "count", Better: "lower"},
	{Name: "share.builds_per_distinct", Unit: "ratio", Better: "lower"},
	{Name: "share.admitted_mb", Unit: "MB", Better: "lower"},
	{Name: "share.insertions", Unit: "count", Better: "lower"},
	{Name: "share.evictions", Unit: "count", Better: "lower"},
	{Name: "share.invalidations", Unit: "count", Better: "lower"},
	{Name: "share.cache_mb_end", Unit: "MB", Better: "lower"},
	{Name: "share.cache_entries_end", Unit: "count", Better: "lower"},
	{Name: "serve.residual_us", Unit: "us", Better: "lower"},
	{Name: "serve.queue_wait_us", Unit: "us", Better: "lower"},
	{Name: "serve.worker_latency_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.folded_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.cold_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.warm_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.revisit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.errors", Unit: "count", Better: "lower"},
	{Name: "serve.response_bytes", Unit: "B", Better: "lower"},
	{Name: "eventlog.events_per_req", Unit: "ratio", Better: "lower"},
	{Name: "mqo.plan_us", Unit: "us", Better: "lower"},
	{Name: "mqo.evals", Unit: "count", Better: "lower"},
	{Name: "mqo.chosen", Unit: "count", Better: "higher"},
	{Name: "mqo.est_saving_share", Unit: "ratio", Better: "higher"},
	{Name: "process.alloc_mb_per_req", Unit: "MB", Better: "lower"},
	{Name: "process.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "process.goroutines_end", Unit: "count", Better: "lower"},
	{Name: "trace.post_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
}

// buildsPerDistinct is misses over distinct uncovered shared
// subexpressions: within one barrier step, requests with the same key
// need the same artifacts, so the step needed max(misses) builds of
// that key and anything above it built an artifact twice. 1.0 is the
// invariant; an interval without misses has nothing duplicated.
func buildsPerDistinct(samples []sample) float64 {
	type slot struct {
		step int
		key  string
	}
	need := map[slot]int{}
	misses := 0
	for _, s := range samples {
		k := slot{s.step, s.it.key}
		misses += s.rr.CacheMisses
		if s.rr.CacheMisses > need[k] {
			need[k] = s.rr.CacheMisses
		}
	}
	distinct := 0
	for _, n := range need {
		distinct += n
	}
	if distinct == 0 {
		return 1
	}
	return float64(misses) / float64(distinct)
}

// histDelta is the histogram of the observations made between two
// snapshots of one registry histogram.
func histDelta(pre, post obs.HistValue) obs.HistValue {
	d := obs.HistValue{Count: post.Count - pre.Count, Sum: post.Sum - pre.Sum, Max: post.Max,
		Buckets: map[int]int64{}}
	for b, n := range post.Buckets {
		if n -= pre.Buckets[b]; n > 0 {
			d.Buckets[b] = n
		}
	}
	return d
}

// perLayer computes the single-layer metrics of a traced run: counts
// from the untraced interval iv, times from the traced pass reqs.
func perLayer(iv *interval, reqs []tracedRequest, spans int, pool map[string]float64) map[string]float64 {
	attempted := float64(len(iv.samples))
	done := float64(iv.completed())
	if done == 0 {
		done = 1
	}
	per := func(counter string) float64 { return iv.delta(counter) / done }
	mb := func(counter string) float64 { return iv.delta(counter) / 1e6 / done }
	traced := func(f func(tracedRequest) float64) float64 {
		v := make([]float64, len(reqs))
		for i, r := range reqs {
			v[i] = f(r)
		}
		return median(v)
	}
	stageUs := func(name string) float64 {
		return traced(func(r tracedRequest) float64 { return r.stageUs[name] })
	}
	classP50 := func(class string) float64 {
		var v []float64
		for _, s := range iv.samples {
			if s.it.class == class {
				v = append(v, float64(s.latency)/float64(time.Millisecond))
			}
		}
		return median(v)
	}
	var cost, bytes float64
	for _, s := range iv.samples {
		cost += s.rr.Cost
		bytes += float64(s.bytes)
	}
	hits, misses := iv.delta("share.cache_hits"), iv.delta("share.cache_misses")
	hitShare := 0.0
	if hits+misses > 0 {
		hitShare = hits / (hits + misses)
	}
	m := map[string]float64{
		"sqlparse.parse_us":   stageUs("sqlparse.parse"),
		"logical.bind_us":     stageUs("logical.bind"),
		"logical.memo_groups": traced(func(r tracedRequest) float64 { return float64(r.memoGroups) }),
		"core.identify_us":    stageUs("core.identify"),
		"core.shared_groups":  per("opt.shared_groups"),

		"opt.optimize_us":         stageUs("opt.optimize"),
		"opt.phase1_tasks":        per("opt.phase1_tasks"),
		"opt.phase2_tasks":        per("opt.phase2_tasks"),
		"opt.rounds":              per("opt.rounds"),
		"opt.rounds_pruned":       per("opt.rounds_pruned"),
		"opt.cachescans_per_plan": traced(func(r tracedRequest) float64 { return float64(r.cacheScans) }),
		"opt.est_cost":            cost / attempted,

		"exec.run_us":                   stageUs("exec.run"),
		"exec.rows_per_req":             per("exec.rows_processed"),
		"exec.rows_per_s":               iv.delta("exec.rows_processed") / iv.elapsed.Seconds(),
		"exec.disk_mb_per_req":          mb("exec.disk_bytes_read") + mb("exec.disk_bytes_written"),
		"exec.net_mb_per_req":           mb("exec.net_bytes"),
		"exec.cache_read_mb_per_req":    mb("exec.cache_bytes_read"),
		"exec.cache_written_mb_per_req": mb("exec.cache_bytes_written"),
		"exec.spools_per_req":           per("exec.spool_materializations"),
		"exec.exchanges_per_req":        per("exec.exchanges"),
		"exec.batches_per_req":          per("exec.batches"),
		"exec.spills":                   iv.delta("exec.spills"),
		"exec.spill_mb":                 (iv.delta("exec.spill_bytes_read") + iv.delta("exec.spill_bytes_written")) / 1e6,

		"share.hit_share":           hitShare,
		"share.hits_per_req":        hits / done,
		"share.misses_per_req":      misses / done,
		"share.builds_per_distinct": buildsPerDistinct(iv.samples),
		"share.admitted_mb":         iv.delta("share.admitted_bytes") / 1e6,
		"share.insertions":          float64(iv.post.cache.Insertions - iv.pre.cache.Insertions),
		"share.evictions":           float64(iv.post.cache.Evictions - iv.pre.cache.Evictions),
		"share.invalidations":       float64(iv.post.cache.Invalidations - iv.pre.cache.Invalidations),
		"share.cache_mb_end":        float64(iv.post.cache.Bytes) / 1e6,
		"share.cache_entries_end":   float64(iv.post.cache.Entries),

		"serve.residual_us":   traced(func(r tracedRequest) float64 { return r.postUs - r.replayUs() }),
		"serve.queue_wait_us": traced(func(r tracedRequest) float64 { return r.postUs - r.workerUs }),
		"serve.worker_latency_p50_us": histDelta(iv.pre.reg.Hists["serve.latency_us"],
			iv.post.reg.Hists["serve.latency_us"]).Quantile(0.5),
		"serve.folded_share":      iv.delta("serve.folded") / attempted,
		"serve.cold_p50_ms":       classP50(classCold),
		"serve.warm_p50_ms":       classP50(classWarm),
		"serve.revisit_p50_ms":    classP50(classRevisit),
		"serve.rejected":          iv.delta("serve.rejected"),
		"serve.errors":            iv.delta("serve.errors"),
		"serve.response_bytes":    bytes / attempted,
		"eventlog.events_per_req": float64(iv.post.events-iv.pre.events) / attempted,

		"process.alloc_mb_per_req": float64(iv.post.mem.TotalAlloc-iv.pre.mem.TotalAlloc) / 1e6 / done,
		"process.gc_pause_ms":      float64(iv.post.mem.PauseTotalNs-iv.pre.mem.PauseTotalNs) / 1e6,
		"process.goroutines_end":   float64(iv.post.goroutines),
		"trace.post_p50_ms":        traced(func(r tracedRequest) float64 { return r.postUs / 1e3 }),
		"trace.spans":              float64(spans),
	}
	for _, k := range []string{"opt.est_cost_ratio", "mqo.plan_us", "mqo.evals", "mqo.chosen", "mqo.est_saving_share"} {
		m[k] = pool[k]
	}
	return m
}
