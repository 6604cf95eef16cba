package difftest

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/eventlog"
	"repro/internal/serve"
	"repro/internal/share"
)

// A clients cell's requests come from tenants tenants, a wave's
// submission i from tenant i mod tenants; phase (i)'s wide wave submits
// the batch rounds times. The batching window must outlast the spread
// of a wave's arrivals (each Submit compiles its script first, slowly
// under -race), or a cold script straddling two windows builds a
// shared subexpression twice.
const (
	tenants = 8
	rounds  = 4
	window  = 20 * time.Millisecond
)

// submission is one request to the service and its response.
type submission struct {
	tenant string
	script int // index into the entry's batch
	rep    *share.RunReport
	err    error
}

// clients checks a clients cell. It submits the entry's batch through
// one fresh serve.Server over the entry's files in waves, each ending
// when its last response arrives: (i) the batch once, cold, then the
// batch rounds times in one wide wave; (ii) the batch again until the
// plan store serves all of it; (iii) each script of the batch once per
// tenant, one wave per script. At clients=1 a wave's submissions go
// one at a time, with no batching window (one request has nothing to
// fold with), and the canonical event stream must not depend on the
// worker count. At clients=8 all of a wave's submissions are in flight
// at once, and the server runs as many groups at once as the wide wave
// has submissions, so its warm runs all overlap.
func (r *runner) clients(t *testing.T, c cell) {
	stream := r.serve(t, c)
	if c.clients == 1 && c.workers != 1 {
		one := c
		one.workers = 1
		if base := r.serve(t, one); stream != base {
			r.fail(t, nil, "canonical event stream differs from workers=1's: %s", lineDiff(stream, base))
		}
	}
}

// serve runs and checks one clients cell, once, and returns its
// canonical event stream.
func (r *runner) serve(t *testing.T, c cell) string {
	if s, ok := r.streams[c]; ok {
		return s
	}
	w := r.load()
	cfg := serve.Config{Catalog: w.Cat, FS: w.FS, Machines: r.machines, Workers: c.workers, MaxInFlight: rounds * len(r.batch)}
	if c.clients > 1 {
		cfg.Window = window
	}
	srv, err := serve.New(cfg)
	if err != nil {
		r.fail(t, nil, "server: %v", err)
	}
	var all []*submission
	wave := func(scripts ...int) []*submission {
		subs := make([]*submission, len(scripts))
		submit := func(s *submission) {
			s.rep, s.err = srv.Submit(context.Background(), s.tenant, r.batch[s.script])
		}
		var wg sync.WaitGroup
		for i, script := range scripts {
			subs[i] = &submission{tenant: fmt.Sprintf("t%d", i%tenants), script: script}
			if c.clients == 1 {
				submit(subs[i])
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				submit(subs[i])
			}()
		}
		wg.Wait()
		all = append(all, subs...)
		return subs
	}
	var batch, wide []int
	for i := range r.batch {
		batch = append(batch, i)
	}
	for range rounds {
		wide = append(wide, batch...)
	}
	wave(batch...)
	wave(wide...)
	for pass := 1; slices.ContainsFunc(wave(batch...), func(s *submission) bool { return s.rep == nil || !s.rep.PlanCached }); pass++ {
		if pass == 4 {
			r.fail(t, nil, "the plan store served no full pass over the batch")
		}
	}
	var served [][]*submission
	for i := range batch {
		same := make([]int, tenants)
		for k := range same {
			same[k] = i
		}
		served = append(served, wave(same...))
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		r.fail(t, nil, "shutdown: %v", err)
	}
	if err := srv.Session().Quiescent(); err != nil {
		r.fail(t, nil, "after shutdown: %v", err)
	}
	events := srv.EventLog().Events()
	r.responses(t, c, all, events)
	for _, subs := range served {
		for _, s := range subs {
			if !s.rep.PlanCached || s.rep.Plan != subs[0].rep.Plan {
				r.fail(t, s.rep.Plan, "%s, script %d: served=%t, on the plan tree the other served runs ran: %t", s.tenant, s.script, s.rep.PlanCached, s.rep.Plan == subs[0].rep.Plan)
			}
		}
	}
	r.counters(t, srv, events)
	r.streams[c] = string(eventlog.CanonicalJSONL(events))
	return r.streams[c]
}

// responses holds every response and its event to the script's
// reference outputs: one event per request, each naming a submitted
// (tenant, script) pair, no errors, output digests equal to the
// reference's. Sequentially, a request whose event records a
// subexpression as covered must have read the cache.
func (r *runner) responses(t *testing.T, c cell, subs []*submission, events []eventlog.Event) {
	if len(events) != len(subs) {
		r.fail(t, nil, "%d events for %d requests", len(events), len(subs))
	}
	pending := map[[2]string]int{}
	for _, s := range subs {
		if s.err != nil {
			r.fail(t, nil, "%s, script %d: %v", s.tenant, s.script, s.err)
		}
		if d := diff(s.rep.Outputs, r.reference(t, r.batch[s.script]), false); d != "" {
			r.fail(t, s.rep.Plan, "%s, script %d: outputs differ from exec.Reference: %s", s.tenant, s.script, d)
		}
		pending[[2]string{s.tenant, eventlog.ScriptID(r.batch[s.script])}]++
	}
	digests := map[string][]eventlog.Output{}
	for _, src := range r.batch {
		digests[eventlog.ScriptID(src)] = eventlog.HexOutputs(eventlog.Digests(r.reference(t, src)))
	}
	for _, ev := range events {
		k := [2]string{ev.Tenant, ev.Script}
		if pending[k]--; pending[k] < 0 || ev.Error != "" {
			r.fail(t, nil, "event %s (%s, script %s) matches no successful request: %q", ev.ID, ev.Tenant, ev.Script, ev.Error)
		}
		if want := digests[ev.Script]; !slices.Equal(ev.Outputs, want) {
			r.fail(t, nil, "event %s: output digests %v, exec.Reference's %v", ev.ID, ev.Outputs, want)
		}
		if c.clients == 1 && len(ev.Covered) > 0 && ev.CacheHits == 0 {
			r.fail(t, nil, "event %s: subexpressions %v were cached, yet the run read none", ev.ID, ev.Covered)
		}
	}
}

// counters holds the registry to the event stream: the session's and
// each tenant's sharing counters, requests, errors, folds and spills
// are the sums of their events, and the published cache lifecycle
// equals the cache's own. The batch must share: some hit, and no more
// misses than it has scripts.
func (r *runner) counters(t *testing.T, srv *serve.Server, events []eventlog.Event) {
	sum := eventlog.Summarize(events)
	st := srv.Session().CacheStats()
	want := obs.NewRegistry()
	sum.Sharing.Record(want, "share.")
	for tenant := range sum.TenantRequests {
		var own []eventlog.Event
		for _, ev := range events {
			if ev.Tenant == tenant {
				own = append(own, ev)
			}
		}
		eventlog.Summarize(own).Sharing.Record(want, "serve.tenant."+tenant+".")
		want.Counter("serve.tenant." + tenant + ".requests").Add(sum.TenantRequests[tenant])
	}
	for name, n := range map[string]int64{
		"serve.requests": int64(sum.Events), "serve.errors": int64(sum.Errors), "serve.folded": sum.Folded,
		"exec.spills": sum.Spills, "share.cache_insertions": st.Insertions,
		"share.cache_evictions": st.Evictions, "share.cache_invalidations": st.Invalidations,
	} {
		want.Counter(name).Add(n)
	}
	got, wants := srv.Registry().Snapshot().Counters, want.Snapshot().Counters
	names := make([]string, 0, len(wants))
	for name := range wants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != wants[name] {
			r.fail(t, nil, "registry %s = %d, want %d", name, got[name], wants[name])
		}
	}
	if int64(sum.Evicted) != st.Evictions || sum.CacheHits == 0 || sum.CacheMisses > len(r.batch) || got["exec.batches"] == 0 {
		r.fail(t, nil, "evicted %d of the cache's %d evictions, %d hits, %d misses for %d scripts, %d batches",
			sum.Evicted, st.Evictions, sum.CacheHits, sum.CacheMisses, len(r.batch), got["exec.batches"])
	}
}
