package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/eventlog"
	"repro/internal/share"
)

// TestServeHTTP drives the service end to end over its HTTP surface:
// alice warms the cache, bob's response reports cross-client hits, and
// bob's output digest matches a direct session run of the same script.
func TestServeHTTP(t *testing.T) {
	s := newTestServer(t, Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(tenant, script string) (*http.Response, RunResponse) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/run", strings.NewReader(script))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(TenantHeader, tenant)
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rr RunResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
				t.Fatal(err)
			}
		}
		return resp, rr
	}

	resp, alice := post("alice", scriptA)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alice: status %d", resp.StatusCode)
	}
	if alice.Tenant != "alice" || alice.Admitted == 0 {
		t.Fatalf("alice response %+v", alice)
	}
	resp, bob := post("bob", scriptB)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bob: status %d", resp.StatusCode)
	}
	if bob.CacheHits == 0 {
		t.Fatalf("bob's HTTP run not served from alice's artifacts: %+v", bob)
	}

	// Bob's digest must match a direct session run of the same script.
	cat, fs := testEnv(t)
	sess, err := share.NewSession(share.Config{Catalog: cat, FS: fs, Machines: 8})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run(scriptB)
	if err != nil {
		t.Fatal(err)
	}
	want := eventlog.Digests(rep.Outputs)
	if len(bob.Outputs) != len(want) {
		t.Fatalf("bob produced %d outputs, want %d", len(bob.Outputs), len(want))
	}
	for i := range want {
		if bob.Outputs[i] != want[i] {
			t.Errorf("output %d = %+v, want %+v", i, bob.Outputs[i], want[i])
		}
	}

	// A garbage script is the client's fault: 400.
	if resp, _ := post("alice", "NOT A SCRIPT ;;;"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage script: status %d, want 400", resp.StatusCode)
	}

	// An oversize body is refused with 413 before any of it is
	// compiled: no event, no new or bumped registry series.
	events, series := len(s.EventLog().Events()), s.Registry().Snapshot().String()
	if resp, _ := post("mallory", strings.Repeat("-", maxScriptBytes+1)); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize script: status %d, want 413", resp.StatusCode)
	}
	if n := len(s.EventLog().Events()); n != events {
		t.Errorf("oversize script recorded %d events", n-events)
	}
	if after := s.Registry().Snapshot().String(); after != series {
		t.Errorf("oversize script changed the registry:\nbefore:\n%s\nafter:\n%s", series, after)
	}

	// The metrics endpoint serves Prometheus text exposition, with the
	// tenant counters folded into labels.
	get := func(path string) (string, string) {
		mresp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := mresp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		mresp.Body.Close()
		return sb.String(), mresp.Header.Get("Content-Type")
	}
	body, ctype := get("/metrics")
	if ctype != obs.PromContentType {
		t.Errorf("metrics content type %q, want %q", ctype, obs.PromContentType)
	}
	if !strings.Contains(body, `scope_serve_tenant_cache_hits{tenant="bob"}`) {
		t.Errorf("prometheus exposition missing tenant series:\n%s", body)
	}
	if !strings.Contains(body, "# TYPE scope_serve_latency_us histogram") ||
		!strings.Contains(body, `scope_serve_latency_us_bucket{le="+Inf"}`) {
		t.Errorf("prometheus exposition missing histogram series:\n%s", body)
	}

	// Health and shutdown.
	hresp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil || hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", hresp, err)
	}
	hresp.Body.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if resp, _ := post("alice", scriptA); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown run: status %d, want 503", resp.StatusCode)
	}
}

// TestServeTenantBounds: the tenant header cannot grow the registry
// without bound. A name outside [A-Za-z0-9_-]{0,64} is refused with
// 400 before anything runs (no event, no registry change), and once
// maxTenantSeries distinct tenants have their own series, every later
// tenant still gets its response and event but is counted in the one
// overflow series.
func TestServeTenantBounds(t *testing.T) {
	s := newTestServer(t, Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	post := func(tenant string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/run", strings.NewReader(scriptB))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(TenantHeader, tenant)
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := post("alice"); code != http.StatusOK {
		t.Fatalf("valid tenant: status %d", code)
	}
	events, series := len(s.EventLog().Events()), s.Registry().Snapshot().String()
	for _, bad := range []string{"a.b", "a b", `x"} 1`, "é", strings.Repeat("a", 65)} {
		if code := post(bad); code != http.StatusBadRequest {
			t.Errorf("tenant %q: status %d, want 400", bad, code)
		}
	}
	if validTenant.MatchString("ok\n") { // unsendable by Go's client
		t.Error("tenant pattern accepts a trailing newline")
	}
	if n := len(s.EventLog().Events()); n != events {
		t.Errorf("rejected tenants recorded %d events", n-events)
	}
	if after := s.Registry().Snapshot().String(); after != series {
		t.Errorf("rejected tenants changed the registry:\nbefore:\n%s\nafter:\n%s", series, after)
	}
	if code := post(strings.Repeat("a", 64)); code != http.StatusOK {
		t.Errorf("64-byte tenant: status %d, want 200", code)
	}

	// Fill the series table to the cap, then arrive as new tenants.
	s.mu.Lock()
	for i := 0; len(s.tenants) < maxTenantSeries; i++ {
		s.tenants[fmt.Sprintf("filler-%d", i)] = true
	}
	s.mu.Unlock()
	before := len(s.Registry().Snapshot().Counters)
	for _, late := range []string{"late-1", "late-2", "late-1"} {
		if code := post(late); code != http.StatusOK {
			t.Errorf("tenant %q past the cap: status %d, want 200", late, code)
		}
	}
	snap := s.Registry().Snapshot()
	if got := snap.Counters["serve.tenant."+tenantOverflow+".requests"]; got != 3 {
		t.Errorf("overflow series counted %d requests, want 3", got)
	}
	for name := range snap.Counters {
		if strings.Contains(name, "late-") {
			t.Errorf("tenant past the cap got its own series %q", name)
		}
	}
	// The overflow series' own counters (requests, errors and the six
	// sharing counters) are the only growth allowed.
	if grown := len(snap.Counters) - before; grown > 8 {
		t.Errorf("registry grew by %d counters past the tenant cap", grown)
	}
	if got := len(s.EventLog().Recent("late-1", 0)); got != 2 {
		t.Errorf("late-1 has %d events, want 2 (events keep the real tenant)", got)
	}
	// A tenant that already has a series keeps it.
	if code := post("alice"); code != http.StatusOK {
		t.Fatalf("alice after the cap: status %d", code)
	}
	if got := s.Registry().Snapshot().Counters["serve.tenant.alice.requests"]; got != 2 {
		t.Errorf("alice's series counted %d requests, want 2", got)
	}
}
