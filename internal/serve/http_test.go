package serve

import (
	"context"
	"encoding/json"
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
	want := responseOutputs(eventlog.DigestOutputs(rep.Outputs))
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

	// The metrics endpoint serves Prometheus text exposition by
	// default, with the tenant counters folded into labels...
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
	// ...and keeps the legacy snapshot under ?format=snapshot.
	body, ctype = get("/metrics?format=snapshot")
	if !strings.HasPrefix(ctype, "text/plain") || strings.Contains(ctype, "version=") {
		t.Errorf("snapshot content type %q, want plain text", ctype)
	}
	if !strings.Contains(body, "serve.tenant.bob.cache_hits") {
		t.Error("legacy snapshot missing tenant counters")
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
