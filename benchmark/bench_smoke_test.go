package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/eventlog"
)

// smokeScale shrinks every workload's tables 50x: the schedules, the
// cache regimes and every code path stay, the rows do not.
const smokeScale = 0.02

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload for about a second per pass at tiny
// scale and holds the result to the schema and to the invariants the
// workloads are built on.
func TestSmoke(t *testing.T) {
	if n := len(catalogue()); n < 2 || n > 8 {
		t.Fatalf("%d workloads, the contract allows 2 to 8", n)
	}
	if len(endToEndDefs) > 16 || len(perLayerDefs) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics, the contract allows 16 and 128",
			len(endToEndDefs), len(perLayerDefs))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, sp := range catalogue() {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			if !nameRE.MatchString(sp.name) || len(sp.why) > 200 || strings.Contains(sp.why, "\n") {
				t.Errorf("workload name or why breaks the contract")
			}
			res, err := runWorkload(sp, 7, time.Second, false, smokeScale, "")
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("untraced: %d attempted, %d failed: %v", res.Attempted, res.Failed, res.firstErr)
			}
			for _, d := range endToEndDefs {
				if v, ok := res.EndToEnd[d.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s is %v, want a positive number", d.Name, v)
				}
			}
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(resultLine(res)), &line); err != nil || len(line.Metrics) != len(endToEndDefs) {
				t.Errorf("result line does not carry exactly the end-to-end metrics: %v", err)
			}

			res, err = runWorkload(sp, 7, 2*time.Second, true, smokeScale, "")
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced: %d attempted, %d failed: %v", res.Attempted, res.Failed, res.firstErr)
			}
			for _, d := range perLayerDefs {
				if _, ok := res.PerLayer[d.Name]; !ok {
					t.Errorf("per-layer metric %s is missing", d.Name)
				}
			}
			if len(res.PerLayer) != len(perLayerDefs) {
				t.Errorf("%d per-layer metrics computed, %d catalogued", len(res.PerLayer), len(perLayerDefs))
			}
			pl := res.PerLayer
			if pl["eventlog.events_per_req"] != 1 {
				t.Errorf("eventlog.events_per_req = %g, want 1", pl["eventlog.events_per_req"])
			}
			if res.Ordered < 0.99 {
				t.Errorf("replay stages summed to more than http.post on %.0f %% of traced requests", 100*(1-res.Ordered))
			}
			if pl["share.builds_per_distinct"] != 1 {
				t.Errorf("share.builds_per_distinct = %g, want 1", pl["share.builds_per_distinct"])
			}
			switch sp.name {
			case "cold-scan":
				if pl["share.hit_share"] != 0 || pl["share.evictions"] == 0 {
					t.Errorf("cold-scan: hit_share %g (want 0), evictions %g (want some)", pl["share.hit_share"], pl["share.evictions"])
				}
			case "warm-repeat", "plan-heavy":
				if pl["share.hit_share"] != 1 {
					t.Errorf("%s: hit_share %g, want 1", sp.name, pl["share.hit_share"])
				}
			case "overlap-churn":
				if pl["share.evictions"] == 0 || pl["share.invalidations"] == 0 {
					t.Errorf("overlap-churn: evictions %g, invalidations %g, want both above 0",
						pl["share.evictions"], pl["share.invalidations"])
				}
				if clientCount() > 1 && pl["serve.folded_share"] == 0 {
					t.Errorf("overlap-churn: nothing folded with two clients")
				}
			}
		})
	}
}

// transcript renders what a seed generates: every input table's
// digest and the first requests of every client or lane.
func transcript(sp *spec, seed int64) string {
	in := sp.build(sp, seed, smokeScale)
	var b strings.Builder
	for _, p := range in.fs.Paths() {
		t, _ := in.fs.Get(p)
		fmt.Fprintf(&b, "%s %016x\n", p, eventlog.DigestTable(t))
	}
	for _, it := range in.warmup {
		b.WriteString(it.script)
	}
	for i := 0; i < 48; i++ {
		if in.step != nil {
			lanes, write := in.step(i)
			fmt.Fprintf(&b, "step %d write=%v\n%s%s", i, write != nil, lanes[0].script, lanes[1].script)
			continue
		}
		for c := 0; c < 2; c++ {
			b.WriteString(in.next(c, i).script)
		}
	}
	return b.String()
}

// TestGeneratorDeterminism: the same seed gives byte-identical tables
// and script sequences, another seed gives others.
func TestGeneratorDeterminism(t *testing.T) {
	for _, sp := range catalogue() {
		a, b, c := transcript(sp, 3), transcript(sp, 3), transcript(sp, 4)
		if a != b {
			t.Errorf("%s: seed 3 generated two different inputs", sp.name)
		}
		if a == c {
			t.Errorf("%s: seeds 3 and 4 generated the same inputs", sp.name)
		}
	}
}

// TestContractMatchesCatalogue keeps BENCHMARK.json in step with the
// catalogue the program prints from.
func TestContractMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var c struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", c.RunSeconds, defaultSeconds)
	}
	var want []struct{ Name, Why string }
	for _, sp := range catalogue() {
		want = append(want, struct{ Name, Why string }{sp.name, sp.why})
	}
	if fmt.Sprint(c.Workloads) != fmt.Sprint(want) {
		t.Errorf("workloads differ:\n%v\n%v", c.Workloads, want)
	}
	if fmt.Sprint(c.EndToEnd) != fmt.Sprint(endToEndDefs) {
		t.Errorf("end_to_end differs:\n%v\n%v", c.EndToEnd, endToEndDefs)
	}
	if fmt.Sprint(c.PerLayer) != fmt.Sprint(perLayerDefs) {
		t.Errorf("per_layer differs:\n%v\n%v", c.PerLayer, perLayerDefs)
	}
}

// TestCompare: verdicts follow the bound and the spread, and files
// from different environments are refused.
func TestCompare(t *testing.T) {
	file := func(env stamp, p50 ...float64) string {
		f := resultFile{Schema: resultSchema, Env: env}
		for _, v := range p50 {
			f.Sets = append(f.Sets, []result{{Workload: "cold-scan", Correct: true,
				EndToEnd: map[string]float64{"latency_p50_ms": v, "throughput_rps": 1000 / v}}})
		}
		data, err := json.Marshal(&f)
		if err != nil {
			t.Fatal(err)
		}
		path := fmt.Sprintf("%s/%d.json", t.TempDir(), len(p50))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	env := stamp{Go: "go1.24", GOMAXPROCS: 2, NProc: 2, Commit: "a", Seed: 1, Seconds: 20, Clients: 2}
	base := file(env, 100, 101, 99, 100, 102)
	for _, tc := range []struct {
		p50  []float64
		want string
	}{
		{[]float64{100, 102, 99, 101, 100}, "unchanged"},
		{[]float64{120, 121, 119, 120, 122}, "worse"},
		{[]float64{80, 81, 79, 80, 82}, "better"},
		{[]float64{80, 140, 100, 60, 120}, "unresolved"},
	} {
		var out bytes.Buffer
		other := env
		other.Commit = "b"
		if err := compareFiles(&out, base, file(other, tc.p50...)); err != nil {
			t.Fatal(err)
		}
		if !regexp.MustCompile(`latency_p50_ms .* ` + tc.want + `\n`).MatchString(out.String()) {
			t.Errorf("p50 %v: want verdict %s in\n%s", tc.p50, tc.want, out.String())
		}
	}
	other := env
	other.Seconds = 30
	if err := compareFiles(&bytes.Buffer{}, base, file(other, 100)); err == nil {
		t.Error("files measured for different lengths were compared")
	}
}
