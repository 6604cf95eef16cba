// Command benchmark is the repository's one benchmark: it measures
// POST /run of the scoped service end to end on four workloads that
// each put one layer in charge (exec, the cache-hit path, opt, and
// every sharing mechanism at once), and in a separate traced pass it
// times each layer's public entry point beside the real request.
//
// The driver's contract (one workload per process):
//
//	bash benchmark/run.sh --workload cold-scan --seed 1 --seconds 15 --trace 0
//
// prints every end-to-end metric (--trace 0) or every per-layer
// metric (--trace 1) by name with its unit, then one JSON result line,
// and exits non-zero on any wrong result. Without --workload it runs
// the whole set, both passes per workload:
//
//	go run . -seed 1 -out result.json     (from benchmark/)
//	go run . -sets 5 -out sets.json       five untraced sets, spread table
//	go run . -compare old.json new.json   per-workload, per-metric verdicts
//
// See README.md for the workload and metric catalogue.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/obs"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the length of one
// measured interval, the same on every commit.
const defaultSeconds = 20

// setupReps is how many times an untraced run sets up; setup_s is the
// median and the last set-up is the one measured.
const setupReps = 3

// clientCount is the closed loop's size: tenants block on their
// reply, and scoped has no flag that more than two clients would
// exercise differently.
func clientCount() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// result is one workload's outcome: the driver's result line plus
// what the result file keeps for -compare.
type result struct {
	Workload  string `json:"workload"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Samples is the number of latencies behind p50 and p90; Verified
	// how many responses were checked against the oracle.
	Samples  int `json:"samples,omitempty"`
	Verified int `json:"verified,omitempty"`
	// Rows per full-size input table, accounted bytes of all inputs,
	// and the service's -cache-bytes.
	Rows       int64              `json:"rows"`
	TableBytes int64              `json:"table_bytes"`
	CacheBytes int64              `json:"cache_bytes"`
	EndToEnd   map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer   map[string]float64 `json:"per_layer,omitempty"`
	// StageShare is each replay stage's summed time as a share of the
	// traced pass's summed http.post time.
	StageShare map[string]float64 `json:"stage_share,omitempty"`
	// Ordered is the share of traced requests whose replay stages
	// summed to no more than their http.post.
	Ordered  float64 `json:"replay_within_post_share,omitempty"`
	firstErr error
}

// setUp generates the inputs, computes the fixed pool's references,
// starts the service and warms it.
func setUp(sp *spec, seed int64, scale float64) (*harness, error) {
	in := sp.build(sp, seed, scale)
	h, err := startHarness(in)
	if err != nil {
		return nil, err
	}
	var refs []string
	for _, it := range in.pool {
		if !it.deferred {
			refs = append(refs, it.ref)
		}
	}
	if err := h.refs.compute(refs); err == nil {
		err = h.warm()
	}
	if err != nil {
		_ = h.stop()
		return nil, err
	}
	return h, nil
}

// check counts failed requests (transport errors, non-200s, digest
// mismatches) in samples, verifying the deferred ones now.
func (r *result) check(h *harness, samples []sample, seed int64) {
	r.Attempted += len(samples)
	for _, s := range samples {
		if s.err != nil {
			r.Failed++
			if r.firstErr == nil {
				r.firstErr = s.err
			}
		} else if !s.it.deferred {
			r.Verified++
		}
	}
	checked, failed, err := h.refs.verifyDeferred(samples, seed, h.in.spec.verifyEvery, h.in.spec.verifyLimit)
	r.Verified += checked
	r.Failed += failed
	if err != nil && r.firstErr == nil {
		r.firstErr = err
	}
}

// runWorkload is one run of the driver's contract: set up, measure
// for the given time, verify, and compute the metrics of the pass.
func runWorkload(sp *spec, seed int64, d time.Duration, traced bool, scale float64, traceOut string) (*result, error) {
	reps := setupReps
	if traced {
		reps = 1
	}
	var h *harness
	var setups []float64
	for i := 0; i < reps; i++ {
		if h != nil {
			if err := h.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if h, err = setUp(sp, seed, scale); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { _ = h.stop() }()

	res := &result{Workload: sp.name, Rows: h.in.rows, TableBytes: h.in.tableBytes, CacheBytes: h.in.cacheBytes}
	if !traced {
		iv, _ := h.measure(clientCount(), d, 0)
		res.check(h, iv.samples, seed)
		iv.failed = res.Failed
		res.Samples = len(iv.samples)
		res.EndToEnd = iv.endToEnd()
		res.EndToEnd["setup_s"] = median(setups)
		res.Correct = res.Failed == 0
		return res, nil
	}

	iv, next := h.measure(clientCount(), d/2, 0)
	tr := obs.NewTracer()
	reqs, tsamples := h.tracedPass(tr, d-d/2, next)
	res.check(h, iv.samples, seed)
	iv.failed = res.Failed
	res.check(h, tsamples, seed)
	res.Samples = len(iv.samples)
	pool, err := h.poolPlanning()
	if err != nil {
		return nil, fmt.Errorf("%s: pool planning: %w", sp.name, err)
	}
	res.PerLayer = perLayer(iv, reqs, tr.Len(), pool)
	// Shares are of summed time, not of medians: the templates of a
	// mixed pool have different medians per stage, sums add up.
	res.StageShare = map[string]float64{}
	within, postSum := 0, 0.0
	for _, r := range reqs {
		postSum += r.postUs
		for _, s := range stages {
			res.StageShare[s] += r.stageUs[s]
		}
		if r.replayUs() <= r.postUs {
			within++
		}
	}
	if len(reqs) > 0 && postSum > 0 {
		for _, s := range stages {
			res.StageShare[s] /= postSum
		}
		res.Ordered = float64(within) / float64(len(reqs))
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		return nil, err
	}
	if _, err := obs.ValidateTrace(buf.Bytes()); err != nil {
		return nil, fmt.Errorf("%s: trace: %w", sp.name, err)
	}
	if traceOut != "" {
		if err := os.MkdirAll(filepath.Dir(traceOut), 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(traceOut, buf.Bytes(), 0o644); err != nil {
			return nil, err
		}
	}
	// One event per request is the event log's contract; a traced run
	// is where the benchmark holds the service to it.
	if e := res.PerLayer["eventlog.events_per_req"]; e != 1 && res.firstErr == nil {
		res.Failed++
		res.firstErr = fmt.Errorf("eventlog.events_per_req is %g, want 1", e)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// printMetrics lists a pass's metrics by name with their units, in
// catalogue order.
func printMetrics(r *result) {
	fmt.Printf("workload %s: %d attempted, %d failed, %d verified against the oracle, %d latency samples\n",
		r.Workload, r.Attempted, r.Failed, r.Verified, r.Samples)
	fmt.Printf("  inputs: %d rows per table, %.2f MB in all; CacheBytes %.2f MB\n",
		r.Rows, float64(r.TableBytes)/1e6, float64(r.CacheBytes)/1e6)
	for _, d := range endToEndDefs {
		if v, ok := r.EndToEnd[d.Name]; ok {
			fmt.Printf("  %-30s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
	for _, d := range perLayerDefs {
		if v, ok := r.PerLayer[d.Name]; ok {
			fmt.Printf("  %-30s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
	for _, s := range stages {
		if v, ok := r.StageShare[s]; ok {
			fmt.Printf("  share of http.post: %-18s %6.1f %%\n", s, 100*v)
		}
	}
	if r.firstErr != nil {
		fmt.Printf("  first failure: %v\n", r.firstErr)
	}
}

// resultLine is the driver's last line: exactly correct, attempted,
// failed and metrics.
func resultLine(r *result) string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	for _, d := range endToEndDefs {
		if v, ok := r.EndToEnd[d.Name]; ok {
			metrics[d.Name] = metric{v, d.Unit}
		}
	}
	for _, d := range perLayerDefs {
		if v, ok := r.PerLayer[d.Name]; ok {
			metrics[d.Name] = metric{v, d.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}

// stamp is the environment a result file was measured in; -compare
// refuses files whose stamps differ in anything but the commit.
type stamp struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Clients    int    `json:"clients"`
}

func newStamp(seed int64, seconds int) stamp {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return stamp{
		Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Commit: commit, Seed: seed, Seconds: seconds, Clients: clientCount(),
	}
}

// resultFile is what -out writes and -compare reads: one entry per
// set, each holding every workload's result.
type resultFile struct {
	Schema string     `json:"schema"`
	Env    stamp      `json:"env"`
	Sets   [][]result `json:"sets"`
}

const resultSchema = "scope-benchmark/1"

// runSet runs every workload once: the untraced pass, and the traced
// pass too unless the set only feeds a spread table.
func runSet(seed int64, d time.Duration, withTrace bool, traceDir string) ([]result, bool, error) {
	var set []result
	ok := true
	for _, sp := range catalogue() {
		res, err := runWorkload(sp, seed, d, false, 1, "")
		if err != nil {
			return nil, false, err
		}
		if withTrace {
			out := ""
			if traceDir != "" {
				out = filepath.Join(traceDir, sp.name+".json")
			}
			tres, err := runWorkload(sp, seed, d, true, 1, out)
			if err != nil {
				return nil, false, err
			}
			res.PerLayer, res.StageShare, res.Ordered = tres.PerLayer, tres.StageShare, tres.Ordered
			res.Attempted += tres.Attempted
			res.Failed += tres.Failed
			res.Verified += tres.Verified
			res.Correct = res.Correct && tres.Correct
			if res.firstErr == nil {
				res.firstErr = tres.firstErr
			}
		}
		printMetrics(res)
		ok = ok && res.Correct
		set = append(set, *res)
	}
	return set, ok, nil
}

func main() {
	workload := flag.String("workload", "", "run one workload under the driver's contract (default: the whole set)")
	seed := flag.Int64("seed", 1, "workload seed: tables, literals, pool order and revisit draws derive from it")
	seconds := flag.Int("seconds", defaultSeconds, "length of one measured interval in seconds")
	trace := flag.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer metrics with the traced pass")
	traceOut := flag.String("trace-out", "", "directory the traced pass writes its Chrome trace_event files to")
	out := flag.String("out", "", "write the result file (with its environment stamp) here")
	sets := flag.Int("sets", 0, "run this many untraced sets back to back and print each metric's spread")
	compare := flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: -compare old.json new.json")
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(1, "%v", err)
		}
		return
	}
	if *seconds < 1 || flag.NArg() != 0 {
		fatal(2, "usage: [-workload name -trace 0|1] [-seed n] [-seconds s] [-out file] [-sets n]")
	}
	d := time.Duration(*seconds) * time.Second

	if *workload != "" {
		sp := findSpec(*workload)
		if sp == nil || (*trace != 0 && *trace != 1) {
			fatal(2, "unknown workload %q or -trace %d", *workload, *trace)
		}
		file := ""
		if *traceOut != "" {
			file = filepath.Join(*traceOut, sp.name+".json")
		}
		res, err := runWorkload(sp, *seed, d, *trace == 1, 1, file)
		if err != nil {
			fatal(1, "%v", err)
		}
		printMetrics(res)
		fmt.Println(resultLine(res))
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	file := resultFile{Schema: resultSchema, Env: newStamp(*seed, *seconds)}
	n, withTrace := 1, true
	if *sets > 0 {
		n, withTrace = *sets, false
	}
	ok := true
	for i := 0; i < n; i++ {
		set, setOK, err := runSet(*seed, d, withTrace, *traceOut)
		if err != nil {
			fatal(1, "%v", err)
		}
		ok = ok && setOK
		file.Sets = append(file.Sets, set)
	}
	if *sets > 0 {
		printSpread(os.Stdout, &file)
	}
	if *out != "" {
		data, err := json.MarshalIndent(&file, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fatal(1, "%v", err)
		}
	}
	if !ok {
		fatal(1, "wrong results: see the first failure of each workload above")
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}
