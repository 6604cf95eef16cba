package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/share"
)

// harness is one running service: a fresh serve.Server behind a real
// loopback http.Server, configured as cmd/scoped configures it with
// no flags (8 machines, 10 ms window, everything else zero) plus the
// workload's -cache-bytes.
type harness struct {
	in      *instance
	srv     *serve.Server
	httpSrv *http.Server
	served  chan error
	url     string
	client  *http.Client
	refs    *oracle
}

func startHarness(in *instance) (*harness, error) {
	srv, err := serve.New(serve.Config{
		Catalog:    in.cat,
		FS:         in.fs,
		Machines:   8,
		Window:     10 * time.Millisecond,
		CacheBytes: in.cacheBytes,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &harness{
		in:      in,
		srv:     srv,
		httpSrv: &http.Server{Handler: srv.Handler()},
		served:  make(chan error, 1),
		url:     "http://" + ln.Addr().String() + "/run",
		client:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		refs:    newOracle(in),
	}
	go func() { h.served <- h.httpSrv.Serve(ln) }()
	return h, nil
}

// stop shuts the listener and drains the server; it returns once the
// serving goroutine has exited.
func (h *harness) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	h.client.CloseIdleConnections()
	err := h.httpSrv.Shutdown(ctx)
	<-h.served
	if e := h.srv.Shutdown(ctx); err == nil {
		err = e
	}
	return err
}

// sample is one attempted request as its client saw it.
type sample struct {
	it      item
	step    int
	latency time.Duration
	bytes   int
	rr      serve.RunResponse
	err     error
}

// post sends one script as tenant and times the round trip: request
// write to last body byte read, decoding excluded.
func (h *harness) post(tenant string, it item, step int) sample {
	s := sample{it: it, step: step}
	req, err := http.NewRequest(http.MethodPost, h.url, strings.NewReader(it.script))
	if err != nil {
		s.err = err
		return s
	}
	req.Header.Set(serve.TenantHeader, tenant)
	t0 := time.Now()
	resp, err := h.client.Do(req)
	if err != nil {
		s.err = err
		return s
	}
	body, err := io.ReadAll(resp.Body)
	s.latency = time.Since(t0)
	resp.Body.Close()
	s.bytes = len(body)
	if err != nil {
		s.err = err
		return s
	}
	if resp.StatusCode != http.StatusOK {
		s.err = fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
		return s
	}
	if err := json.Unmarshal(body, &s.rr); err != nil {
		s.err = err
		return s
	}
	if !it.deferred {
		s.err = h.refs.check(it, s.rr.Outputs)
	}
	return s
}

// warm posts the instance's warm-up sequentially and fails on any
// wrong answer, so a broken service never reaches the clock.
func (h *harness) warm() error {
	for i, it := range h.in.warmup {
		if s := h.post("bench-warm", it, -1); s.err != nil {
			return fmt.Errorf("warm-up request %d: %w", i, s.err)
		}
	}
	return nil
}

// drive runs the closed loop for d: clients keep-alive clients, each
// sending its next request only after the previous reply. Lockstep
// workloads advance one barrier step at a time from firstStep. It
// returns the samples in client-then-send order, the time from the
// first send to the last reply, and the next unused step.
func (h *harness) drive(clients int, d time.Duration, firstStep int) ([]sample, time.Duration, int) {
	start := time.Now()
	deadline := start.Add(d)
	var out []sample
	if h.in.step != nil {
		next := h.eachStep(deadline, firstStep, func(lanes [2]item, step int) {
			var got [2]sample
			if clients < 2 {
				// One client sends both lanes in turn, so the cache
				// sees the same requests as with two.
				for c, it := range lanes {
					got[c] = h.post("bench-0", it, step)
				}
			} else {
				var wg sync.WaitGroup
				for c := range lanes {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						got[c] = h.post(fmt.Sprintf("bench-%d", c), lanes[c], step)
					}(c)
				}
				wg.Wait()
			}
			out = append(out, got[:]...)
		})
		return out, time.Since(start), next
	}
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := fmt.Sprintf("bench-%d", c)
			for i := 0; time.Now().Before(deadline); i++ {
				// Every request is its own step: no two share a key.
				per[c] = append(per[c], h.post(tenant, h.in.next(c, i), c+clients*i))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, p := range per {
		out = append(out, p...)
	}
	return out, elapsed, 0
}

// eachStep walks a lockstep workload's barrier steps from first,
// applying each step's write before handing its lanes to send, until
// the deadline has passed and the generation is complete: whole
// generations only, so the cold/warm/revisit shares of the samples
// are exact. It returns the next unused step.
func (h *harness) eachStep(deadline time.Time, first int, send func(lanes [2]item, step int)) int {
	i := first
	for ; time.Now().Before(deadline) || i%4 != 0; i++ {
		lanes, write := h.in.step(i)
		if write != nil {
			write()
		}
		send(lanes, i)
	}
	return i
}

// counters is everything read before and after an interval; metrics
// are deltas of two of them.
type counters struct {
	reg        obs.Snapshot
	cache      share.Stats
	events     int
	cpu        time.Duration
	mem        runtime.MemStats
	goroutines int
}

func (h *harness) read() counters {
	c := counters{
		reg:        h.srv.Registry().Snapshot(),
		cache:      h.srv.Session().CacheStats(),
		events:     h.srv.EventLog().Len(),
		cpu:        cpuTime(),
		goroutines: runtime.NumGoroutine(),
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// cpuTime is the process's user+system CPU time from getrusage.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// percentile is the nearest-rank p-quantile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(p*float64(len(sorted))+0.999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// meteredCounters are the registry counters summed into
// metered_mb_per_req: every byte the executor metered, the executed
// analogue of the paper's estimated cost.
var meteredCounters = []string{
	"exec.disk_bytes_read", "exec.disk_bytes_written", "exec.net_bytes",
	"exec.cache_bytes_read", "exec.cache_bytes_written",
	"exec.spill_bytes_read", "exec.spill_bytes_written",
}

// interval is one measured closed-loop interval with its counters.
type interval struct {
	samples   []sample
	elapsed   time.Duration
	pre, post counters
	heapMB    float64
	// failed is set by the caller once the samples are verified.
	failed int
}

// measure drives the closed loop for d between two counter reads and
// forces a collection afterwards for the retained heap.
func (h *harness) measure(clients int, d time.Duration, firstStep int) (*interval, int) {
	runtime.GC()
	iv := &interval{pre: h.read()}
	var next int
	iv.samples, iv.elapsed, next = h.drive(clients, d, firstStep)
	iv.post = h.read()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	iv.heapMB = float64(ms.HeapAlloc) / 1e6
	return iv, next
}

func (iv *interval) delta(name string) float64 {
	return float64(iv.post.reg.Counters[name] - iv.pre.reg.Counters[name])
}

// completed counts correct 200 responses: everything attempted less
// what the oracle or the transport failed.
func (iv *interval) completed() int { return len(iv.samples) - iv.failed }

// endToEnd computes the user-visible metrics of an untraced interval.
func (iv *interval) endToEnd() map[string]float64 {
	lat := make([]float64, 0, len(iv.samples))
	for _, s := range iv.samples {
		lat = append(lat, float64(s.latency)/float64(time.Millisecond))
	}
	sort.Float64s(lat)
	done := float64(iv.completed())
	if done == 0 {
		done = 1
	}
	metered := 0.0
	for _, n := range meteredCounters {
		metered += iv.delta(n)
	}
	return map[string]float64{
		"latency_p50_ms":     percentile(lat, 0.50),
		"latency_p90_ms":     percentile(lat, 0.90),
		"throughput_rps":     done / iv.elapsed.Seconds(),
		"cpu_ms_per_req":     float64(iv.post.cpu-iv.pre.cpu) / float64(time.Millisecond) / done,
		"metered_mb_per_req": metered / 1e6 / done,
		"retained_heap_mb":   iv.heapMB,
	}
}
