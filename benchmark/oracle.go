package main

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/obs/eventlog"
	"repro/internal/serve"
)

// oracle holds the expected output digests: exec.Reference — the
// single-node interpreter over the bound memo, no optimizer, no
// cache, no cluster — digested with the canonical-row FNV the service
// puts in its responses.
type oracle struct {
	in *instance

	mu   sync.Mutex
	refs map[string]map[string]serve.OutputDigest // guarded by mu; ref script, then path
}

func newOracle(in *instance) *oracle {
	return &oracle{in: in, refs: map[string]map[string]serve.OutputDigest{}}
}

// compute runs the reference for every listed script not yet known,
// one worker per CPU.
func (o *oracle) compute(scripts []string) error {
	var todo []string
	o.mu.Lock()
	seen := map[string]bool{}
	for _, s := range scripts {
		if _, ok := o.refs[s]; !ok && !seen[s] {
			seen[s] = true
			todo = append(todo, s)
		}
	}
	o.mu.Unlock()
	errs := make([]error, len(todo))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				errs[i] = o.computeOne(todo[i])
			}
		}()
	}
	for i := range todo {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (o *oracle) computeOne(script string) error {
	m, err := logical.BuildSource(script, o.in.cat)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	outs, err := exec.Reference(m, o.in.fs)
	if err != nil {
		return err
	}
	want := make(map[string]serve.OutputDigest, len(outs))
	for path, t := range outs {
		want[path] = serve.OutputDigest{Path: path, Rows: len(t.Rows), Digest: eventlog.DigestTable(t)}
	}
	o.mu.Lock()
	o.refs[script] = want
	o.mu.Unlock()
	return nil
}

// check compares one response's output digests with the reference.
func (o *oracle) check(it item, got []serve.OutputDigest) error {
	o.mu.Lock()
	want, ok := o.refs[it.ref]
	o.mu.Unlock()
	if !ok {
		return fmt.Errorf("oracle: no reference for script keyed %s", it.key)
	}
	if len(got) != it.outputs {
		return fmt.Errorf("oracle: %d outputs, want %d", len(got), it.outputs)
	}
	for _, g := range got {
		if w, ok := want[g.Path]; !ok || w != g {
			return fmt.Errorf("oracle: output %q is %d rows digest %016x, reference says %d rows digest %016x",
				g.Path, g.Rows, g.Digest, w.Rows, w.Digest)
		}
	}
	return nil
}

// verifyDeferred checks the deferred samples after the clock stopped:
// a seeded 1-in-every sample of them, widened to every sample whose
// reference is already being computed, and capped at limit reference
// runs. It returns how many samples it checked and how many failed.
func (o *oracle) verifyDeferred(samples []sample, seed int64, every, limit int) (checked, failed int, first error) {
	chosen := map[string]bool{}
	var refs []string
	for i, s := range samples {
		if !s.it.deferred || s.err != nil || chosen[s.it.ref] {
			continue
		}
		if len(refs) < limit && mix(seed, 11, i)%uint64(every) == 0 {
			chosen[s.it.ref] = true
			refs = append(refs, s.it.ref)
		}
	}
	if err := o.compute(refs); err != nil {
		return 0, 1, err
	}
	for _, s := range samples {
		if !s.it.deferred || s.err != nil || !chosen[s.it.ref] {
			continue
		}
		checked++
		if err := o.check(s.it, s.rr.Outputs); err != nil {
			failed++
			if first == nil {
				first = err
			}
		}
	}
	return checked, failed, first
}
