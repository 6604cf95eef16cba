package share

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/props"
	"repro/internal/relop"
	"repro/internal/stats"
)

// idOf mints the identity a test's (fingerprint, signature) pair
// stands for.
func idOf(fp uint64, sig string) Subexpr { return core.NewSubexpr(fp, sig) }

func cacheFixture(maxBytes int64) (*Cache, *exec.FileStore, *stats.Catalog) {
	fs := exec.NewFileStore()
	cat := stats.NewCatalog()
	return NewCache(fs, cat, maxBytes), fs, cat
}

func artifact(fs *exec.FileStore, path string, rows int) *exec.Table {
	t := &exec.Table{Schema: relop.Schema{{Name: "A", Type: relop.TInt}}}
	for i := 0; i < rows; i++ {
		t.Rows = append(t.Rows, relop.Row{relop.IntVal(int64(i))})
	}
	fs.Put(path, t)
	return t
}

// testEntry is an artifact file a test stored, with the fingerprint
// of the subexpression it stands for.
type testEntry struct {
	opt.CacheEntry
	FP uint64
}

// record is the optimizer's record of e's subexpression under
// signature sig, with the admission rule's build and read costs.
func (e testEntry) record(sig string, build, read float64) opt.Artifact {
	in := &plan.Node{Schema: e.Schema, Dlvd: props.Delivered{Part: e.Part, Order: e.Order}, FP: e.FP}
	return opt.Artifact{Spool: &plan.Node{Children: []*plan.Node{in}}, ID: idOf(e.FP, sig), Sig: sig, Build: build, Read: read}
}

func entryFor(fs *exec.FileStore, cat *stats.Catalog, fp uint64, path string, rows int) (testEntry, []Source) {
	artifact(fs, path, rows)
	src := []Source{{Path: "src.log", Version: fs.Version("src.log"), Epoch: cat.Epoch("src.log")}}
	return testEntry{CacheEntry: opt.CacheEntry{
		Path:   path,
		Schema: relop.Schema{{Name: "A", Type: relop.TInt}},
		Part:   props.RandomPartitioning(),
	}, FP: fp}, src
}

func TestCacheLookupMatchesAllThreeKeys(t *testing.T) {
	c, fs, cat := cacheFixture(0)
	ce, src := entryFor(fs, cat, 42, "__cache/a", 3)
	c.Put(ce.record("sig-a", 0, 0), ce.Path, 100, src, "")

	if _, ok := c.Lookup(idOf(42, "sig-a"), "sig-a", ce.Schema); !ok {
		t.Error("exact key should hit")
	}
	if !c.Contains(idOf(42, "sig-a"), nil) || !c.Contains(idOf(42, "sig-a"), ce.Schema) {
		t.Error("Contains should hold the exact identity, with and without its schema")
	}
	// Same fingerprint, different signature: the collision safety net.
	if _, ok := c.Lookup(idOf(42, "sig-b"), "sig-b", ce.Schema); ok {
		t.Error("different signature must miss")
	}
	// Same fingerprint and signature, different schema.
	other := relop.Schema{{Name: "B", Type: relop.TInt}}
	if _, ok := c.Lookup(idOf(42, "sig-a"), "sig-a", other); ok {
		t.Error("different schema must miss")
	}
	if _, ok := c.Lookup(idOf(7, "sig-a"), "sig-a", ce.Schema); ok {
		t.Error("unknown fingerprint must miss")
	}
	if c.Contains(idOf(7, "sig-a"), nil) {
		t.Error("Contains(7) should be false")
	}
	// Same identity, different signature string — what a signature-hash
	// alias would look like: the artifact must not be handed out.
	if _, ok := c.Lookup(idOf(42, "sig-a"), "sig-b", ce.Schema); ok {
		t.Error("a signature-hash alias must miss")
	}
}

func TestCacheInvalidationOnVersionAndEpoch(t *testing.T) {
	c, fs, cat := cacheFixture(0)
	ce, src := entryFor(fs, cat, 1, "__cache/v", 3)
	c.Put(ce.record("s", 0, 0), ce.Path, 10, src, "")

	artifact(fs, "src.log", 1) // bump the source's content version
	if _, ok := c.Lookup(idOf(1, "s"), "s", ce.Schema); ok {
		t.Error("entry must be invalid after its source's version changed")
	}
	if st := c.Stats(); st.Invalidations != 1 || st.Entries != 0 {
		t.Errorf("stats = %+v, want 1 invalidation and 0 entries", st)
	}
	if _, ok := fs.Get("__cache/v"); ok {
		t.Error("invalidation must remove the artifact")
	}

	ce2, src2 := entryFor(fs, cat, 2, "__cache/e", 3)
	c.Put(ce2.record("s", 0, 0), ce2.Path, 10, src2, "")
	cat.Put("src.log", &stats.TableStats{Rows: 1}) // bump the stats epoch
	if c.Contains(idOf(2, "s"), nil) {
		t.Error("entry must be invalid after its source's stats epoch changed")
	}
}

func TestCacheEvictionBySize(t *testing.T) {
	c, fs, cat := cacheFixture(250)
	for i := 0; i < 3; i++ {
		ce, src := entryFor(fs, cat, uint64(i+1), fmt.Sprintf("__cache/%d", i), 3)
		c.Put(ce.record("s", 0, 0), ce.Path, 100, src, "")
	}
	st := c.Stats()
	if st.Bytes > 250 {
		t.Errorf("cache holds %d bytes, bound 250", st.Bytes)
	}
	if st.Evictions == 0 {
		t.Error("overflowing the byte bound must evict")
	}
	// The oldest entry went first and its artifact with it.
	if c.Contains(idOf(1, "s"), nil) {
		t.Error("LRU entry should have been evicted")
	}
	if _, ok := fs.Get("__cache/0"); ok {
		t.Error("eviction must remove the artifact")
	}
	if !c.Contains(idOf(3, "s"), nil) {
		t.Error("newest entry should survive")
	}
}

func TestCacheLRURefreshOnLookup(t *testing.T) {
	c, fs, cat := cacheFixture(250)
	ce1, src1 := entryFor(fs, cat, 1, "__cache/1", 3)
	c.Put(ce1.record("s", 0, 0), ce1.Path, 100, src1, "")
	ce2, src2 := entryFor(fs, cat, 2, "__cache/2", 3)
	c.Put(ce2.record("s", 0, 0), ce2.Path, 100, src2, "")
	// Touch entry 1 so entry 2 becomes the eviction victim.
	if _, ok := c.Lookup(idOf(1, "s"), "s", ce1.Schema); !ok {
		t.Fatal("entry 1 should hit")
	}
	ce3, src3 := entryFor(fs, cat, 3, "__cache/3", 3)
	c.Put(ce3.record("s", 0, 0), ce3.Path, 100, src3, "")
	if !c.Contains(idOf(1, "s"), nil) || c.Contains(idOf(2, "s"), nil) {
		t.Errorf("LRU order ignored the refresh: holds1=%v holds2=%v",
			c.Contains(idOf(1, "s"), nil), c.Contains(idOf(2, "s"), nil))
	}
}

// TestCacheEvictionCountsHits: with build, read and bytes equal, hits
// alone decide the victim. Entry 1 has two hits and is the least
// recently used, so LRU alone would evict it; the Put that forces one
// eviction must take the never-hit entry 2 instead.
func TestCacheEvictionCountsHits(t *testing.T) {
	c, fs, cat := cacheFixture(250)
	for i := 1; i <= 3; i++ {
		ce, src := entryFor(fs, cat, uint64(i), fmt.Sprintf("__cache/%d", i), 3)
		c.Put(ce.record("s", 1000, 10), ce.Path, 100, src, "")
		if i == 1 {
			c.NoteUse(idOf(1, "s"), "s", ce.Schema)
			c.NoteUse(idOf(1, "s"), "s", ce.Schema)
		}
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("%d evictions, want exactly 1", st.Evictions)
	}
	if !c.Contains(idOf(1, "s"), nil) || c.Contains(idOf(2, "s"), nil) || !c.Contains(idOf(3, "s"), nil) {
		t.Errorf("holds(1)=%v holds(2)=%v holds(3)=%v, want true/false/true",
			c.Contains(idOf(1, "s"), nil), c.Contains(idOf(2, "s"), nil), c.Contains(idOf(3, "s"), nil))
	}
}

// TestCacheConcurrency exercises the cache under the race detector:
// concurrent lookups, puts, and probes must be safe.
func TestCacheConcurrency(t *testing.T) {
	c, fs, cat := cacheFixture(10_000)
	schema := relop.Schema{{Name: "A", Type: relop.TInt}}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				fp := uint64(w*50 + i)
				ce, src := entryFor(fs, cat, fp, fmt.Sprintf("__cache/c%d-%d", w, i), 2)
				c.Put(ce.record("s", 0, 0), ce.Path, 50, src, "")
				c.Lookup(idOf(fp, "s"), "s", schema)
				c.Contains(idOf(fp, "s"), nil)
				c.Contains(idOf(fp, "s"), schema)
				c.Stats()
			}
		}(w)
	}
	wg.Wait()
	if st := c.Stats(); st.Insertions != 400 {
		t.Errorf("insertions = %d, want 400", st.Insertions)
	}
}

// probeCache returns a cache holding n valid entries, each under its
// own identity, plus the identity, signature and schema of one of them.
func probeCache(n int) (*Cache, Subexpr, string, relop.Schema) {
	c, fs, cat := cacheFixture(1 << 40)
	var ce testEntry
	var src []Source
	for i := 0; i < n; i++ {
		sig := fmt.Sprintf("sig-%d", i)
		ce, src = entryFor(fs, cat, uint64(i%64+1), fmt.Sprintf("__cache/p%d", i), 1)
		c.Put(ce.record(sig, 0, 0), ce.Path, 8, src, "")
	}
	sig := fmt.Sprintf("sig-%d", n-1)
	return c, idOf(ce.FP, sig), sig, ce.Schema
}

// BenchmarkCacheProbe measures the optimizer's lookup (a hit) and the
// scheduler's schema-free contains (a miss) at two cache sizes; both
// are map lookups, so ns/op must not grow with the entry count.
func BenchmarkCacheProbe(b *testing.B) {
	for _, n := range []int{10, 1000} {
		c, id, sig, schema := probeCache(n)
		b.Run(fmt.Sprintf("lookup/entries=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := c.Lookup(id, sig, schema); !ok {
					b.Fatal("lookup missed")
				}
			}
		})
		absent := idOf(id.FP, "absent")
		b.Run(fmt.Sprintf("contains/entries=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if c.Contains(absent, nil) {
					b.Fatal("contains hit an absent identity")
				}
			}
		})
	}
}
