package exec

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/relop"
)

func fsTable(rows int) *Table {
	t := &Table{Schema: relop.Schema{{Name: "A", Type: relop.TInt}}}
	for i := 0; i < rows; i++ {
		t.Rows = append(t.Rows, relop.Row{relop.IntVal(int64(i))})
	}
	return t
}

func TestFileStoreRemove(t *testing.T) {
	fs := NewFileStore()
	tab := fsTable(5)
	fs.Put("f", tab)

	n, ok := fs.Remove("f")
	if !ok || n != tab.Bytes() {
		t.Fatalf("Remove = (%d, %v), want (%d, true)", n, ok, tab.Bytes())
	}
	if _, ok := fs.Get("f"); ok {
		t.Error("file should be gone after Remove")
	}
	if n, ok := fs.Remove("f"); ok || n != 0 {
		t.Errorf("second Remove = (%d, %v), want (0, false)", n, ok)
	}
	if n, ok := fs.Remove("never"); ok || n != 0 {
		t.Errorf("Remove of unknown path = (%d, %v), want (0, false)", n, ok)
	}
	count, bytes := fs.RemoveStats()
	if count != 1 || bytes != tab.Bytes() {
		t.Errorf("RemoveStats = (%d, %d), want (1, %d)", count, bytes, tab.Bytes())
	}
}

// TestFileStoreVersionTracking: a path's version changes on every
// mutation, never repeats, is 0 while the path is absent, and is left
// alone by a Remove that removes nothing or by another path's Put.
func TestFileStoreVersionTracking(t *testing.T) {
	fs := NewFileStore()
	if v := fs.Version("f"); v != 0 {
		t.Errorf("version of unseen path = %d, want 0", v)
	}
	seen := map[int64]bool{0: true}
	mutate := func(what string, f func()) {
		t.Helper()
		before := fs.Version("f")
		f()
		v := fs.Version("f")
		if v == before {
			t.Errorf("version unchanged by %s: %d", what, v)
		}
		if v != 0 && seen[v] {
			t.Errorf("version %d after %s repeats an earlier one", v, what)
		}
		seen[v] = true
	}
	mutate("Put", func() { fs.Put("f", fsTable(1)) })
	mutate("second Put", func() { fs.Put("f", fsTable(2)) })
	mutate("Remove", func() { fs.Remove("f") })
	if v := fs.Version("f"); v != 0 {
		t.Errorf("version after Remove = %d, want 0", v)
	}
	// A failed Remove is not a mutation.
	fs.Remove("f")
	if v := fs.Version("f"); v != 0 {
		t.Errorf("version after no-op Remove = %d, want 0", v)
	}
	mutate("Put after Remove", func() { fs.Put("f", fsTable(1)) })
	v := fs.Version("f")
	fs.Put("g", fsTable(1))
	fs.Remove("never")
	if got := fs.Version("f"); got != v {
		t.Errorf("another path's mutations moved f's version %d -> %d", v, got)
	}
	if fs.Version("g") == 0 || fs.Version("g") == v {
		t.Errorf("g's version %d is absent or repeats f's", fs.Version("g"))
	}
}

// TestFileStoreForgetsRemovedPaths: the store keeps bookkeeping only
// for the paths it holds — every evicted artifact path and spill path
// is unique, so remembering removed ones grew without bound — and a
// Put, Remove, Put on one path still yields three different versions.
func TestFileStoreForgetsRemovedPaths(t *testing.T) {
	fs := NewFileStore()
	for i := 0; i < 1000; i++ {
		p := fmt.Sprintf("__cache/%d", i)
		fs.Put(p, fsTable(1))
		if i%10 != 0 {
			fs.Remove(p)
		}
	}
	held := len(fs.Paths())
	if held != 100 {
		t.Fatalf("store holds %d paths, want 100", held)
	}
	st := reflect.ValueOf(fs).Elem()
	for i := 0; i < st.NumField(); i++ {
		if f := st.Field(i); f.Kind() == reflect.Map && f.Len() > held {
			t.Errorf("FileStore.%s keeps %d entries for %d held paths", st.Type().Field(i).Name, f.Len(), held)
		}
	}
	fs.Put("src", fsTable(1))
	v1 := fs.Version("src")
	fs.Remove("src")
	v2 := fs.Version("src")
	fs.Put("src", fsTable(1))
	v3 := fs.Version("src")
	if v1 == v2 || v2 == v3 || v1 == v3 {
		t.Errorf("Put, Remove, Put versions %d, %d, %d, want three different", v1, v2, v3)
	}
}

// TestFileStoreRemoveConcurrent hammers Put/Remove/Get/Version from
// many goroutines; the race detector leg of check.sh relies on it.
func TestFileStoreRemoveConcurrent(t *testing.T) {
	fs := NewFileStore()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				p := fmt.Sprintf("f%d", i%10)
				fs.Put(p, fsTable(1))
				fs.Get(p)
				fs.Version(p)
				fs.Remove(p)
				fs.RemoveStats()
			}
		}(w)
	}
	wg.Wait()
	count, bytes := fs.RemoveStats()
	if count == 0 || bytes == 0 {
		t.Errorf("concurrent removes not metered: count=%d bytes=%d", count, bytes)
	}
}

// TestSpillNamespacesDisjointAcrossClusters: every cluster over one
// store spills into that store, so run spill namespaces are numbered
// per store. A session builds a fresh cluster per run; when the
// numbering was per cluster, every session run spilled under run1 and
// two concurrent runs spilling the same plan node removed each other's
// scratch files ("spill file ... lost").
func TestSpillNamespacesDisjointAcrossClusters(t *testing.T) {
	fs := NewFileStore()
	seen := map[int64]bool{}
	for i := 0; i < 3; i++ {
		cl, err := NewCluster(2, fs)
		if err != nil {
			t.Fatal(err)
		}
		r, finish := cl.newRunner(context.Background())
		if seen[r.runID] {
			t.Errorf("cluster %d reuses spill namespace run%d on a shared store", i, r.runID)
		}
		seen[r.runID] = true
		finish()
	}
}
