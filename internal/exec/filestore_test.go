package exec

import (
	"context"
	"fmt"
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

func TestFileStoreVersionTracking(t *testing.T) {
	fs := NewFileStore()
	if v := fs.Version("f"); v != 0 {
		t.Errorf("version of unseen path = %d, want 0", v)
	}
	fs.Put("f", fsTable(1))
	if v := fs.Version("f"); v != 1 {
		t.Errorf("version after Put = %d, want 1", v)
	}
	fs.Put("f", fsTable(2))
	if v := fs.Version("f"); v != 2 {
		t.Errorf("version after second Put = %d, want 2", v)
	}
	fs.Remove("f")
	if v := fs.Version("f"); v != 3 {
		t.Errorf("version after Remove = %d, want 3", v)
	}
	// A failed Remove is not a mutation.
	fs.Remove("f")
	if v := fs.Version("f"); v != 3 {
		t.Errorf("version after no-op Remove = %d, want 3", v)
	}
	if v := fs.Version("g"); v != 0 {
		t.Errorf("unrelated path version = %d, want 0", v)
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
