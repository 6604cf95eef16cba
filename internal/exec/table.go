// Package exec is the distributed execution substrate standing in for
// Dryad/Cosmos: a deterministic simulator of a shared-nothing cluster
// that actually runs physical plans over in-memory partitioned
// tables, metering disk, network, and CPU work.
//
// Beyond producing results, the executor validates the optimizer's
// correctness claims at runtime: a Global or Single aggregation whose
// input is not really colocated by grouping key, or a stream
// aggregation whose input is not really clustered, fails loudly
// instead of silently producing wrong answers. The repository's
// equivalence tests run every script through the conventional plan,
// the CSE plan, and a single-node reference interpreter, and require
// identical results.
package exec

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/relop"
)

// Table is an in-memory relation.
type Table struct {
	Schema relop.Schema
	Rows   []relop.Row
	// PartRows, set only on a persisted spool (a cache artifact), holds
	// the row count of each machine's partition as the spool delivered
	// it: Rows is machine 0's rows, then machine 1's, and so on. A
	// CacheScan attaches those partitions as they are. Every other table
	// leaves it nil.
	PartRows []int
}

// Bytes returns the accounted storage size of the table (8 bytes per
// value, matching the statistics defaults).
func (t *Table) Bytes() int64 {
	return int64(len(t.Rows)) * int64(len(t.Schema)) * 8
}

// Clone deep-copies the table.
func (t *Table) Clone() *Table {
	rows := make([]relop.Row, len(t.Rows))
	for i, r := range t.Rows {
		rows[i] = r.Clone()
	}
	return &Table{Schema: append(relop.Schema{}, t.Schema...), Rows: rows, PartRows: slices.Clone(t.PartRows)}
}

// partitions slices a persisted spool back into the partitions it was
// delivered in. Each partition is a three-index slice of Rows, so a
// consumer that appends to it cannot write into the artifact. It
// reports false when PartRows does not describe exactly Rows.
func (t *Table) partitions() ([][]relop.Row, bool) {
	parts := make([][]relop.Row, len(t.PartRows))
	off := 0
	for m, n := range t.PartRows {
		if n < 0 || off+n > len(t.Rows) {
			return nil, false
		}
		parts[m] = t.Rows[off : off+n : off+n]
		off += n
	}
	return parts, off == len(t.Rows)
}

// Canonical returns the table's rows rendered and sorted, for
// order-insensitive comparison.
func (t *Table) Canonical() []string {
	out := make([]string, len(t.Rows))
	for i, r := range t.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// Equal reports whether two tables hold the same multiset of rows
// under the same column names (order-insensitive).
func (t *Table) Equal(u *Table) bool {
	if len(t.Rows) != len(u.Rows) || len(t.Schema) != len(u.Schema) {
		return false
	}
	for i := range t.Schema {
		if t.Schema[i].Name != u.Schema[i].Name {
			return false
		}
	}
	a, b := t.Canonical(), u.Canonical()
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Diff returns a short human-readable difference summary, for test
// failure messages.
func (t *Table) Diff(u *Table) string {
	if t.Equal(u) {
		return ""
	}
	a, b := t.Canonical(), u.Canonical()
	var sb strings.Builder
	fmt.Fprintf(&sb, "rows %d vs %d", len(a), len(b))
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			fmt.Fprintf(&sb, "; first diff at %d: %q vs %q", i, a[i], b[i])
			break
		}
	}
	return sb.String()
}

// FileStore maps file paths to tables — the simulator's distributed
// file system. It is safe for concurrent use: parallel runs write
// their outputs through Put while other partitions read inputs.
type FileStore struct {
	mu    sync.RWMutex
	files map[string]*Table // guarded by mu
	// versions counts mutations (Put or Remove) per path; session
	// caches use it to invalidate entries whose source files changed.
	versions map[string]int64 // guarded by mu
	// removes / removedBytes meter Remove calls (cache eviction work).
	removes      int64 // guarded by mu
	removedBytes int64 // guarded by mu
}

// NewFileStore returns an empty store.
func NewFileStore() *FileStore {
	return &FileStore{files: map[string]*Table{}, versions: map[string]int64{}}
}

// Put stores a table under path, bumping the path's version.
func (fs *FileStore) Put(path string, t *Table) {
	fs.mu.Lock()
	fs.files[path] = t
	fs.versions[path]++
	fs.mu.Unlock()
}

// Remove deletes the table stored under path, returning its accounted
// size and whether it existed. Removal is a mutation, so it bumps the
// path's version; the removed bytes are metered on the store (see
// RemoveStats) since eviction happens outside any cluster run.
func (fs *FileStore) Remove(path string) (int64, bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	t, ok := fs.files[path]
	if !ok {
		return 0, false
	}
	delete(fs.files, path)
	fs.versions[path]++
	n := t.Bytes()
	fs.removes++
	fs.removedBytes += n
	return n, true
}

// RemoveStats reports how many Remove calls deleted a file and the
// total accounted bytes they freed.
func (fs *FileStore) RemoveStats() (count int64, bytes int64) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.removes, fs.removedBytes
}

// Version returns how many times path has been mutated (Put or
// Remove). Zero means the store has never held the path.
func (fs *FileStore) Version(path string) int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.versions[path]
}

// Get returns the table stored under path.
func (fs *FileStore) Get(path string) (*Table, bool) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	t, ok := fs.files[path]
	return t, ok
}

// Paths lists stored paths in sorted order.
func (fs *FileStore) Paths() []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	out := make([]string, 0, len(fs.files))
	for p := range fs.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
