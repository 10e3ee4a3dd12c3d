// Package mmapx is the one place read-only file mappings are made: a thin
// portable shim over the platform mmap used by both the count-table loader
// (table.OpenMapped) and the host-graph loader (graph.OpenMapped). Callers
// own the returned byte slice's lifetime and must Unmap it exactly once;
// both users wrap that in an explicit Close plus a finalizer fallback.
// WriteFile is the writer-side counterpart: every table and MvG1 graph
// file is replaced atomically, so rewriting a file never truncates it
// under a live mapping.
package mmapx

import "errors"

// ErrUnsupported reports that this platform cannot memory-map files at
// all. Callers translate it into their own fallback signal (the table and
// graph packages both wrap it into their ErrNotMappable).
var ErrUnsupported = errors.New("mmapx: no mmap on this platform")
