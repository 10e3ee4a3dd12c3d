package table

import (
	"bufio"
	"fmt"
	"os"
)

// DiskStore is the spill sink of a budgeted build (Section 3.1's greedy
// flushing): while a size-h pass runs, each completed record is encoded
// once into the packed wire format (packed.go) and appended to a temp
// file, so the build holds one record at a time rather than the level.
// The bytes on disk are exactly the bytes that later live in the level
// arena: one wire format for spilling, in-memory storage, and persistence
// (serialize.go).
type DiskStore struct {
	f       *os.File
	w       *bufio.Writer
	offsets []int64 // offsets[v] = file offset of v's record, -1 if empty
	pos     int64
}

// NewDiskStore creates a spill file for n nodes inside dir (or the default
// temp dir if dir is empty). The write buffer is small (64 KiB): a
// sharded build keeps one live store per open shard until the merge
// consumes it, so larger buffers alone would rival a small budget.
func NewDiskStore(dir string, n int) (*DiskStore, error) {
	f, err := os.CreateTemp(dir, "motivo-table-*.spill")
	if err != nil {
		return nil, err
	}
	offs := make([]int64, n)
	for i := range offs {
		offs[i] = -1
	}
	return &DiskStore{f: f, w: bufio.NewWriterSize(f, 64<<10), offsets: offs}, nil
}

// Flush appends the packed record of node v (as produced by AppendRecord)
// to the spill file so the caller can release the in-memory copy. Empty
// records are skipped.
func (d *DiskStore) Flush(v int32, rec []byte) error {
	if len(rec) == 0 {
		return nil
	}
	d.offsets[v] = d.pos
	if _, err := d.w.Write(rec); err != nil {
		return err
	}
	d.pos += int64(len(rec))
	return nil
}

// CopyInto is the spill merge reader: it reads the whole spill file
// straight into dst, which must be exactly Size() bytes. The sharded
// external merge points dst at a sub-range of the final level arena, so
// shard spills concatenate into node order without a second whole-level
// copy ever existing.
func (d *DiskStore) CopyInto(dst []byte) error {
	if int64(len(dst)) != d.pos {
		return fmt.Errorf("table: spill merge into %d bytes, file has %d", len(dst), d.pos)
	}
	if err := d.w.Flush(); err != nil {
		return err
	}
	if _, err := d.f.ReadAt(dst, 0); err != nil {
		return fmt.Errorf("table: spill reload: %w", err)
	}
	return nil
}

// Offset returns the file offset record i was flushed at, or -1 if i was
// never flushed — the per-record index the sharded merge shifts into
// whole-level start offsets.
func (d *DiskStore) Offset(i int32) int64 { return d.offsets[i] }

// Size returns the current spill file size in bytes.
func (d *DiskStore) Size() int64 { return d.pos }

// Close removes the spill file.
func (d *DiskStore) Close() error {
	name := d.f.Name()
	if err := d.f.Close(); err != nil {
		os.Remove(name)
		return err
	}
	return os.Remove(name)
}
