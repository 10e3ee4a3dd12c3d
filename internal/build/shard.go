package build

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/table"
)

// This file implements the level pass: the vertex range is cut into
// contiguous shards that form a shared work queue, the worker pool pulls
// shards off the queue (work-stealing — a worker stuck on a shard of hubs
// never strands the rest of the range, unlike a static 1/workers split),
// and every completed record streams straight into the claimed shard's
// sink: an in-memory buffer, or under Options.MemBudget a packed spill
// file. Because exactly one worker owns a shard at a time and walks its
// vertices in ascending order, each sink is already compact and
// node-ordered — which is what lets merge.go concatenate them into the
// level arena instead of re-sorting.

// shardsPerWorker is the queue's over-subscription factor: enough shards
// per worker that stealing can balance skewed degree distributions, few
// enough that per-shard spill files stay coarse.
const shardsPerWorker = 8

// minShards/maxShards clamp the shard count: below the floor stealing
// cannot help, above the ceiling the temp-file count stops paying for
// itself.
const (
	minShards = 16
	maxShards = 512
)

// sink receives the encoded records of one shard, flushed in ascending
// vertex order and indexed by shard-relative vertex (table.DiskStore is
// the spill-file sink of budgeted builds).
type sink interface {
	Flush(i int32, rec []byte) error
	Offset(i int32) int64
	Size() int64
	CopyInto(dst []byte) error
	Close() error
}

// memSink is the in-memory sink of an unbounded build.
type memSink struct {
	buf     []byte
	offsets []int64
}

func newMemSink(n int) *memSink {
	m := &memSink{offsets: make([]int64, n)}
	for i := range m.offsets {
		m.offsets[i] = -1
	}
	return m
}

func (m *memSink) Flush(i int32, rec []byte) error {
	m.offsets[i] = int64(len(m.buf))
	m.buf = append(m.buf, rec...)
	return nil
}

func (m *memSink) Offset(i int32) int64      { return m.offsets[i] }
func (m *memSink) Size() int64               { return int64(len(m.buf)) }
func (m *memSink) CopyInto(dst []byte) error { copy(dst, m.buf); return nil }
func (m *memSink) Close() error              { m.buf = nil; return nil }

// shard is one work unit of a level pass: a contiguous vertex range and
// the sink its records stream to. The sink is created on first flush, so
// shards whose range produces no records cost nothing.
type shard struct {
	lo, hi int32
	sink   sink
}

// makeShards cuts [0, n) into the work queue's contiguous vertex ranges.
func makeShards(n, workers int) []shard {
	count := workers * shardsPerWorker
	if count < minShards {
		count = minShards
	}
	if count > maxShards {
		count = maxShards
	}
	if count > n {
		count = n
	}
	if count < 1 {
		count = 1
	}
	span := (n + count - 1) / count
	shards := make([]shard, 0, count)
	for lo := 0; lo < n; lo += span {
		hi := lo + span
		if hi > n {
			hi = n
		}
		shards = append(shards, shard{lo: int32(lo), hi: int32(hi)})
	}
	return shards
}

// level runs the size-h pass: workers pull shards from the shared queue,
// stream records to per-shard sinks, and the shards are merged into the
// level arena. Records are the same bytes whatever the schedule (the
// per-vertex recurrence is deterministic) and the merge lays them out in
// node order, so the table is byte-identical at any worker count and
// budget.
func (b *builder) level(ctx context.Context, h int) error {
	lvl := time.Now()
	n := b.g.NumNodes()
	shards := makeShards(n, b.opts.workers())
	defer func() {
		// Merge closes (and removes) each sink it consumed; this sweep
		// covers error exits mid-pass.
		for i := range shards {
			if shards[i].sink != nil {
				shards[i].sink.Close()
				shards[i].sink = nil
			}
		}
	}()

	workers := b.opts.workers()
	if workers > len(shards) {
		workers = len(shards)
	}
	var (
		ops      int64
		buffered int64
		firstErr atomic.Pointer[error]
		cursor   atomic.Int64
		wg       sync.WaitGroup
	)
	fail := func(err error) { firstErr.CompareAndSwap(nil, &err) }
	wg.Add(workers)
	for wi := 0; wi < workers; wi++ {
		go func() {
			defer wg.Done()
			w := newWorker(b, h)
			for {
				si := int(cursor.Add(1)) - 1
				if si >= len(shards) || firstErr.Load() != nil {
					break
				}
				if err := b.runShard(ctx, w, &shards[si]); err != nil {
					fail(err)
					break
				}
			}
			atomic.AddInt64(&ops, w.ops)
			atomic.AddInt64(&buffered, w.buffered)
		}()
	}
	wg.Wait()
	if perr := firstErr.Load(); perr != nil {
		return *perr
	}
	b.stats.CheckMergeOps += ops
	b.stats.BufferedNodes += buffered

	if err := b.mergeShards(h, shards); err != nil {
		return err
	}
	b.stats.LevelTime[h] = time.Since(lvl)
	return nil
}

// runShard computes the records of one claimed shard in ascending vertex
// order, streaming each encoded record to the shard's sink — with a spill
// file, the in-RAM footprint of a shard is one record at a time, whatever
// the shard's total output size.
func (b *builder) runShard(ctx context.Context, w *worker, s *shard) error {
	for v := s.lo; v < s.hi; v++ {
		// Once per memo stride: stop a canceled build mid-shard (without
		// putting ctx.Err on every vertex) and drop the memo.
		if (v-s.lo)%memoStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			w.dropMemo()
		}
		if b.topLevelSkip(w.h, v) {
			continue
		}
		rec := w.vertexRecord(v)
		if rec.Len() == 0 {
			continue
		}
		w.enc = table.AppendRecord(w.enc[:0], rec)
		if s.sink == nil {
			if b.opts.MemBudget == 0 {
				s.sink = newMemSink(int(s.hi - s.lo))
			} else {
				sink, err := table.NewDiskStore(b.opts.SpillDir, int(s.hi-s.lo))
				if err != nil {
					return err
				}
				s.sink = sink
			}
		}
		if err := s.sink.Flush(v-s.lo, w.enc); err != nil {
			return err
		}
	}
	return nil
}
