package build

// The shard merge: shard sinks concatenate into the final level arena.
// Correctness rests on two orderings that hold by construction — shards
// partition [0, n) in ascending contiguous ranges, and within a shard the
// owning worker flushed records in ascending vertex order — so appending
// the sinks in shard order yields records in global node order, compact,
// with no gaps: the one layout Table.SetLevel accepts (it re-checks the
// contiguity rather than trusting it).

// mergeShards copies every shard sink into one exact-size level arena and
// installs it. Transient memory is the arena itself (which the table keeps)
// plus the sinks not yet consumed; each sink is closed — its buffer
// released, its spill file deleted — as soon as it has been copied.
func (b *builder) mergeShards(h int, shards []shard) error {
	var total int64
	for i := range shards {
		if shards[i].sink != nil {
			total += shards[i].sink.Size()
		}
	}
	arena := make([]byte, total)
	starts := make([]int64, b.g.NumNodes())
	for i := range starts {
		starts[i] = -1
	}
	var off int64
	for i := range shards {
		s := &shards[i]
		if s.sink == nil {
			continue
		}
		size := s.sink.Size()
		if err := s.sink.CopyInto(arena[off : off+size]); err != nil {
			return err
		}
		for v := s.lo; v < s.hi; v++ {
			if o := s.sink.Offset(v - s.lo); o >= 0 {
				starts[v] = off + o
			}
		}
		off += size
		if err := s.sink.Close(); err != nil {
			return err
		}
		s.sink = nil
	}
	if b.opts.MemBudget > 0 {
		b.stats.SpillBytes += total
	}
	return b.tab.SetLevel(h, arena, starts)
}
