package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/table"
)

// TestEngineMappedMatchesHeap is the serving-path bit-identity acceptance
// test: at equal seed, a query answered off a memory-mapped table must
// equal the same query answered off a heap-loaded table, byte for byte,
// for both sampling strategies — the mmap path changes where bytes live,
// never what they say.
func TestEngineMappedMatchesHeap(t *testing.T) {
	g := gen.ErdosRenyi(80, 240, 61)
	path := t.TempDir() + "/map.tbl"
	if _, _, err := BuildTable(g, Config{K: 4, Seed: 67}, path); err != nil {
		t.Fatal(err)
	}
	heap, err := OpenMode(g, path, MapOff)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenMode(g, path, MapRequire)
	if err != nil {
		if errors.Is(err, table.ErrNotMappable) {
			t.Skipf("mmap unavailable on this platform: %v", err)
		}
		t.Fatal(err)
	}
	if st := heap.Stats(); st.MappedBytes != 0 {
		t.Errorf("MapOff engine reports MappedBytes=%d, want 0", st.MappedBytes)
	}
	if st := mapped.Stats(); st.MappedBytes == 0 {
		t.Error("MapRequire engine reports MappedBytes=0")
	} else if st.TableBytes <= 0 {
		t.Errorf("mapped engine TableBytes=%d, want > 0", st.TableBytes)
	}

	ctx := context.Background()
	for _, strat := range []Strategy{Naive, AGS} {
		for _, workers := range []int{0, 3} {
			q := Query{
				Strategy: strat, Samples: 6000, CoverThreshold: 300,
				Seed: 67, SampleWorkers: workers,
			}
			href, err := heap.Count(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			mres, err := mapped.Count(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(mres.Counts, href.Counts) {
				t.Errorf("%v workers=%d: mapped estimates differ from heap estimates at equal seed", strat, workers)
			}
			if mres.Samples != href.Samples || mres.Covered != href.Covered {
				t.Errorf("%v workers=%d: sampling trajectory differs (%d/%d samples, %d/%d covered)",
					strat, workers, mres.Samples, href.Samples, mres.Covered, href.Covered)
			}
		}
	}
}

// TestK2TableRoundTrip: a k=2 table built with default settings is smart
// and fully synthetic — it stores no levels at all. Saving it and opening
// it again on the heap and the mapped path must serve estimates
// bit-identical to an in-memory Count at the same seed.
func TestK2TableRoundTrip(t *testing.T) {
	g := gen.ErdosRenyi(50, 150, 17)
	path := t.TempDir() + "/k2.tbl"
	cfg := Config{K: 2, Samples: 3000, Seed: 19}
	if _, _, err := BuildTable(g, cfg, path); err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{Naive, AGS} {
		cfg.Strategy = strat
		mem, err := Count(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []MapMode{MapOff, MapRequire} {
			loaded := cfg
			loaded.TablePath, loaded.MapTable = path, mode
			got, err := Count(g, loaded)
			if mode == MapRequire && errors.Is(err, table.ErrNotMappable) {
				continue // no mmap on this platform
			}
			if err != nil {
				t.Fatalf("%v under %v: %v", strat, mode, err)
			}
			if !reflect.DeepEqual(got.Counts, mem.Counts) || got.Samples != mem.Samples {
				t.Errorf("%v under %v: estimates differ from the in-memory run", strat, mode)
			}
		}
	}
}

// TestRetiredFormatsFailOnEveryMapMode pins the error a table in a
// retired format version (MvT2, MvT3) gets: it fails at open on every map
// mode — MapAuto must not fall back to a heap loader that no longer
// exists — and the error names the version and says how to recover.
func TestRetiredFormatsFailOnEveryMapMode(t *testing.T) {
	g := gen.ErdosRenyi(60, 180, 41)
	path := t.TempDir() + "/old.tbl"
	for _, version := range []uint32{2, 3} {
		if _, _, err := BuildTable(g, Config{K: 4, Seed: 43}, path); err != nil {
			t.Fatal(err)
		}
		// A retired file starts with its own magic ("MvT2"/"MvT3") and
		// version word; the bytes after it are never read.
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(data[0:], 0x4d765430+version)
		binary.LittleEndian.PutUint32(data[4:], version)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []MapMode{MapAuto, MapOff, MapRequire} {
			_, err := OpenMode(g, path, mode)
			if mode == MapRequire && errors.Is(err, table.ErrNotMappable) {
				continue // no mmap on this platform
			}
			want := fmt.Sprintf("format version %d", version)
			if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "motivo build") {
				t.Errorf("MvT%d under %v: got %v, want an error naming %q and `motivo build`", version, mode, err, want)
			}
		}
	}
}

// TestMappedServesTableLargerThanHeapLimit is the out-of-core acceptance
// test: a materialized k=6 table whose file exceeds a debug.SetMemoryLimit-
// constrained Go heap still serves estimates bit-identical to the
// unconstrained heap path. Mapped pages are the kernel's, not the
// runtime's, so the soft memory limit never sees them.
func TestMappedServesTableLargerThanHeapLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a multi-MiB materialized table")
	}
	n, m := 16000, 128000
	if raceEnabled {
		// The build is ~10x slower under the race detector; a smaller graph
		// keeps the test quick. The memory-limit assertions are skipped
		// below — race-instrumented heaps dwarf the scaled-down table.
		n, m = 2000, 16000
	}
	g := gen.ErdosRenyi(n, m, 1033)
	path := t.TempDir() + "/big.tbl"
	if _, _, err := BuildTable(g, Config{K: 6, Seed: 1007, MaterializeStars: true}, path); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	fileSize := fi.Size()

	// Reference estimates off the unconstrained heap path.
	q := Query{Samples: 4000, Seed: 1009}
	heap, err := OpenMode(g, path, MapOff)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := heap.Count(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	heap = nil
	runtime.GC()

	mapped, err := OpenMode(g, path, MapRequire)
	if err != nil {
		if errors.Is(err, table.ErrNotMappable) {
			t.Skipf("mmap unavailable on this platform: %v", err)
		}
		t.Fatal(err)
	}
	if st := mapped.Stats(); st.MappedBytes != fileSize {
		t.Errorf("MappedBytes=%d, want the whole %d-byte file", st.MappedBytes, fileSize)
	}

	if !raceEnabled {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		// Constrain the runtime to well below the table file: enough slack
		// over the live heap for the query to run, but small enough that
		// heap-loading the table would not fit without thrashing the GC.
		limit := int64(ms.HeapAlloc) + fileSize/4
		if limit >= fileSize {
			t.Fatalf("live heap %d B leaves no room to constrain below the %d B table; grow the workload", ms.HeapAlloc, fileSize)
		}
		prev := debug.SetMemoryLimit(limit)
		defer debug.SetMemoryLimit(prev)
		if st := mapped.Stats(); st.MappedBytes <= limit {
			t.Errorf("mapped table (%d B) does not exceed the constrained heap limit (%d B)", st.MappedBytes, limit)
		}
	}

	got, err := mapped.Count(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Counts, ref.Counts) {
		t.Error("out-of-core estimates differ from the unconstrained heap reference")
	}
}
