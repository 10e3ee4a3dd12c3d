// Webscale: the big-graph configuration of the paper scaled to a laptop —
// a heavy-tailed graph with hundreds of thousands of edges, counted at
// k=6 with biased coloring (Section 3.4) and greedy flushing of the table
// through disk (Section 3.1), the two levers motivo uses to reach
// billion-edge graphs on 64 GB machines — combined with the engine's
// serving workflow: the packed count table is built and persisted ONCE,
// opened into a long-lived motivo.Engine ONCE, and every query then costs
// only an O(1) urn clone plus its own sampling. That is the shape of a
// production deployment: a periodic (expensive) build job feeding one
// resident query engine (`motivo serve`) that answers arbitrarily many
// requests.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"time"

	motivo "repro"
)

func main() {
	g := motivo.BarabasiAlbert(100000, 4, 99)
	fmt.Printf("graph: %d nodes, %d edges, max degree %d\n",
		g.NumNodes(), g.NumEdges(), g.MaxDegree())

	const k = 6
	buildOpts := motivo.Options{
		K:         k,
		Lambda:    0.08,    // biased coloring: shrinks the table (Section 3.4)
		MemBudget: 1 << 30, // greedy flushing through temp files (Section 3.1)
		Seed:      17,
	}

	// Build once: the expensive color-coding phase runs a single time and
	// the packed table (arena + offset index + coloring) lands on disk.
	dir, err := os.MkdirTemp("", "motivo-webscale-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "graph.tbl")
	info, err := motivo.BuildTable(g, buildOpts, path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n[build once]\n")
	fmt.Printf("  build %v, %d pairs packed into %.1f MiB (%.2f bytes/pair)\n",
		info.BuildTime.Round(1e6), info.Pairs,
		float64(info.TableBytes)/(1<<20),
		float64(info.TableBytes)/float64(info.Pairs))
	fmt.Printf("  persisted to %s (%.1f MiB)\n", path, float64(info.FileBytes)/(1<<20))

	// Open once: the table is read, validated and turned into the master
	// sampling urn here — and never again, however many queries follow.
	eng, err := motivo.Open(g, path)
	if err != nil {
		log.Fatal(err)
	}
	st := eng.Stats()
	fmt.Printf("\n[open once]\n")
	fmt.Printf("  engine ready in %v (vs %v build) — every query below skips both\n",
		st.OpenTime.Round(1e6), info.BuildTime.Round(1e6))

	// Query many: each request is a cheap clone off the resident engine —
	// no table re-open, no urn rebuild, whatever the strategy or budget.
	ctx := context.Background()
	queries := []struct {
		name  string
		query motivo.Query
	}{
		{"naive, 50k samples", motivo.Query{Strategy: motivo.Naive, Samples: 50000, Seed: 17}},
		{"naive, 20k samples", motivo.Query{Strategy: motivo.Naive, Samples: 20000, Seed: 17}},
		{"AGS, 50k samples", motivo.Query{Strategy: motivo.AGS, Samples: 50000, Seed: 17}},
	}
	var amortized time.Duration
	var firstRes *motivo.Result
	for _, q := range queries {
		res, err := eng.Count(ctx, q.query)
		if err != nil {
			log.Fatal(err)
		}
		if firstRes == nil {
			firstRes = res
		}
		amortized += st.OpenTime // what a cold per-query open would have re-paid
		fmt.Printf("\n[query: %s]\n", q.name)
		fmt.Printf("  sampling %v, %d samples — no table open, no urn rebuild\n",
			res.SampleTime.Round(1e6), res.Samples)
		fmt.Printf("  distinct %d-graphlets observed: %d\n", k, len(res.Counts))
		for i, e := range res.Top(3) {
			fmt.Printf("  %d. %-24s %12.4g copies (%6.3f%%)\n",
				i+1, motivo.Describe(k, e.Code), e.Count, 100*e.Frequency)
		}
	}

	fmt.Printf("\nThe build ran once and the engine opened once (%v); the three\n",
		st.OpenTime.Round(1e6))
	fmt.Printf("queries above would have re-paid ~%v of table open + urn\n",
		amortized.Round(1e6))
	fmt.Println("construction as one-shot runs — the engine amortizes all of it,")
	fmt.Println("and `motivo serve` exposes this exact session over HTTP.")

	// Zero-copy reopen: the same file opens memory-mapped — arenas and
	// offset indexes are served straight off the kernel page cache, so the
	// open never reads or copies the level payloads and the table may
	// exceed the Go heap. MapAuto maps MvT4 files and falls back to the
	// heap load for legacy formats (or platforms without mmap).
	mapped, err := motivo.OpenMode(g, path, motivo.MapAuto)
	if err != nil {
		log.Fatal(err)
	}
	mst := mapped.Stats()
	fmt.Printf("\n[zero-copy reopen]\n")
	fmt.Printf("  mapped engine ready in %v (first open: %v)\n",
		mst.OpenTime.Round(1e6), st.OpenTime.Round(1e6))
	fmt.Printf("  residency: %.1f MiB mapped (page cache), %.1f KiB heap\n",
		float64(mst.MappedBytes)/(1<<20), float64(mst.HeapBytes)/(1<<10))
	mres, err := mapped.Count(ctx, queries[0].query)
	if err != nil {
		log.Fatal(err)
	}
	if !reflect.DeepEqual(mres.Counts, firstRes.Counts) {
		log.Fatal("mapped estimates diverged from the heap-loaded engine")
	}
	fmt.Printf("  re-ran %q: bit-identical estimates off the mapping\n", queries[0].name)

	// Multi-tenant serving: a Registry holds many named engines at once —
	// the shape behind `motivo serve -graph a=...:... -graph b=...:...`.
	// Explicitly-seeded queries are answered from a result cache on
	// repeat, and engines beyond the memory budget are LRU-evicted and
	// transparently reopened on the next query.
	reg := motivo.NewRegistry(motivo.RegistryConfig{CacheSize: 128})
	if err := reg.Open("ba", g, path); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n[registry: %d graph(s) resident]\n", reg.Stats().Resident)
	seeded := motivo.Query{Strategy: motivo.Naive, Samples: 30000, Seed: 17}
	for i := 0; i < 2; i++ {
		res, cached, err := reg.Count(ctx, "ba", seeded)
		if err != nil {
			log.Fatal(err)
		}
		disposition := "sampled"
		if cached {
			disposition = "served from the seeded-result cache"
		}
		fmt.Printf("  query %d: %d samples in %v — %s\n",
			i+1, res.Samples, res.SampleTime.Round(1e6), disposition)
	}
	rst := reg.Stats()
	fmt.Printf("  cache: %d hit / %d miss — identical (graph, seeded query)\n",
		rst.CacheHits, rst.CacheMisses)
	fmt.Println("  pairs repeat bit-identical results without re-sampling.")
}
