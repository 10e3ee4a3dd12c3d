package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/ags"
	"repro/internal/coloring"
	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/graphlet"
	"repro/internal/registry"
	"repro/internal/sample"
	"repro/internal/serve"
	"repro/internal/table"
	"repro/internal/treelet"
)

// A traced run reports per-layer metrics. Where a layer is reachable only
// inside another layer's call, the run replays that operation one module
// down: it calls the same public functions with the same seed and budget
// core.Engine.Count uses, checks that the replay gives the engine's
// answer bit for bit, and records a span around each call.

// accum sums a per-layer metric as numerator over denominator, so one
// metric can pool several graphs and repetitions with its base stated.
type accum struct {
	num, den map[string]float64
}

func newAccum() *accum {
	return &accum{num: make(map[string]float64), den: make(map[string]float64)}
}

func (a *accum) add(name string, num, den float64) {
	a.num[name] += num
	a.den[name] += den
}

// flush reports every accumulated ratio and prints its base.
func (b *bench) flush() {
	names := make([]string, 0, len(b.acc.num))
	for name := range b.acc.num {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if num, den := b.acc.num[name], b.acc.den[name]; den > 0 {
			b.set(name, num/den)
			b.note("base %s = %.6g / %.6g", name, num, den)
		}
	}
}

// replays holds the replayed operations of one workload, per strategy.
type replays struct {
	ms     [2][]float64 // replay root span
	traces [2][]int64
	hitUs  [2][]float64 // in-process serve handler on a cache hit
}

// probeSeedStream is the seed stream of the replayed queries, apart from
// the caller's stream.
const probeSeedStream = 9

// coreSeedMix is the constant core.Engine.Count mixes into a query seed to
// seed its RNG stream; a replay must use the same stream.
const coreSeedMix = 0x5DEECE66D

// probe measures every layer below the server on one served graph,
// replays naive and AGS queries of `draws` draws one module down, and
// returns the counters of the registry it probed.
func (b *bench) probe(sg *servedGraph, draws int, seeds *seedSource, rp *replays) (registry.Stats, error) {
	a, tr := b.acc, b.tr
	ctx := context.Background()
	open := tr.newTrace()
	var (
		tab *table.Table
		col *coloring.Coloring
		cat *treelet.Catalog
		urn *sample.Urn
		ss  *ags.ShapeSet
		eng *core.Engine
		err error
	)
	d := tr.span(open, 0, "table.OpenMapped", func(int64) { tab, col, err = table.OpenMapped(sg.table) })
	if err != nil {
		return registry.Stats{}, err
	}
	defer tab.Close()
	a.add("table.open_ms", ms(d), 1)
	d = tr.span(open, 0, "table.Verify", func(int64) { err = tab.Verify() })
	if err != nil {
		return registry.Stats{}, err
	}
	a.add("table.verify_ms", ms(d), 1)
	tr.span(open, 0, "table.AttachGraph", func(int64) { err = tab.AttachGraph(sg.g) })
	if err != nil {
		return registry.Stats{}, err
	}
	tr.span(open, 0, "treelet.NewCatalog", func(int64) { cat = treelet.NewCatalog(sg.k) })
	d = tr.span(open, 0, "sample.NewUrn", func(int64) { urn, err = sample.NewUrn(sg.g, col, tab, cat) })
	if err != nil {
		return registry.Stats{}, err
	}
	a.add("sample.urn_new_ms", ms(d), 1)
	first := min(1000, draws)
	rng := b.rng(10)
	d = tr.span(open, 0, "sample.Urn.SampleBatch", func(int64) {
		urn.Clone().SampleBatch(rng, first, func(graphlet.Code, []int32) bool { return true })
	})
	a.add("sample.first_batch_ms", ms(d)*1000/float64(first), 1)
	d = tr.span(open, 0, "ags.PrepareShapes", func(int64) { ss, err = ags.PrepareShapes(urn) })
	if err != nil {
		return registry.Stats{}, err
	}
	a.add("ags.prepare_shapes_ms", ms(d), 1)
	d = tr.span(open, 0, "core.OpenMode", func(int64) { eng, err = core.OpenMode(sg.g, sg.table, core.MapAuto) })
	if err != nil {
		return registry.Stats{}, err
	}
	a.add("core.open_ms", ms(d), 1)

	// Warm the master urn's shared caches, as the served engine's are.
	for i := 0; i < 2; i++ {
		urn.Clone().SampleBatch(rng, draws, func(graphlet.Code, []int32) bool { return true })
	}
	const clones = 1000
	t0 := time.Now()
	for i := 0; i < clones; i++ {
		urn.Clone()
	}
	a.add("sample.clone_us", float64(time.Since(t0).Microseconds()), clones)

	sig := estimate.NewSigma(sg.k)
	for r := 0; r < b.sz.replays; r++ {
		for class := classNaive; class <= classAGS; class++ {
			seed := seeds.fresh()
			trace := tr.newTrace()
			var counts estimate.Counts
			root := tr.span(trace, 0, "core.Engine.Count", func(id int64) {
				counts, err = b.replayQuery(trace, id, urn, ss, sig, class, draws, seed)
			})
			if err != nil {
				return registry.Stats{}, err
			}
			rp.ms[class] = append(rp.ms[class], ms(root))
			rp.traces[class] = append(rp.traces[class], trace)

			q := core.Query{Strategy: core.Naive, Samples: draws, Seed: seed}
			name := "core.count_naive_ms"
			if class == classAGS {
				q.Strategy, name = core.AGS, "core.count_ags_ms"
			}
			var (
				direct *core.QueryResult
				mem    runtime.MemStats
			)
			runtime.ReadMemStats(&mem)
			mallocs := mem.Mallocs
			d := tr.span(tr.newTrace(), 0, "core.Engine.Count", func(int64) { direct, err = eng.Count(ctx, q) })
			if err != nil {
				return registry.Stats{}, err
			}
			runtime.ReadMemStats(&mem)
			a.add("core.allocs_per_query", float64(mem.Mallocs-mallocs), 1)
			a.add(name, ms(d), 1)
			if !sameCounts(direct.Counts, counts) {
				b.wrong("%s %s seed %d: replay one module down differs from core.Engine.Count", sg.name, strategyName[class], seed)
			}
		}
	}
	b.probeInduced(urn, draws)
	return b.probeRegistry(sg, draws, seeds, rp)
}

// replayQuery does what core.Engine.Count does for one sequential query:
// clone the master urn, draw from the seed's stream, estimate.
func (b *bench) replayQuery(trace, parent int64, urn *sample.Urn, ss *ags.ShapeSet, sig *estimate.Sigma, class, draws int, seed int64) (estimate.Counts, error) {
	a, tr := b.acc, b.tr
	var clone *sample.Urn
	d := tr.span(trace, parent, "sample.Urn.Clone", func(int64) { clone = urn.Clone() })
	a.add("sample.clone_us", float64(d.Nanoseconds())/1e3, 1)
	rng := rand.New(rand.NewSource(seed ^ coreSeedMix))
	if class == classAGS {
		var (
			res *ags.Result
			err error
		)
		d = tr.span(trace, parent, "ags.Run", func(int64) {
			res, err = ags.Run(context.Background(), clone, ags.Options{CoverThreshold: 1000, Budget: draws, Rng: rng, Shapes: ss})
		})
		if err != nil {
			return nil, err
		}
		a.add("ags.draws_per_s", float64(res.Samples), d.Seconds())
		a.add("ags.switches", float64(res.Switches), 1)
		return res.Estimates, nil
	}
	tallies := make(map[graphlet.Code]int64)
	d = tr.span(trace, parent, "sample.Urn.SampleBatch", func(int64) {
		clone.SampleBatch(rng, draws, func(code graphlet.Code, _ []int32) bool {
			tallies[code]++
			return true
		})
	})
	a.add("sample.draws_per_s", float64(draws), d.Seconds())
	a.add("sample.sweeps_per_draw", float64(clone.Sweeps), float64(draws))
	var (
		counts estimate.Counts
		err    error
	)
	d = tr.span(trace, parent, "estimate.Naive", func(int64) {
		counts, err = estimate.Naive(tallies, int64(draws), urn.Total().Float64(), sig, urn.Col.PColorful)
	})
	a.add("estimate.naive_us", float64(d.Nanoseconds())/1e3, 1)
	return counts, err
}

// probeInduced times induced-subgraph canonicalization on node sets
// replayed from draws. It runs inside Urn.SampleBatch on the query path,
// so the replay measures it on its own.
func (b *bench) probeInduced(urn *sample.Urn, draws int) {
	n := min(draws, 2000)
	sets := make([][]int32, 0, n)
	urn.Clone().SampleBatch(b.rng(11), n, func(_ graphlet.Code, nodes []int32) bool {
		sets = append(sets, append([]int32(nil), nodes...))
		return true
	})
	fresh := urn.Clone()
	d := b.tr.span(b.tr.newTrace(), 0, "graphlet.Urn.Induced", func(int64) {
		for _, s := range sets {
			fresh.Induced(s)
		}
	})
	b.acc.add("graphlet.induced_ns", float64(d.Nanoseconds()), float64(len(sets)))
}

// probeRegistry times Registry.Count on misses and hits, and the serve
// handler in-process on the same requests.
func (b *bench) probeRegistry(sg *servedGraph, draws int, seeds *seedSource, rp *replays) (registry.Stats, error) {
	a, tr := b.acc, b.tr
	ctx := context.Background()
	reg := registry.New(registry.Config{CacheSize: 1024})
	if _, err := reg.Open(sg.name, sg.g, sg.table); err != nil {
		return registry.Stats{}, err
	}
	h := serve.New(serve.Config{Registry: reg})
	const handlerReps = 50
	for r := 0; r < b.sz.replays; r++ {
		for class := classNaive; class <= classAGS; class++ {
			q := core.Query{Strategy: core.Naive, Samples: draws, Seed: seeds.fresh()}
			if class == classAGS {
				q.Strategy = core.AGS
			}
			var (
				hit bool
				err error
			)
			d := tr.span(tr.newTrace(), 0, "registry.Registry.Count", func(int64) { _, hit, err = reg.Count(ctx, sg.name, q, true) })
			if err != nil || hit {
				return registry.Stats{}, fmt.Errorf("registry probe: first query hit=%v err=%v", hit, err)
			}
			a.add("registry.count_miss_ms", ms(d), 1)
			body, err := json.Marshal(countRequest{Strategy: strategyName[class], Samples: draws, Seed: q.Seed})
			if err != nil {
				return registry.Stats{}, err
			}
			for i := 0; i < handlerReps; i++ {
				d = tr.span(tr.newTrace(), 0, "registry.Registry.Count", func(int64) { _, hit, err = reg.Count(ctx, sg.name, q, true) })
				if err != nil || !hit {
					return registry.Stats{}, fmt.Errorf("registry probe: repeated query hit=%v err=%v", hit, err)
				}
				a.add("registry.count_hit_us", float64(d.Nanoseconds())/1e3, 1)
				rec := httptest.NewRecorder()
				req := httptest.NewRequest("POST", "/v1/graphs/"+sg.name+"/count", bytes.NewReader(body))
				hd := tr.span(tr.newTrace(), 0, "serve.Server.ServeHTTP", func(int64) { h.ServeHTTP(rec, req) })
				if rec.Code != 200 || rec.Header().Get("X-Cache") != "hit" {
					return registry.Stats{}, fmt.Errorf("serve probe: status %d, X-Cache %q", rec.Code, rec.Header().Get("X-Cache"))
				}
				a.add("serve.handler_us", float64(hd.Nanoseconds())/1e3, 1)
				a.add("serve.overhead_us", float64((hd-d).Nanoseconds())/1e3, 1)
				a.add("serve.response_bytes", float64(rec.Body.Len()), 1)
				rp.hitUs[class] = append(rp.hitUs[class], float64(hd.Nanoseconds())/1e3)
			}
		}
	}
	return reg.Stats(), nil
}

// traceServing finishes a traced serving workload: probes on every served
// graph, the registry's ratios over the whole run, and the share of each
// end-to-end median the replayed operation accounts for.
func (b *bench) traceServing(sv *serving, l latency, draws int) error {
	st := sv.reg.Stats()
	b.setRegistryRatios(st, totalOpens(sv.reg)-int64(len(sv.graphs)))
	seeds := newSeedSource(b.opt.seed, probeSeedStream)
	rp := &replays{}
	for _, sg := range sv.graphs {
		if _, err := b.probe(sg, draws, seeds, rp); err != nil {
			return fmt.Errorf("probe %s: %w", sg.name, err)
		}
	}
	b.finishTrace(l, rp, draws, len(sv.graphs) > 1)
	return nil
}

// setRegistryRatios reports cache and reopen ratios, based on the
// registry's seeded lookups and queries.
func (b *bench) setRegistryRatios(st registry.Stats, reopens int64) {
	lookups := st.CacheHits + st.CacheMisses
	if lookups > 0 {
		b.acc.add("registry.cache_hit_ratio", float64(st.CacheHits), float64(lookups))
	}
	if st.Queries > 0 {
		b.acc.add("registry.reopens_per_1k", 1000*float64(reopens), float64(st.Queries))
		b.acc.add("registry.evictions_per_1k", 1000*float64(st.Evictions), float64(st.Queries))
	}
	b.note("registry: %d queries, %d cache hits of %d seeded lookups, %d evictions, %d reopens",
		st.Queries, st.CacheHits, lookups, st.Evictions, reopens)
}

// finishTrace reports the replayed operations' share of the end-to-end
// medians, prints each layer's self time per replayed operation, and
// flushes the per-layer metrics. With hitPath the medians are cache hits
// (tenant-churn), so the share is that of the in-process serve handler.
func (b *bench) finishTrace(l latency, rp *replays, draws int, hitPath bool) {
	for class := classNaive; class <= classAGS; class++ {
		replay, what := median(rp.ms[class]), "replay"
		if hitPath {
			what = "in-process cache-hit handler"
			replay = median(rp.hitUs[class]) / 1000
		}
		metricName := "trace." + strategyName[class] + "_p50_share"
		b.set(metricName, replay/l.p50[class])
		self, _ := b.tr.selfByLayer(rp.traces[class]...)
		layers := make([]string, 0, len(self))
		for layer := range self {
			layers = append(layers, layer)
		}
		sort.Strings(layers)
		var parts []string
		n := float64(len(rp.traces[class]))
		for _, layer := range layers {
			parts = append(parts, fmt.Sprintf("%s %.3f", layer, ms(self[layer])/n))
		}
		b.note("self ms per replayed %s operation: %s (%s %.3f ms = %.3f of e2e p50 %.3f ms)",
			strategyName[class], strings.Join(parts, ", "), what, replay, replay/l.p50[class], l.p50[class])
	}
	induced := b.acc.num["graphlet.induced_ns"] / b.acc.den["graphlet.induced_ns"]
	b.note("graphlet canonicalization runs inside sampling: about %.3f ms of %d draws at %.0f ns each",
		induced*float64(draws)/1e6, draws, induced)
	b.flush()
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
