package main

import (
	"context"
	"fmt"
	"math"
	"time"

	motivo "repro"
	"repro/internal/core"
	"repro/internal/gen"
)

// Every workload is closed-loop with a single caller, which waits for its
// answer before sending the next request, as an analyst or a dashboard
// does. Queries are CPU-bound for milliseconds to hundreds of
// milliseconds; one caller keeps the order of operations, and so the
// registry's hits, evictions and reopens, the same in every run of a
// seed, and leaves the second core of a two-core host to the server's
// runtime rather than to a second query competing with the first.

// servedBody is a computed (not cached) answer kept for the checks that
// run after the measured phase.
type servedBody struct {
	graph string
	req   countRequest
	body  []byte
}

// measure runs a workload's measured phase. An untraced run measures for
// the whole --seconds and reports the end-to-end metrics; peak_rss_mb is
// read as the phase ends, before the checks and probes that follow it
// open engines of their own. A traced run measures twice for half the
// time each, first untraced and then with a span around every request; it
// returns the untraced summary and reports the difference as the tracing
// overhead.
func (b *bench) measure(op func(traced bool, i int) (opRecord, error)) (latency, error) {
	d := time.Duration(b.opt.seconds * float64(time.Second))
	if !b.opt.trace {
		recs, elapsed := b.closedLoop(d, 0, func(i int) (opRecord, error) { return op(false, i) })
		rss, err := peakRSSMB()
		if err != nil {
			return latency{}, err
		}
		b.set("peak_rss_mb", rss)
		l := summarize(recs, elapsed)
		return l, b.setLatency(l)
	}
	recs, elapsed := b.closedLoop(d/2, 0, func(i int) (opRecord, error) { return op(false, i) })
	plain := summarize(recs, elapsed)
	recs, elapsed = b.closedLoop(d/2, 0, func(i int) (opRecord, error) { return op(true, i) })
	traced := summarize(recs, elapsed)
	for c := range plain.n {
		if plain.n[c] == 0 || traced.n[c] == 0 {
			return plain, fmt.Errorf("no %s operation completed in a measured phase", strategyName[c])
		}
	}
	b.set("trace.overhead_pct", 100*(traced.p50[classNaive]-plain.p50[classNaive])/plain.p50[classNaive])
	b.note("untraced p50 naive %.3f ms ags %.3f ms; traced p50 naive %.3f ms ags %.3f ms",
		plain.p50[classNaive], plain.p50[classAGS], traced.p50[classNaive], traced.p50[classAGS])
	return plain, nil
}

// hubServe: the paper's regime. A 100k-node Barabási–Albert graph at k=5
// is built once and served; the caller alternates naive and AGS queries
// of 5k draws with fresh seeds, after a warm-up that fills the engine's
// shared caches. Nearly all time goes to sampling (sample, ags,
// graphlet); build and registry are off the measured path.
func (b *bench) hubServe() error {
	sz := b.sz
	g := gen.BarabasiAlbert(sz.hubN, sz.hubM, hubGraphSeed)
	edges, err := b.writeEdgeList("hub", g)
	if err != nil {
		return err
	}
	in := input{name: "hub", edges: edges, k: sz.hubK, star: newStarCheck(g, sz.hubK, b.opt.corrupt)}
	sv, err := b.setups([]input{in}, 0)
	if err != nil {
		return err
	}
	defer sv.close()

	seeds := newSeedSource(b.opt.seed, 0)
	var bodies []servedBody
	keep := false
	op := func(traced bool, i int) (opRecord, error) {
		class := i % 2
		req := countRequest{Strategy: strategyName[class], Samples: sz.hubDraws, Seed: seeds.fresh()}
		var (
			body []byte
			err  error
		)
		b.request(traced, "POST /v1/graphs/hub/count "+req.Strategy, func() { body, _, err = sv.count("hub", req) })
		if err != nil {
			return opRecord{class: class}, err
		}
		if keep {
			bodies = append(bodies, servedBody{graph: "hub", req: req, body: body})
		}
		return opRecord{class: class, draws: sz.hubDraws}, nil
	}
	b.closedLoop(0, sz.hubWarm, func(i int) (opRecord, error) { return op(false, i) })
	keep = true
	l, err := b.measure(op)
	if err != nil {
		return err
	}
	b.checkServed(sv, bodies)
	if b.opt.trace {
		return b.traceServing(sv, l, sz.hubDraws)
	}
	return nil
}

// request runs one HTTP exchange, as a span when traced.
func (b *bench) request(traced bool, name string, fn func()) {
	if !traced {
		fn()
		return
	}
	b.tr.span(b.tr.newTrace(), 0, "serve."+name, func(int64) { fn() })
}

// churnHitShare is the share of tenant-churn queries that repeat an
// already-answered (graph, strategy, seed) and so hit the result cache.
// It is kept away from one half so the median stays among hits and the
// 90th percentile among computed answers.
const churnHitShare = 2.0 / 3

// churnZipf is the skew of graph popularity. At 1 the four least popular
// graphs draw about one query in four, so engines are evicted and
// reopened throughout a run (about one query in six, and half of the
// computed answers, reopen one). A steeper skew puts the AGS 90th
// percentile on the edge between cheap misses on the top graph and the
// rest, where it jumps from run to run.
const churnZipf = 1.0

// churnBudgetShare is the share of the engines' summed heap bytes the
// registry may keep resident, so cold graphs evict warm ones.
const churnBudgetShare = 0.5

// tenantChurn: the multi-tenant server. All eight catalog graphs at k=4
// share one registry whose memory budget holds about half of them, so
// queries to cold graphs evict and reopen engines. Graphs are chosen with
// Zipf-skewed popularity in catalog order; strategies run 3 naive : 1 AGS
// at 1k draws; two thirds of queries repeat an answered seed and are
// served from the result cache. Hits put serve and registry in charge of
// the median; misses and reopens put table/core opens and cold sampling
// caches in charge of the 90th percentile.
func (b *bench) tenantChurn() error {
	sz := b.sz
	var ins []input
	for _, spec := range sz.catalog {
		g := spec.gen()
		edges, err := b.writeEdgeList(spec.name, g)
		if err != nil {
			return err
		}
		ins = append(ins, input{name: spec.name, edges: edges, k: sz.churnK, star: newStarCheck(g, sz.churnK, b.opt.corrupt)})
	}
	sv, err := b.setups(ins, churnBudgetShare)
	if err != nil {
		return err
	}
	defer sv.close()

	zipf := zipfCDF(len(ins), churnZipf)
	r := b.rng(1)
	// Graph choice and cache repeats follow Weyl sequences, rotated by a
	// seeded offset, rather than independent draws: every run then sends
	// nearly the same mix of graphs, strategies and hits. The AGS 90th
	// percentile sits among computed answers whose cost differs tenfold
	// between graphs, and random draws moved the mix enough to move it by
	// a third between runs.
	graphOff, repeatOff := r.Float64(), r.Float64()
	seeds := newSeedSource(b.opt.seed, 0)
	type key struct {
		graph int
		req   countRequest
	}
	var (
		pools    = make([][2][]int64, len(ins))
		answered = make(map[key][]byte)
		bodies   []servedBody
	)
	op := func(traced bool, i int) (opRecord, error) {
		gi := pick(zipf, weyl(graphOff, i, math.Phi))
		class := classNaive
		if i%4 == 3 {
			class = classAGS
		}
		repeat := weyl(repeatOff, i, math.Sqrt2) < churnHitShare
		req := countRequest{Strategy: strategyName[class], Samples: sz.churnDraws}
		if pool := pools[gi][class]; repeat && len(pool) > 0 {
			req.Seed = pool[r.Intn(len(pool))]
		}
		fresh := req.Seed == 0
		if fresh {
			req.Seed = seeds.fresh()
		}
		name := ins[gi].name
		var (
			body []byte
			hit  bool
			err  error
		)
		b.request(traced, "POST /v1/graphs/"+name+"/count "+req.Strategy, func() { body, hit, err = sv.count(name, req) })
		if err != nil {
			return opRecord{class: class}, err
		}
		k := key{gi, req}
		if hit {
			if want, ok := answered[k]; !ok || string(want) != string(body) {
				b.wrong("tenant-churn %s %s seed %d: cache hit differs from the answer that filled it", name, req.Strategy, req.Seed)
			}
			return opRecord{class: class}, nil
		}
		if _, ok := answered[k]; !ok {
			answered[k] = body
			bodies = append(bodies, servedBody{graph: name, req: req, body: body})
		}
		if fresh {
			pools[gi][class] = append(pools[gi][class], req.Seed)
		}
		return opRecord{class: class, draws: sz.churnDraws}, nil
	}
	b.closedLoop(0, sz.churnWarm, func(i int) (opRecord, error) { return op(false, i) })
	before := sv.reg.Stats()
	opensBefore := totalOpens(sv.reg)
	l, err := b.measure(op)
	if err != nil {
		return err
	}
	after := sv.reg.Stats()
	b.note("tenant-churn registry: %d queries, %d cache hits, %d misses, %d evictions, %d reopens",
		after.Queries-before.Queries, after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses,
		after.Evictions-before.Evictions, totalOpens(sv.reg)-opensBefore)
	b.checkServed(sv, bodies)
	if b.opt.trace {
		return b.traceServing(sv, l, sz.churnDraws)
	}
	return nil
}

// totalOpens sums table opens (first opens and reopens) over all graphs.
func totalOpens(reg *motivo.Registry) int64 {
	var n int64
	for _, gi := range reg.List() {
		n += gi.Opens
	}
	return n
}

// zipfCDF returns the cumulative Zipf(s) distribution over n ranks.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for r := 0; r < n; r++ {
		sum += 1 / math.Pow(float64(r+1), s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return cdf
}

// weyl returns the i-th element of the sequence off + i·alpha modulo 1,
// which for irrational alpha fills [0, 1) evenly.
func weyl(off float64, i int, alpha float64) float64 {
	_, frac := math.Modf(off + float64(i)*alpha)
	return frac
}

// pick returns the rank whose cumulative share first reaches u.
func pick(cdf []float64, u float64) int {
	for r, c := range cdf {
		if u < c {
			return r
		}
	}
	return len(cdf) - 1
}

// checkServed runs the output checks on computed answers: every naive
// answer's k-star estimate against the exact count, and the first few
// answers of each graph and strategy bit for bit against a direct
// core.Engine.Count at the same seed.
func (b *bench) checkServed(sv *serving, bodies []servedBody) {
	engines := make(map[string]*core.Engine)
	replayed := make(map[string]int)
	var stars starTally
	for _, sb := range bodies {
		sg := sv.byName[sb.graph]
		cb, counts, err := parseCounts(sb.body)
		if err != nil {
			b.wrong("%s: %v", sb.graph, err)
			continue
		}
		if cb.K != sg.k || cb.Samples != sb.req.Samples || cb.Strategy != sb.req.Strategy {
			b.wrong("%s seed %d: answer is for k=%d %s with %d draws, asked k=%d %s with %d",
				sb.graph, sb.req.Seed, cb.K, cb.Strategy, cb.Samples, sg.k, sb.req.Strategy, sb.req.Samples)
			continue
		}
		if sb.req.Strategy == "naive" {
			if rel, tol := sg.star.check(counts, cb.Samples, sg.starWant); stars.judge(rel, tol) {
				b.wrong("%s seed %d: k-star estimate off by %.4f (tolerance %.4f)", sb.graph, sb.req.Seed, rel, tol)
			}
		}
		id := sb.graph + "/" + sb.req.Strategy
		if replayed[id] >= b.sz.identityChecks {
			continue
		}
		replayed[id]++
		eng := engines[sb.graph]
		if eng == nil {
			if eng, err = core.Open(sg.g, sg.table); err != nil {
				b.wrong("%s: direct engine open: %v", sb.graph, err)
				continue
			}
			engines[sb.graph] = eng
		}
		q := core.Query{Strategy: core.Naive, Samples: sb.req.Samples, Seed: sb.req.Seed}
		if sb.req.Strategy == "ags" {
			q.Strategy = core.AGS
		}
		direct, err := eng.Count(context.Background(), q)
		if err != nil {
			b.wrong("%s: direct engine count: %v", sb.graph, err)
			continue
		}
		if !b.sameAsDirect(direct.Counts, counts) || direct.Samples != cb.Samples || direct.Covered != cb.Covered {
			b.wrong("%s %s seed %d: served answer differs from a direct engine query", sb.graph, sb.req.Strategy, sb.req.Seed)
		}
	}
	n := 0
	for _, c := range replayed {
		n += c
	}
	b.note("%s; %d of %d computed answers replayed bit for bit", stars, n, len(bodies))
}
