package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	motivo "repro"
	"repro/internal/build"
	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/table"
	"repro/internal/treelet"
)

// input is one graph a serving set-up loads from its edge list.
type input struct {
	name  string
	edges string
	k     int
	star  starCheck
}

// servedGraph is an input after set-up: loaded, built and registered.
type servedGraph struct {
	input
	g          *motivo.Graph
	table      string
	tableBytes int64
	starWant   float64 // expected k-star estimate under the table's coloring
}

// serving is the stack a serving workload measures: a registry of engines
// over persisted tables behind motivo.NewServer on a loopback listener,
// and the keep-alive HTTP client the workload's caller uses.
type serving struct {
	graphs []*servedGraph
	byName map[string]*servedGraph
	reg    *motivo.Registry
	srv    *http.Server
	served chan error
	base   string
	hc     *http.Client
}

// setupServing brings one serving stack up from the inputs' edge lists:
// read each graph, build and save its table, register the engines and
// start the server. It returns the stack and the set-up time, which
// excludes only the one-time heap calibration that sizes a budgeted
// registry. budgetShare > 0 sets the registry's memory budget to that
// share of the engines' summed heap bytes.
func (b *bench) setupServing(ins []input, dir string, budgetShare float64) (*serving, float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	sv := &serving{byName: make(map[string]*servedGraph)}
	for _, in := range ins {
		sg := &servedGraph{input: in, table: filepath.Join(dir, in.name+".tbl")}
		var err error
		if b.opt.trace {
			err = b.buildLayered(sg)
		} else {
			err = b.buildPublic(sg)
		}
		if err != nil {
			return nil, 0, err
		}
		sv.graphs = append(sv.graphs, sg)
		sv.byName[sg.name] = sg
	}
	var budget int64
	if budgetShare > 0 {
		calib := time.Now()
		heap, err := b.heapBytes(sv.graphs)
		if err != nil {
			return nil, 0, err
		}
		budget = int64(budgetShare * float64(heap))
		t0 = t0.Add(time.Since(calib))
	}
	sv.reg = motivo.NewRegistry(motivo.RegistryConfig{MemBudget: budget, CacheSize: resultCacheEntries})
	for _, sg := range sv.graphs {
		if err := sv.reg.Open(sg.name, sg.g, sg.table); err != nil {
			return nil, 0, err
		}
	}
	if err := sv.start(); err != nil {
		return nil, 0, err
	}
	return sv, since(t0), nil
}

// buildPublic loads a graph and builds its table through the public API,
// as `motivo build -o` does.
func (b *bench) buildPublic(sg *servedGraph) error {
	g, err := motivo.OpenGraph(sg.edges, motivo.GraphOpenAuto)
	if err != nil {
		return err
	}
	info, err := motivo.BuildTable(g, motivo.Options{K: sg.k, Seed: tableSeed}, sg.table)
	if err != nil {
		return fmt.Errorf("build %s: %w", sg.name, err)
	}
	sg.g, sg.tableBytes = g, info.TableBytes
	return nil
}

// buildLayered does what buildPublic does one module down — the calls
// core.BuildTable makes, with the same coloring seed and build options —
// recording a span and the layer counters around each.
func (b *bench) buildLayered(sg *servedGraph) error {
	trace := b.tr.newTrace()
	var (
		g     *graph.Graph
		col   *coloring.Coloring
		cat   *treelet.Catalog
		tab   *table.Table
		stats *build.Stats
		size  int64
		err   error
	)
	read := b.tr.span(trace, 0, "graph.Open", func(int64) { g, err = graph.Open(sg.edges, graph.OpenAuto) })
	if err != nil {
		return err
	}
	b.tr.span(trace, 0, "coloring.Uniform", func(int64) { col = coloring.Uniform(g.NumNodes(), sg.k, tableSeed) })
	b.tr.span(trace, 0, "treelet.NewCatalog", func(int64) { cat = treelet.NewCatalog(sg.k) })
	run := b.tr.span(trace, 0, "build.Run", func(int64) {
		tab, stats, err = build.Run(context.Background(), g, col, sg.k, cat, build.DefaultOptions())
	})
	if err != nil {
		return fmt.Errorf("build %s: %w", sg.name, err)
	}
	save := b.tr.span(trace, 0, "table.SaveFile", func(int64) { size, err = table.SaveFile(sg.table, tab, col) })
	if err != nil {
		return err
	}
	a := b.acc
	a.add("graph.read_s", read.Seconds(), 1)
	a.add("build.run_s", run.Seconds(), 1)
	a.add("build.ns_per_checkmerge", float64(run.Nanoseconds()), float64(stats.CheckMergeOps))
	a.add("build.checkmerge_ops", float64(stats.CheckMergeOps), 1)
	a.add("table.save_s", save.Seconds(), 1)
	a.add("table.bytes_per_pair", float64(stats.TableBytes), float64(stats.Pairs))
	a.add("table.file_mb", float64(size)/(1<<20), 1)
	sg.g, sg.tableBytes = g, stats.TableBytes
	return nil
}

// heapBytes opens every table once to learn the heap bytes the registry
// will charge against its budget. Each engine is dropped and collected
// before the next opens, so calibration never holds more than one.
func (b *bench) heapBytes(gs []*servedGraph) (int64, error) {
	var sum int64
	for _, sg := range gs {
		eng, err := motivo.Open(sg.g, sg.table)
		if err != nil {
			return 0, err
		}
		sum += eng.Stats().HeapBytes
		runtime.GC()
	}
	return sum, nil
}

// resultCacheEntries sizes the server's seeded-result cache so that no
// answer a workload repeats is ever evicted from it.
const resultCacheEntries = 1 << 16

// start serves the registry on a loopback port and waits until it answers.
func (sv *serving) start() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	sv.srv = &http.Server{Handler: motivo.NewServer(sv.reg, motivo.ServeConfig{})}
	sv.served = make(chan error, 1)
	go func() { sv.served <- sv.srv.Serve(ln) }()
	sv.base = "http://" + ln.Addr().String()
	sv.hc = &http.Client{Transport: &http.Transport{
		DisableCompression: true,
	}}
	resp, err := sv.hc.Get(sv.base + "/healthz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz answered %s", resp.Status)
	}
	return nil
}

// close stops the server and waits for it to exit.
func (sv *serving) close() error {
	if sv == nil || sv.srv == nil {
		return nil
	}
	sv.hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := sv.srv.Shutdown(ctx)
	if serr := <-sv.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}

// countRequest is the body the caller sends to /v1/graphs/{name}/count.
type countRequest struct {
	Strategy string `json:"strategy"`
	Samples  int    `json:"samples"`
	Seed     int64  `json:"seed"`
}

// count sends one count query and returns the response body and whether
// the server answered it from its result cache.
func (sv *serving) count(name string, req countRequest) ([]byte, bool, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, false, err
	}
	resp, err := sv.hc.Post(sv.base+"/v1/graphs/"+name+"/count", "application/json", bytes.NewReader(payload))
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, false, fmt.Errorf("count on %s: %s: %s", name, resp.Status, bytes.TrimSpace(body))
	}
	return body, resp.Header.Get("X-Cache") == "hit", nil
}

// setups runs the serving set-up sz.setupReps times and keeps the last
// stack; setup_s is the median set-up time.
func (b *bench) setups(ins []input, budgetShare float64) (*serving, error) {
	reps := b.sz.setupReps
	if b.opt.trace {
		reps = 1
	}
	var (
		sv    *serving
		times []float64
	)
	for i := 0; i < reps; i++ {
		if err := sv.close(); err != nil {
			return nil, err
		}
		// Let the previous stack's engines go before the next set-up, so
		// set-ups never overlap in memory.
		sv = nil
		runtime.GC()
		dir := filepath.Join(b.work, fmt.Sprintf("setup-%d", i))
		next, secs, err := b.setupServing(ins, dir, budgetShare)
		if err != nil {
			return nil, err
		}
		sv = next
		times = append(times, secs)
		if i > 0 {
			os.RemoveAll(filepath.Join(b.work, fmt.Sprintf("setup-%d", i-1)))
		}
	}
	if !b.opt.trace {
		b.set("setup_s", median(times))
	}
	worst := 0.0
	for _, sg := range sv.graphs {
		_, col, err := table.OpenMapped(sg.table)
		if err != nil {
			return nil, err
		}
		var colorErr float64
		sg.starWant, colorErr = sg.star.expected(sg.g, col)
		worst = max(worst, colorErr)
		b.meta.Graphs = append(b.meta.Graphs, graphMeta{
			Name: sg.name, Nodes: sg.g.NumNodes(), Edges: sg.g.NumEdges(),
			MaxDegree: sg.g.MaxDegree(), K: sg.k, TableBytes: sg.tableBytes,
		})
	}
	b.note("setup %d× %v s", len(times), times)
	b.noteRSS("after set-up")
	b.note("k-star checks expect the colorful stars of each table's coloring; they differ from all k-stars by up to %.4f", worst)
	return sv, nil
}

// opRecord is one completed operation of a measured phase.
type opRecord struct {
	class int // classNaive or classAGS
	ms    float64
	draws int // draws computed; 0 for an answer served from cache
}

const (
	classNaive = 0
	classAGS   = 1
)

var strategyName = [2]string{"naive", "ags"}

// closedLoop runs one caller that sends its next operation only after
// the previous one returned, until d has passed (or, with d ≤ 0, until it
// made n operations). It returns the completed operations and the wall
// time from start until the last one finished.
func (b *bench) closedLoop(d time.Duration, n int, op func(i int) (opRecord, error)) ([]opRecord, float64) {
	var (
		recs []opRecord
		errs int
	)
	start := time.Now()
	for i := 0; (d > 0 && time.Since(start) < d) || (d <= 0 && i < n); i++ {
		t := time.Now()
		rec, err := op(i)
		rec.ms = float64(time.Since(t).Nanoseconds()) / 1e6
		b.attempted++
		if err != nil {
			// No operation of a workload should fail; one that does fails
			// the run, so an error can never pass for a fast answer.
			b.failed++
			if errs++; errs <= 3 {
				b.wrong("operation failed: %v", err)
			}
			continue
		}
		recs = append(recs, rec)
	}
	if errs > 3 {
		b.wrong("%d more operations failed", errs-3)
	}
	return recs, since(start)
}

// latency summarizes a measured phase per strategy.
type latency struct {
	p50, p90     [2]float64
	n            [2]int
	samplesPerS  float64
	queriesPerS  float64
	hits, misses int
}

func summarize(recs []opRecord, elapsed float64) latency {
	var (
		l     latency
		ms    [2][]float64
		draws int
	)
	for _, r := range recs {
		ms[r.class] = append(ms[r.class], r.ms)
		draws += r.draws
		if r.draws == 0 {
			l.hits++
		} else {
			l.misses++
		}
	}
	for c := range ms {
		l.n[c] = len(ms[c])
		l.p50[c] = percentile(ms[c], 0.5)
		l.p90[c] = percentile(ms[c], 0.9)
	}
	l.samplesPerS = float64(draws) / elapsed
	l.queriesPerS = float64(len(recs)) / elapsed
	return l
}

// setLatency reports a measured phase's end-to-end metrics.
func (b *bench) setLatency(l latency) error {
	for c := range l.n {
		if l.n[c] == 0 {
			return fmt.Errorf("no %s operation completed in the measured phase", strategyName[c])
		}
	}
	b.set("naive_p50_ms", l.p50[classNaive])
	b.set("naive_p90_ms", l.p90[classNaive])
	b.set("ags_p50_ms", l.p50[classAGS])
	b.set("ags_p90_ms", l.p90[classAGS])
	b.set("samples_per_s", l.samplesPerS)
	b.set("queries_per_s", l.queriesPerS)
	b.note("measured %d naive and %d ags operations (%d computed, %d from cache)", l.n[classNaive], l.n[classAGS], l.misses, l.hits)
	return nil
}

// seedSource hands out distinct, non-zero query seeds. Each stream is
// derived from the workload seed, so the i-th query of a run has the same
// seed in every run of that workload seed.
type seedSource struct{ next int64 }

func newSeedSource(workloadSeed, stream int64) *seedSource {
	return &seedSource{next: workloadSeed*1_000_000_000 + stream*10_000_000 + 1}
}

func (s *seedSource) fresh() int64 {
	s.next++
	return s.next
}
