package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/ags"
	"repro/internal/build"
	"repro/internal/coloring"
	"repro/internal/estimate"
	"repro/internal/graph"
	"repro/internal/graphlet"
	"repro/internal/sample"
	"repro/internal/table"
	"repro/internal/treelet"
)

// Engine is the long-lived serving half of the build-once / query-many
// workflow (paper, Section 3: the count table is expensive to build, but
// samples are cheap and independent). One Engine validates its table and
// builds the master sampling urn exactly once; every query then takes an
// O(1) Urn.Clone plus its own deterministic RNG stream, so a query at
// seed s is bit-identical to a one-shot Count at seed s while skipping the
// whole table open + urn construction cost the one-shot path pays every
// time.
//
// All fields are immutable after construction except the lazily-prepared
// AGS shape set (guarded by a sync.Once) and the σ caches (internally
// locked), so an Engine serves any number of goroutines concurrently.
type Engine struct {
	g   *graph.Graph
	tab *table.Table
	col *coloring.Coloring
	cat *treelet.Catalog
	sig *estimate.Sigma
	urn *sample.Urn

	// The AGS sample(T) machinery costs a pass over the size-k records per
	// shape; it is prepared on the first AGS query and shared (read-only)
	// by every later one.
	shapeOnce sync.Once
	shapeSet  *ags.ShapeSet
	shapeErr  error

	openTime time.Duration
}

// Open loads a count table persisted by BuildTable (or `motivo build -o`)
// and prepares an Engine over it: table validation, coloring recovery and
// master-urn construction all happen here, once, instead of on every
// query. It opens in MapAuto mode — the file is memory-mapped (zero-copy
// arenas, O(ms) open independent of table size, lazy per-level validation
// on first touch) wherever the platform allows it.
func Open(g *graph.Graph, tablePath string) (*Engine, error) {
	return OpenMode(g, tablePath, MapAuto)
}

// OpenMode is Open with the table open path pinned: MapOff heap-loads
// with eager validation, MapRequire maps or fails, MapAuto maps when the
// file and platform allow it. Estimates are bit-identical across modes —
// the mapped table serves the same View interface over the same bytes.
func OpenMode(g *graph.Graph, tablePath string, mode MapMode) (*Engine, error) {
	start := time.Now()
	tab, col, err := openTable(tablePath, mode)
	if err != nil {
		return nil, err
	}
	if col == nil {
		return nil, fmt.Errorf("core: table %s carries no coloring section; rebuild it with BuildTable", tablePath)
	}
	if tab.K < 2 || tab.K > treelet.MaxK {
		return nil, fmt.Errorf("core: table %s: engine needs a table with k in [2,%d], got %d", tablePath, treelet.MaxK, tab.K)
	}
	eng, err := newEngine(g, tab, col, treelet.NewCatalog(tab.K), estimate.NewSigma(tab.K))
	if err != nil {
		return nil, fmt.Errorf("core: table %s: %w", tablePath, err)
	}
	eng.openTime = time.Since(start)
	return eng, nil
}

// openTable resolves a MapMode against one file. Only ErrNotMappable
// triggers the MapAuto fallback: a corrupt file fails hard on both
// paths rather than being silently re-read onto the heap.
func openTable(path string, mode MapMode) (*table.Table, *coloring.Coloring, error) {
	switch mode {
	case MapOff:
		return table.LoadFile(path)
	case MapRequire:
		return table.OpenMapped(path)
	case MapAuto:
		tab, col, err := table.OpenMapped(path)
		if errors.Is(err, table.ErrNotMappable) {
			return table.LoadFile(path)
		}
		return tab, col, err
	}
	return nil, nil, fmt.Errorf("core: unknown map mode %d", int(mode))
}

// newEngine wraps a table and its coloring in an Engine, with the catalog
// and σ cache supplied by the caller, so Count can share one of each
// across its γ colorings. Errors carry no "core:" prefix; exported callers
// add it.
func newEngine(g *graph.Graph, tab *table.Table, col *coloring.Coloring, cat *treelet.Catalog, sig *estimate.Sigma) (*Engine, error) {
	if col.K != tab.K {
		return nil, fmt.Errorf("coloring has %d colors, table wants %d", col.K, tab.K)
	}
	if tab.N != g.NumNodes() {
		return nil, fmt.Errorf("table covers %d nodes, graph has %d", tab.N, g.NumNodes())
	}
	if tab.SmartStars() && !tab.GraphAttached() {
		// A loaded smart table synthesizes star records from the graph's
		// adjacency; binding verifies its degree summaries against g, so a
		// table paired with the wrong graph fails here, at open time.
		if err := tab.AttachGraph(g); err != nil {
			return nil, err
		}
	}
	urn, err := sample.NewUrn(g, col, tab, cat)
	if err != nil {
		return nil, err
	}
	return &Engine{g: g, tab: tab, col: col, cat: cat, sig: sig, urn: urn}, nil
}

// EngineStats describes an engine in one struct: graphlet size, host graph
// shape, resident table payload, and the one-time open cost it amortizes.
type EngineStats struct {
	// K is the graphlet size the table was built for.
	K int
	// Nodes and Edges describe the host graph.
	Nodes int
	Edges int64
	// TableBytes is the packed count-table payload (arenas + offset
	// indexes + smart synthesis state) regardless of where it resides;
	// HeapBytes and MappedBytes split it by residency. A heap-loaded
	// table is all HeapBytes; a mapped table is mostly MappedBytes
	// (page-cache-backed, reclaimable by the kernel) plus a small heap
	// part for the decoded smart-star state.
	TableBytes  int64
	HeapBytes   int64
	MappedBytes int64
	// OpenTime is how long Open spent loading and validating the table and
	// building the master urn (zero for engines built via NewEngine).
	OpenTime time.Duration
}

// Stats reports the engine's shape and cost in a single struct.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		K:           e.tab.K,
		Nodes:       e.g.NumNodes(),
		Edges:       e.g.NumEdges(),
		TableBytes:  e.tab.Bytes(),
		HeapBytes:   e.tab.HeapBytes(),
		MappedBytes: e.tab.MappedBytes(),
		OpenTime:    e.openTime,
	}
}

// shapes prepares the AGS per-shape urns on first use.
func (e *Engine) shapes() (*ags.ShapeSet, error) {
	e.shapeOnce.Do(func() {
		e.shapeSet, e.shapeErr = ags.PrepareShapes(e.urn)
	})
	return e.shapeSet, e.shapeErr
}

// Certificate is the (ε, δ) precision certificate returned by a
// run-to-precision query; see ags.Certificate for field semantics.
type Certificate = ags.Certificate

// Query parameterizes one count query against an Engine (the root package
// re-exports it as motivo.Query). The zero value is usable: WithDefaults
// completes it to 100k naive samples at seed 1 with the paper's cover
// threshold. Setting any of Epsilon, Delta, TargetMotif or MaxSamples
// switches the query into run-to-precision mode, which is mutually
// exclusive with a fixed Samples budget.
//
// Query is a comparable value: the registry's seeded-result cache keys on
// the whole struct, so every field that changes what a query computes —
// including the precision fields — must stay a comparable scalar here.
type Query struct {
	// Strategy selects naive sampling or AGS. Default Naive.
	Strategy Strategy
	// Samples is the sampling budget. Default 100000; must stay 0 in
	// precision mode.
	Samples int
	// CoverThreshold is AGS's c̄. Default 1000.
	CoverThreshold int
	// Seed makes the query reproducible: an Engine query at seed s is
	// bit-identical to a one-shot Count at seed s over the same table.
	// Default 1. A Query sent through a registry is answered from the
	// seeded-result cache only when Seed is set explicitly (non-zero).
	Seed int64
	// SampleWorkers parallelizes this query across urn clones (≤ 1 =
	// sequential), exactly as Config.SampleWorkers does.
	SampleWorkers int
	// Epsilon and Delta request run-to-precision AGS: keep sampling until
	// Theorem 3 certifies the estimates within relative error Epsilon at
	// confidence 1−Delta (or MaxSamples is hit). Requires Strategy == AGS
	// and Samples == 0. The certificate comes back in
	// QueryResult.Achieved.
	Epsilon float64
	Delta   float64
	// TargetMotif restricts the certificate to one canonical motif code;
	// the zero Code certifies every tallied motif.
	TargetMotif graphlet.Code
	// MaxSamples caps a precision run (0 means ags.DefaultPrecisionCap).
	MaxSamples int
}

// PrecisionMode reports whether any run-to-precision field is set.
func (q Query) PrecisionMode() bool {
	return q.Epsilon != 0 || q.Delta != 0 || q.MaxSamples != 0 || q.TargetMotif != (graphlet.Code{})
}

// WithDefaults completes the zero fields exactly as the engine serves
// them: 100k samples (none in precision mode, whose budget is adaptive),
// the paper's cover threshold of 1000, seed 1. It is the single place
// these defaults live.
func (q Query) WithDefaults() Query {
	if q.Samples == 0 && !q.PrecisionMode() {
		q.Samples = 100000
	}
	if q.CoverThreshold == 0 {
		q.CoverThreshold = 1000
	}
	if q.Seed == 0 {
		q.Seed = 1
	}
	return q
}

// Validate checks the query after defaulting (so the zero value is valid):
// a known strategy, a positive sampling budget (or a well-formed precision
// request), a bounded worker count, and a positive cover threshold. It is
// the single validation path shared by the engine itself, the registry,
// the HTTP layer and the CLI — a query that passes here is servable as-is.
func (q Query) Validate() error {
	q = q.WithDefaults()
	if q.Strategy != Naive && q.Strategy != AGS {
		return fmt.Errorf("core: unknown strategy %d", int(q.Strategy))
	}
	if q.PrecisionMode() {
		if q.Strategy != AGS {
			return fmt.Errorf("core: run-to-precision requires the ags strategy")
		}
		if q.Samples != 0 {
			return fmt.Errorf("core: a fixed Samples budget and run-to-precision are mutually exclusive")
		}
		if !(q.Epsilon > 0) || math.IsInf(q.Epsilon, 1) {
			return fmt.Errorf("core: precision epsilon must be positive and finite, got %v", q.Epsilon)
		}
		if !(q.Delta > 0 && q.Delta < 1) {
			return fmt.Errorf("core: precision delta must be in (0, 1), got %v", q.Delta)
		}
		if q.MaxSamples < 0 {
			return fmt.Errorf("core: max samples must be ≥ 0, got %d", q.MaxSamples)
		}
	} else if q.Samples < 1 {
		return fmt.Errorf("core: samples must be ≥ 1, got %d", q.Samples)
	}
	if err := ValidateSampleWorkers(q.SampleWorkers); err != nil {
		return err
	}
	return ValidateCoverThreshold(q.CoverThreshold)
}

// validateTarget checks a non-zero target motif against the engine's k: it
// must be a canonical connected k-graphlet code, or the certificate would
// quantify over a motif the sampler can never produce.
func (e *Engine) validateTarget(q Query) error {
	if q.TargetMotif == (graphlet.Code{}) {
		return nil
	}
	k := e.tab.K
	if !graphlet.IsConnected(k, q.TargetMotif) {
		return fmt.Errorf("core: target motif %v is not a connected %d-graphlet", q.TargetMotif, k)
	}
	if graphlet.Canonical(k, q.TargetMotif) != q.TargetMotif {
		return fmt.Errorf("core: target motif %v is not in canonical form", q.TargetMotif)
	}
	return nil
}

// QueryResult is the outcome of a count: one Engine query, or a one-shot
// Count run (the root package re-exports it as motivo.Result).
type QueryResult struct {
	// K is the graphlet size counted.
	K int
	// Counts estimates the number of induced occurrences per graphlet;
	// Frequencies is Counts normalized to sum to 1.
	Counts      estimate.Counts
	Frequencies estimate.Counts
	// Samples is the number of draws made (summed across colorings);
	// Covered the number of AGS-covered graphlets (0 under the naive
	// strategy; the last coloring's in a multi-coloring run).
	Samples int
	Covered int
	// Achieved is the precision certificate of a run-to-precision query
	// (nil for fixed-budget queries).
	Achieved *Certificate
	// SampleTime and BuildTime are the aggregate phase durations
	// (BuildTime is zero unless a one-shot run built its table).
	SampleTime time.Duration
	BuildTime  time.Duration
	// OpenTime is the table open + engine construction cost of a one-shot
	// TablePath run — opening a persisted table is not a build. Zero for
	// in-memory runs and for Engine queries (an engine pays its open cost
	// once; see EngineStats.OpenTime).
	OpenTime time.Duration
	// TableBytes is the compact count-table payload (the last coloring's
	// in a multi-coloring run).
	TableBytes int64
	// BuildStats holds the per-coloring build statistics of a one-shot
	// run that built its tables.
	BuildStats []*build.Stats
}

// Estimate is one graphlet's estimated occurrence count and relative
// frequency.
type Estimate struct {
	Code      graphlet.Code
	Count     float64
	Frequency float64
}

// Top returns the n graphlets with the largest estimated counts, ties
// broken by code (all of them if n ≤ 0 or n exceeds the support). The
// order is deterministic, so a cached result renders exactly as its cold
// run did.
func (r *QueryResult) Top(n int) []Estimate {
	out := make([]Estimate, 0, len(r.Counts))
	for code, c := range r.Counts {
		out = append(out, Estimate{Code: code, Count: c, Frequency: r.Frequencies[code]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Code.Less(out[j].Code)
	})
	if n > 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

// Count serves one query: clone the master urn, derive the query's RNG
// stream from its seed, sample, estimate. It honors ctx — cancellation or
// a deadline stops the sampling loops promptly — and is safe to call from
// any number of goroutines concurrently.
func (e *Engine) Count(ctx context.Context, q Query) (*QueryResult, error) {
	q = q.WithDefaults()
	out, elapsed, err := e.sample(ctx, q, 0, nil)
	if err != nil {
		return nil, err
	}
	res := &QueryResult{
		K:          e.tab.K,
		Counts:     out.Estimates,
		Samples:    out.Samples,
		Covered:    out.Covered,
		Achieved:   out.Achieved,
		SampleTime: elapsed,
		TableBytes: e.tab.Bytes(),
	}
	if q.Strategy == Naive {
		res.Counts, err = estimate.Naive(out.Tallies, int64(out.Samples), e.urn.Total().Float64(), e.sig, e.col.PColorful)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	res.Frequencies = estimate.Frequencies(res.Counts)
	return res, nil
}

// sample is the sampling routine Count and Signatures share: validate the
// defaulted query, clone the master urn, derive the query's RNG stream
// from its seed and draw. streams pins the number of deterministic
// sampling streams (0 = one per SampleWorkers, Count's behaviour, where the
// worker count changes the draw sequence); observe, when non-nil, receives
// every draw. A naive run fills Tallies and Samples; an AGS run fills its
// estimates too. An empty urn (an unlucky coloring of a tiny graph) draws
// nothing, so every graphlet estimates to zero, as the estimator
// semantics prescribe; a precision query still gets a certificate — an
// empty urn certifies nothing.
func (e *Engine) sample(ctx context.Context, q Query, streams int, observe func(stream int, code graphlet.Code, nodes []int32)) (*ags.Result, time.Duration, error) {
	if err := q.Validate(); err != nil {
		return nil, 0, err
	}
	if err := e.validateTarget(q); err != nil {
		return nil, 0, err
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	if e.urn.Empty() {
		out := &ags.Result{Estimates: make(estimate.Counts), Tallies: make(map[graphlet.Code]int64)}
		if q.PrecisionMode() {
			out.Achieved = &Certificate{Eps: math.Inf(1), Delta: q.Delta}
		}
		return out, 0, nil
	}
	urn := e.urn.Clone()
	// Prepare the (lazily built, engine-wide) AGS shape urns before the
	// sampling clock starts: the first AGS query must not report one-time
	// engine setup as its own sampling time.
	var ss *ags.ShapeSet
	if q.Strategy == AGS {
		var err error
		if ss, err = e.shapes(); err != nil {
			return nil, 0, err
		}
	}
	rng := rand.New(rand.NewSource(q.Seed ^ 0x5DEECE66D))
	start := time.Now()
	if q.Strategy == Naive {
		naiveStreams := streams
		if naiveStreams == 0 {
			naiveStreams = q.SampleWorkers
		}
		tallies, err := naiveTallies(ctx, urn, q.Samples, q.SampleWorkers, naiveStreams, rng, observe)
		if err != nil {
			return nil, 0, err
		}
		return &ags.Result{Tallies: tallies, Samples: q.Samples}, time.Since(start), nil
	}
	aopts := ags.Options{
		CoverThreshold: q.CoverThreshold,
		Rng:            rng,
		Workers:        q.SampleWorkers,
		VirtualWorkers: streams,
		Observe:        observe,
		Shapes:         ss,
	}
	if q.PrecisionMode() {
		aopts.Precision = &ags.Precision{
			Eps:        q.Epsilon,
			Delta:      q.Delta,
			Target:     q.TargetMotif,
			MaxSamples: q.MaxSamples,
		}
	} else {
		aopts.Budget = q.Samples
	}
	out, err := ags.Run(ctx, urn, aopts)
	if err != nil {
		return nil, 0, err
	}
	return out, time.Since(start), nil
}
