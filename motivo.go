// Package motivo is a Go implementation of Motivo (Bressan, Leucci,
// Panconesi — "Motivo: fast motif counting via succinct color coding and
// adaptive sampling", VLDB 2019): approximate counting of the induced
// occurrences of every connected k-node graphlet in a host graph, with
// multiplicative accuracy even for extremely rare graphlets.
//
// The pipeline is the paper's: a color-coding build-up phase fills a
// succinct treelet count table; a sampling phase treats the table as an
// urn of colorful k-treelet copies and converts treelet draws into
// graphlet occurrences; the adaptive strategy (AGS) progressively
// "deletes" already-covered graphlets from the urn by switching the
// spanning-tree shape it samples.
//
// Quick start:
//
//	g := motivo.BarabasiAlbert(10000, 5, 1)
//	res, err := motivo.Count(g, motivo.Options{K: 5, Samples: 100000})
//	if err != nil { ... }
//	for _, e := range res.Top(10) {
//		fmt.Printf("%s  %.3g occurrences (%.2f%%)\n",
//			motivo.Describe(5, e.Code), e.Count, 100*e.Frequency)
//	}
package motivo

import (
	"context"
	"io"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphlet"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/treelet"
)

// MaxK is the largest supported graphlet size.
const MaxK = treelet.MaxK

// Graph is an immutable undirected simple host graph in CSR layout.
type Graph = graph.Graph

// Edge is an undirected edge for NewGraph.
type Edge = graph.Edge

// Code is the canonical code of a graphlet (packed adjacency matrix).
type Code = graphlet.Code

// Counts maps canonical graphlet codes to occurrence counts (exact or
// estimated).
type Counts = estimate.Counts

// NewGraph builds a graph on n vertices from an edge list; self-loops and
// duplicates are dropped.
func NewGraph(n int, edges []Edge) (*Graph, error) { return graph.Build(n, edges) }

// ReadEdgeList parses a whitespace-separated edge list with '#'/'%'
// comments; sparse vertex ids are compacted.
func ReadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// ReadBinary reads the compact binary graph format written by
// (*Graph).WriteBinary.
func ReadBinary(r io.Reader) (*Graph, error) { return graph.ReadBinary(r) }

// GraphOpenMode selects how OpenGraph loads a graph file: memory-mapped
// MvG1 (zero-copy, O(ms) open, out-of-core adjacency) or heap-loaded.
type GraphOpenMode = graph.OpenMode

const (
	// GraphOpenAuto (the default) maps MvG1 binary files and falls back to
	// the heap readers for text edge lists or platforms without mmap.
	GraphOpenAuto = graph.OpenAuto
	// GraphOpenHeap always loads onto the heap.
	GraphOpenHeap = graph.OpenHeap
	// GraphOpenMapRequire maps or fails — no silent fallback to heap
	// residency (text edge lists are an error in this mode).
	GraphOpenMapRequire = graph.OpenMapRequire
)

// OpenGraph opens a graph file by content sniffing: MvG1 binary CSR files
// (written by (*Graph).WriteBinary, or `motivo convert`) open
// memory-mapped under GraphOpenAuto — O(ms) regardless of size, with the
// adjacency served from the page cache — and text edge lists stream
// through the two-pass reader. The result is identical to ReadEdgeList /
// ReadBinary on the same data.
func OpenGraph(path string, mode GraphOpenMode) (*Graph, error) { return graph.Open(path, mode) }

// Deterministic synthetic generators (see internal/gen for the regimes
// each one reproduces).
var (
	ErdosRenyi     = gen.ErdosRenyi
	BarabasiAlbert = gen.BarabasiAlbert
	StarHeavy      = gen.StarHeavy
	Lollipop       = gen.Lollipop
	Complete       = gen.Complete
	PathGraph      = gen.Path
	CycleGraph     = gen.Cycle
	StarGraph      = gen.Star
)

// Strategy selects the sampling algorithm.
type Strategy = core.Strategy

const (
	// Naive is uniform treelet sampling (the CC estimator on motivo's
	// fast urn).
	Naive = core.Naive
	// AGS is adaptive graphlet sampling: multiplicative guarantees for
	// rare graphlets too.
	AGS = core.AGS
)

// MapMode selects how persisted count tables are opened: memory-mapped
// (zero-copy arenas, O(ms) open independent of table size, page-cache
// residency — tables larger than RAM serve fine) or loaded onto the heap
// with eager validation.
type MapMode = core.MapMode

const (
	// MapAuto (the default) maps table files and falls back to heap
	// loading where mapping is unavailable (non-unix platforms).
	MapAuto = core.MapAuto
	// MapOff always heap-loads, validating the whole file eagerly.
	MapOff = core.MapOff
	// MapRequire maps or fails — no silent fallback to heap residency.
	MapRequire = core.MapRequire
)

// Options configures Count, Signatures and BuildTable. The zero value is
// completed with sensible defaults: K=4, one coloring, 100k samples, naive
// strategy, seed 1. See core.Config for every field.
type Options = core.Config

// Estimate is one graphlet's estimated occurrence count and relative
// frequency (see Result.Top).
type Estimate = core.Estimate

// Result is the outcome of a Count run or an Engine or Registry query:
// per-graphlet estimates and frequencies, the draws made, and the phase
// timings. See core.QueryResult for every field.
type Result = core.QueryResult

// Certificate is the precision certificate returned by a run-to-precision
// run: the certified relative error Eps (possibly +Inf when nothing was
// certifiable) at confidence 1-Delta after Samples draws, and whether the
// requested epsilon was Met within the sample cap.
type Certificate = core.Certificate

// Count estimates the induced occurrences of every connected K-node
// graphlet in g.
func Count(g *Graph, opts Options) (*Result, error) {
	return CountContext(context.Background(), g, opts)
}

// CountContext is Count honoring a context: the build-up phase and the
// sampling loops check ctx periodically, so a deadline or cancellation
// stops the run promptly with ctx.Err().
func CountContext(ctx context.Context, g *Graph, opts Options) (*Result, error) {
	return core.CountContext(ctx, g, opts)
}

// TableInfo reports what BuildTable did.
type TableInfo struct {
	// BuildTime is the wall-clock time of the build-up phase.
	BuildTime time.Duration
	// TableBytes is the packed in-memory table footprint; Pairs the number
	// of (treelet, colorset, count) entries it holds.
	TableBytes int64
	Pairs      int64
	// FileBytes is the size of the persisted table file.
	FileBytes int64
}

// BuildTable runs the coloring and build-up phase once and persists the
// count table to path, so repeated Count calls with Options.TablePath can
// skip the build — the build-once / query-many workflow. Options fields
// that only affect sampling (Samples, Strategy, …) are ignored. K and Seed
// must match the later queries; Lambda applies at build time only (queries
// read the saved coloring and must leave Lambda unset).
func BuildTable(g *Graph, opts Options, path string) (*TableInfo, error) {
	return BuildTableContext(context.Background(), g, opts, path)
}

// BuildTableContext is BuildTable honoring a context: a canceled or
// expired ctx stops the build-up phase promptly.
func BuildTableContext(ctx context.Context, g *Graph, opts Options, path string) (*TableInfo, error) {
	stats, fileBytes, err := core.BuildTableContext(ctx, g, opts, path)
	if err != nil {
		return nil, err
	}
	return &TableInfo{
		BuildTime:  stats.Duration,
		TableBytes: stats.TableBytes,
		Pairs:      stats.Pairs,
		FileBytes:  fileBytes,
	}, nil
}

// Engine is a long-lived query session over one persisted count table: the
// table is opened, validated and turned into the master sampling urn once,
// and every Count query then costs only an O(1) urn clone plus its own
// deterministic RNG stream. An Engine is safe for concurrent use — serving
// N queries from N goroutines is the intended deployment shape — and a
// query at seed s returns bit-identical estimates to a one-shot
// Count(Options{TablePath: ..., Seed: s}).
//
//	eng, err := motivo.Open(g, "graph.tbl")
//	if err != nil { ... }
//	res, err := eng.Count(ctx, motivo.Query{Strategy: motivo.AGS, Samples: 50000, Seed: 7})
type Engine = core.Engine

// Open loads a count table persisted by BuildTable (or `motivo build -o`)
// and prepares a query engine over it. The per-query cost of the one-shot
// TablePath path — file open, validation, urn construction — is paid here
// exactly once. Tables open memory-mapped (MapAuto): O(ms) independent of
// table size, with per-level validation deferred to first touch; use
// OpenMode to pin a path.
func Open(g *Graph, tablePath string) (*Engine, error) { return core.Open(g, tablePath) }

// OpenMode is Open with the table open path pinned: MapOff heap-loads
// with eager whole-file validation, MapRequire memory-maps or fails,
// MapAuto maps when the platform allows it. Estimates are bit-identical
// across modes.
func OpenMode(g *Graph, tablePath string, mode MapMode) (*Engine, error) {
	return core.OpenMode(g, tablePath, mode)
}

// Query parameterizes one Engine.Count call. The zero value is completed
// with the same defaults as Options: 100k samples, naive strategy, seed 1.
// See core.Query for every field.
type Query = core.Query

// NodeSignature is one node's graphlet degree vector (GDV): per-motif
// counts of the sampled occurrences touching the node, aligned with
// SignaturesResult.Motifs.
type NodeSignature = core.NodeSignature

// SignaturesResult is the outcome of a per-node signatures query: the
// sorted motif list, the per-node vectors, and the run's raw tallies.
// Summing the vectors of all nodes (a nil node filter) recovers exactly
// K × tally for every motif.
type SignaturesResult = core.SignaturesResult

// Signatures is the one-shot form of Engine.Signatures, mirroring Count:
// build (or open) the table for opts, then serve one signatures query.
// Requires a single coloring (incidence tallies are per-coloring).
func Signatures(g *Graph, opts Options, nodes []int32) (*SignaturesResult, error) {
	return SignaturesContext(context.Background(), g, opts, nodes)
}

// SignaturesContext is Signatures honoring a context.
func SignaturesContext(ctx context.Context, g *Graph, opts Options, nodes []int32) (*SignaturesResult, error) {
	return core.SignaturesContext(ctx, g, opts, nodes)
}

// EngineStats describes an engine in one struct: graphlet size, host graph
// shape, resident table payload, and the one-time open cost the engine
// amortizes over its queries.
type EngineStats = core.EngineStats

// RegistryConfig bounds a Registry.
type RegistryConfig struct {
	// MemBudget caps the total resident count-table payload in bytes;
	// engines beyond it are evicted least-recently-used and transparently
	// reopened on their next query. 0 means unlimited.
	MemBudget int64
	// CacheSize is the seeded-result cache capacity in entries (identical
	// (graph, Query) with an explicit seed → cached Result). 0 disables
	// the cache.
	CacheSize int
	// MapTable selects how registered tables are opened. With the MapAuto
	// default, tables are memory-mapped: their bytes are page-cache
	// residency (reported separately in Stats().MappedBytes), charge
	// almost nothing against MemBudget, and evicting/reopening them is
	// O(ms) — many more graphs fit one host.
	MapTable MapMode
}

// Registry is a named collection of engines — the multi-tenant half of the
// build-once / query-many workflow. One process serves many graphs: each
// is registered once under a name, engines are LRU-evicted under the
// memory budget and reopened on demand (concurrent reopens of the same
// table load it once), and repeated explicitly-seeded queries are answered
// from the result cache without sampling at all. All methods are safe for
// concurrent use.
type Registry struct {
	reg *registry.Registry
}

// GraphInfo describes one registered graph (see Registry.List).
type GraphInfo = registry.Info

// RegistryStats aggregates a registry's traffic and cache counters (see
// Registry.Stats).
type RegistryStats = registry.Stats

// NewRegistry creates an empty registry under cfg's budget.
func NewRegistry(cfg RegistryConfig) *Registry {
	return &Registry{reg: registry.New(registry.Config{
		MemBudget: cfg.MemBudget,
		CacheSize: cfg.CacheSize,
		MapTable:  cfg.MapTable,
	})}
}

// Open registers g under name and eagerly opens its engine from the
// persisted table, so a bad table fails here rather than on the first
// query. Names must be unique.
func (r *Registry) Open(name string, g *Graph, tablePath string) error {
	_, err := r.reg.Open(name, g, tablePath)
	return err
}

// Get returns the named engine, transparently reopening it if it was
// evicted under the memory budget. Concurrent Gets of an evicted name
// share one open.
func (r *Registry) Get(ctx context.Context, name string) (*Engine, error) {
	return r.reg.Get(ctx, name)
}

// Count resolves the named engine and serves one query through the
// seeded-result cache: a query with an explicit (non-zero) Seed that the
// registry has answered before returns the cached Result without sampling
// (cached reports which). Queries with Seed 0 bypass the cache. A cached
// Result is shared between callers; treat it as read-only.
func (r *Registry) Count(ctx context.Context, name string, q Query) (res *Result, cached bool, err error) {
	return r.reg.Count(ctx, name, q, q.Seed != 0)
}

// Signatures resolves the named engine and serves one per-node signatures
// query. Results are never cached: bodies are per-node and large, and the
// fixed stream decomposition already makes seeded runs reproducible.
func (r *Registry) Signatures(ctx context.Context, name string, q Query, nodes []int32) (*SignaturesResult, error) {
	return r.reg.Signatures(ctx, name, q, nodes)
}

// Evict drops the named engine's resident state (the registration stays,
// so a later Get or Count reopens it). It reports whether an engine was
// resident.
func (r *Registry) Evict(name string) bool { return r.reg.Evict(name) }

// List describes every registered graph, sorted by name.
func (r *Registry) List() []GraphInfo { return r.reg.List() }

// Stats aggregates the registry's traffic, cache and eviction counters.
func (r *Registry) Stats() RegistryStats { return r.reg.Stats() }

// ServeConfig parameterizes NewServer.
type ServeConfig struct {
	// DefaultGraph is the registered name a POST /v1/batch without a
	// graph runs against. Empty means the first registered name in List
	// order.
	DefaultGraph string
	// MaxInflight caps concurrent sampling requests; beyond it the server
	// answers 429 with a Retry-After header. 0 means unlimited.
	MaxInflight int
}

// NewServer wraps a registry into the versioned HTTP API served by
// `motivo serve`: POST /v1/graphs/{name}/count,
// POST /v1/graphs/{name}/signatures, POST /v1/batch, GET /v1/graphs,
// GET /metrics (Prometheus text format) and GET /healthz.
func NewServer(r *Registry, cfg ServeConfig) http.Handler {
	return serve.New(serve.Config{
		Registry:     r.reg,
		DefaultGraph: cfg.DefaultGraph,
		MaxInflight:  cfg.MaxInflight,
	})
}

// ExactCount returns the exact induced counts of every connected k-node
// graphlet via exhaustive ESU enumeration — feasible for small graphs and
// the ground truth used in the experiments.
func ExactCount(g *Graph, k int) (Counts, error) { return exact.Count(g, k) }

// NonInducedCounts converts induced counts into non-induced (subgraph)
// counts: noninduced(H) = Σ_{H'} mult(H, H')·induced(H'). support lists
// the graphlets to evaluate (EnumerateGraphlets(k) for all of them, nil
// for the keys of counts).
func NonInducedCounts(counts Counts, k int, support []Code) Counts {
	return estimate.NonInduced(counts, k, support)
}

// EnumerateGraphlets lists the canonical codes of all connected k-node
// graphlets (k ≤ 7).
func EnumerateGraphlets(k int) []Code { return graphlet.Enumerate(k) }

// NumGraphlets returns the number of distinct connected graphlets on k
// nodes (OEIS A001349).
func NumGraphlets(k int) int64 { return graphlet.NumGraphlets(k) }

// Describe renders a graphlet code as a short human-readable description:
// special names for well-known shapes, otherwise edge count and degree
// sequence.
func Describe(k int, c Code) string { return graphlet.Describe(k, c) }

// ParseCode parses the Code.String form ("g" + hex digits) back into a
// Code — how a motif is named on the CLI (-target) and over the wire.
func ParseCode(s string) (Code, error) { return graphlet.ParseCode(s) }

// L1Error returns the ℓ1 distance between the frequency vectors of an
// estimate and a ground truth.
func L1Error(est, truth Counts) float64 { return estimate.L1(est, truth) }
