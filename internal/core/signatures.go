package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/estimate"
	"repro/internal/graph"
	"repro/internal/graphlet"
	"repro/internal/treelet"
)

// SignatureStreams is the fixed number of deterministic sampling streams a
// signatures query decomposes into, independent of SampleWorkers. Pinning
// the decomposition is what makes per-node vectors bit-identical for a
// fixed seed at any physical worker count; 8 streams keep up to 8 cores
// busy without inflating the per-stream accumulator count.
const SignatureStreams = 8

// NodeSignature is one node's graphlet degree vector (GDV): how many of
// the query's sampled graphlet occurrences touched the node, per motif.
type NodeSignature struct {
	// Node is the vertex id in the host graph.
	Node int32
	// Total is the number of sampled occurrences touching the node — the
	// sum of Counts.
	Total int64
	// Counts is the per-motif incidence tally, aligned index-for-index
	// with SignaturesResult.Motifs.
	Counts []int64
}

// SignaturesResult is the outcome of one per-node signatures query.
//
// Summing Counts over all nodes (a nil node filter) recovers exactly
// k × Tallies[motif] for every motif: each sampled occurrence touches k
// distinct vertices and contributes one tally.
type SignaturesResult struct {
	// K is the graphlet size sampled.
	K int
	// Motifs lists the tallied canonical codes in sorted order; every
	// NodeSignature.Counts vector is aligned with it.
	Motifs []graphlet.Code
	// Nodes holds the signatures in ascending node order: all touched
	// nodes when the query's node filter was empty, otherwise exactly the
	// requested nodes (untouched ones carry zero vectors).
	Nodes []NodeSignature
	// Tallies is the raw per-motif occurrence count over all draws.
	Tallies map[graphlet.Code]int64
	// Samples is the number of draws made; Covered the number of
	// AGS-covered graphlets (0 under the naive strategy).
	Samples int
	Covered int
	// Achieved is the precision certificate of a run-to-precision query
	// (nil for fixed-budget queries).
	Achieved *Certificate
	// SampleTime is the wall-clock sampling duration.
	SampleTime time.Duration
	// BuildTime, OpenTime and TableBytes are filled by the one-shot
	// SignaturesContext path (zero for Engine.Signatures, which amortizes
	// those costs across queries).
	BuildTime  time.Duration
	OpenTime   time.Duration
	TableBytes int64
}

// sigAccumulator collects per-stream incidence so no locking or
// cross-stream ordering is needed; streams are merged in index order with
// commutative integer adds, keeping the result independent of scheduling.
type sigAccumulator struct {
	filter map[int32]struct{}
	nodes  []map[int32]map[graphlet.Code]int64
}

func newSigAccumulator(nodes []int32, streams int) *sigAccumulator {
	a := &sigAccumulator{nodes: make([]map[int32]map[graphlet.Code]int64, streams)}
	if len(nodes) > 0 {
		a.filter = make(map[int32]struct{}, len(nodes))
		for _, v := range nodes {
			a.filter[v] = struct{}{}
		}
	}
	return a
}

// observe folds one draw into the stream's accumulator. Safe for
// concurrent calls with distinct stream indexes.
func (a *sigAccumulator) observe(stream int, code graphlet.Code, nodes []int32) {
	acc := a.nodes[stream]
	if acc == nil {
		acc = make(map[int32]map[graphlet.Code]int64)
		a.nodes[stream] = acc
	}
	for _, v := range nodes {
		if a.filter != nil {
			if _, ok := a.filter[v]; !ok {
				continue
			}
		}
		row := acc[v]
		if row == nil {
			row = make(map[graphlet.Code]int64)
			acc[v] = row
		}
		row[code]++
	}
}

// assemble merges the streams and renders the sorted, vector-aligned
// result. requested is the original node filter (nil = all touched nodes).
func (a *sigAccumulator) assemble(res *SignaturesResult, requested []int32) {
	merged := make(map[int32]map[graphlet.Code]int64)
	for _, acc := range a.nodes {
		for v, row := range acc {
			m := merged[v]
			if m == nil {
				m = make(map[graphlet.Code]int64, len(row))
				merged[v] = m
			}
			for c, n := range row {
				m[c] += n
			}
		}
	}

	res.Motifs = make([]graphlet.Code, 0, len(res.Tallies))
	for c := range res.Tallies {
		res.Motifs = append(res.Motifs, c)
	}
	sort.Slice(res.Motifs, func(i, j int) bool { return res.Motifs[i].Less(res.Motifs[j]) })

	var ids []int32
	if requested != nil {
		seen := make(map[int32]struct{}, len(requested))
		for _, v := range requested {
			if _, dup := seen[v]; !dup {
				seen[v] = struct{}{}
				ids = append(ids, v)
			}
		}
	} else {
		ids = make([]int32, 0, len(merged))
		for v := range merged {
			ids = append(ids, v)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	res.Nodes = make([]NodeSignature, 0, len(ids))
	for _, v := range ids {
		sig := NodeSignature{Node: v, Counts: make([]int64, len(res.Motifs))}
		row := merged[v]
		for i, c := range res.Motifs {
			sig.Counts[i] = row[c]
			sig.Total += row[c]
		}
		res.Nodes = append(res.Nodes, sig)
	}
}

// Signatures serves one per-node graphlet signature query: it samples
// exactly like Count (same strategies, budgets and precision mode) but
// streams every draw's vertex incidence into per-node motif-count vectors.
// nodes, when non-empty, restricts the vectors to those vertices (the
// sampling itself is unchanged); an empty or nil slice returns every node
// touched by at least one sample.
//
// Signatures pins its stream decomposition to SignatureStreams, so for a
// fixed seed the vectors are bit-identical at any SampleWorkers count —
// unlike Count, whose draw sequence follows the worker count.
func (e *Engine) Signatures(ctx context.Context, q Query, nodes []int32) (*SignaturesResult, error) {
	if len(nodes) == 0 {
		nodes = nil // empty and nil both mean "all touched nodes"
	}
	for _, v := range nodes {
		if v < 0 || int(v) >= e.g.NumNodes() {
			return nil, fmt.Errorf("core: node %d out of range [0, %d)", v, e.g.NumNodes())
		}
	}
	acc := newSigAccumulator(nodes, SignatureStreams)
	out, elapsed, err := e.sample(ctx, q.WithDefaults(), SignatureStreams, acc.observe)
	if err != nil {
		return nil, err
	}
	res := &SignaturesResult{
		K:          e.tab.K,
		Tallies:    out.Tallies,
		Samples:    out.Samples,
		Covered:    out.Covered,
		Achieved:   out.Achieved,
		SampleTime: elapsed,
	}
	acc.assemble(res, nodes)
	return res, nil
}

// Signatures is the one-shot form of Engine.Signatures, mirroring Count:
// build (or open) a table for run 0 of the config, then serve a single
// signatures query through an ephemeral engine.
func Signatures(g *graph.Graph, cfg Config, nodes []int32) (*SignaturesResult, error) {
	return SignaturesContext(context.Background(), g, cfg, nodes)
}

// SignaturesContext is Signatures honoring a context.
func SignaturesContext(ctx context.Context, g *graph.Graph, cfg Config, nodes []int32) (*SignaturesResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Colorings > 1 {
		return nil, fmt.Errorf("core: signatures require Colorings == 1 (incidence tallies are per-coloring), got %d", cfg.Colorings)
	}

	if cfg.TablePath != "" {
		eng, err := cfg.openEngine(g)
		if err != nil {
			return nil, err
		}
		res, err := eng.Signatures(ctx, cfg.query(), nodes)
		if err != nil {
			return nil, err
		}
		res.OpenTime = eng.openTime
		res.TableBytes = eng.tab.Bytes()
		return res, nil
	}

	eng, stats, err := cfg.engine(ctx, g, 0, treelet.NewCatalog(cfg.K), estimate.NewSigma(cfg.K))
	if err != nil {
		return nil, err
	}
	res, err := eng.Signatures(ctx, cfg.query(), nodes)
	if err != nil {
		return nil, err
	}
	res.BuildTime = stats.Duration
	res.TableBytes = stats.TableBytes
	return res, nil
}
