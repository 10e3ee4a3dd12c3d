package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/graph"
)

// graphSpec names one generated input graph.
type graphSpec struct {
	name string
	gen  func() *graph.Graph
}

// hubGraphSeed fixes hub-serve's graph. Every input graph is the same in
// every run: between seeds, Barabási–Albert graphs of one size differ in
// their largest hubs enough to move sampling speed by tens of percent,
// which would drown the program's own run-to-run spread. The workload
// seed varies the query streams instead.
const hubGraphSeed = 1

// tableSeed fixes the coloring every served table is built with, for the
// same reason: on hub-serve's graph, AGS queries under one coloring took
// 1.6 times as long as under another.
const tableSeed = 1

// catalogSpecs returns the eight graphs of internal/experiments.Catalog,
// generated at the catalog's own seeds. The tiny size shrinks node and
// edge counts twentyfold and keeps the generators and seeds.
func catalogSpecs(tiny bool) []graphSpec {
	var specs []graphSpec
	if !tiny {
		for _, d := range experiments.Catalog() {
			specs = append(specs, graphSpec{d.Name, d.Gen})
		}
		return specs
	}
	const div = 20
	ba := func(n, m int, seed int64) func() *graph.Graph {
		return func() *graph.Graph { return gen.BarabasiAlbert(n/div, m, seed) }
	}
	er := func(n, m int, seed int64) func() *graph.Graph {
		return func() *graph.Graph { return gen.ErdosRenyi(n/div, m/div, seed) }
	}
	star := func(hubs, leaves, extra int, seed int64) func() *graph.Graph {
		return func() *graph.Graph { return gen.StarHeavy(hubs, leaves/div, extra/div, seed) }
	}
	return []graphSpec{
		{"facebook-s", ba(8000, 6, 101)},
		{"dblp-s", er(15000, 45000, 103)},
		{"amazon-s", er(20000, 50000, 105)},
		{"orkut-s", ba(4000, 25, 107)},
		{"berkstan-s", star(3, 15000, 8000, 109)},
		{"yelp-s", star(1, 20000, 400, 111)},
		{"livejournal-s", ba(30000, 5, 113)},
		{"friendster-s", ba(60000, 7, 115)},
	}
}

// sizes are the workload parameters of one size.
type sizes struct {
	// hub-serve: BA(hubN, hubM) at k=hubK, hubDraws per query.
	hubN, hubM, hubK, hubDraws int
	// tenant-churn: every catalog graph at k=churnK, churnDraws per query.
	churnK, churnDraws int
	catalog            []graphSpec
	// setupReps is how many times a run repeats its set-up; setup_s is the
	// median.
	setupReps int
	// hubWarm and churnWarm are the numbers of unmeasured queries before
	// the hub-serve and tenant-churn measurements.
	hubWarm, churnWarm int
	// identityChecks is how many served bodies per strategy are replayed
	// against a direct engine query.
	identityChecks int
	// replays is how many single operations per strategy a traced run
	// replays one module down.
	replays int
}

func sizesFor(tiny bool) sizes {
	if tiny {
		return sizes{
			hubN: 3000, hubM: 3, hubK: 4, hubDraws: 500,
			churnK: 4, churnDraws: 200,
			catalog:   catalogSpecs(true),
			setupReps: 2,
			hubWarm:   2, churnWarm: 8,
			identityChecks: 1, replays: 1,
		}
	}
	return sizes{
		hubN: 100000, hubM: 5, hubK: 5, hubDraws: 5000,
		churnK: 4, churnDraws: 1000,
		catalog:   catalogSpecs(false),
		setupReps: 3,
		hubWarm:   4, churnWarm: 64,
		identityChecks: 2, replays: 3,
	}
}

// writeEdgeList writes g as a text edge list into the run's work
// directory and returns its path.
func (b *bench) writeEdgeList(name string, g *graph.Graph) (string, error) {
	path := filepath.Join(b.work, name+".txt")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := g.WriteEdgeList(f); err != nil {
		f.Close()
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, f.Close()
}
