package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/ags"
	"repro/internal/build"
	"repro/internal/ccbaseline"
	"repro/internal/coloring"
	"repro/internal/estimate"
	"repro/internal/graph"
	"repro/internal/graphlet"
	"repro/internal/sample"
	"repro/internal/table"
	"repro/internal/treelet"
)

// buildOnce is a helper running motivo's build with the given options.
func buildOnce(g *graph.Graph, k int, seed int64, mutate func(*build.Options)) (*coloring.Coloring, *treelet.Catalog, *buildResult) {
	col := coloring.Uniform(g.NumNodes(), k, seed)
	cat := treelet.NewCatalog(k)
	opts := build.DefaultOptions()
	if mutate != nil {
		mutate(&opts)
	}
	tab, stats, err := build.Run(context.Background(), g, col, k, cat, opts)
	if err != nil {
		panic(err)
	}
	return col, cat, &buildResult{tab: tab, stats: stats}
}

type buildResult struct {
	tab   *table.Table
	stats *build.Stats
}

// Fig2CheckMerge reproduces Figure 2: time spent in check-and-merge
// operations, CC's pointer treelets vs motivo's succinct treelets
// (single-threaded). The paper reports close to a 2x average speedup.
func Fig2CheckMerge(w io.Writer) {
	fmt.Fprintf(w, "== Figure 2: check-and-merge cost, pointer (CC) vs succinct (motivo), single-threaded ==\n")
	fmt.Fprintf(w, "%-15s %3s %14s %12s %12s %12s %9s\n",
		"graph", "k", "ops", "CC total", "motivo total", "ns/op CC", "ns/op mo")
	runs := []struct {
		ds string
		k  int
	}{
		{"facebook-s", 4}, {"facebook-s", 5},
		{"dblp-s", 4}, {"dblp-s", 5},
		{"orkut-s", 4},
	}
	for _, r := range runs {
		d, _ := ByName(r.ds)
		g := d.Gen()
		col := coloring.Uniform(g.NumNodes(), r.k, 301)
		cat := treelet.NewCatalog(r.k)

		_, ccStats, err := ccbaseline.Build(g, col, r.k)
		if err != nil {
			panic(err)
		}
		opts := build.DefaultOptions()
		opts.ZeroRooted = false // match CC's work exactly
		opts.Workers = 1
		_, moStats, err := build.Run(context.Background(), g, col, r.k, cat, opts)
		if err != nil {
			panic(err)
		}
		ccNs := float64(ccStats.Duration.Nanoseconds()) / float64(ccStats.CheckMergeOps)
		moNs := float64(moStats.Duration.Nanoseconds()) / float64(moStats.CheckMergeOps)
		fmt.Fprintf(w, "%-15s %3d %14d %12v %12v %12.1f %9.1f   (%.1fx)\n",
			r.ds, r.k, moStats.CheckMergeOps,
			ccStats.Duration.Round(time.Millisecond), moStats.Duration.Round(time.Millisecond),
			ccNs, moNs, ccNs/moNs)
	}
}

// Fig3BuildMemory reproduces Figure 3: build time and table footprint of
// the CC port vs motivo with succinct treelets + compact count table +
// greedy flushing (0-rooting disabled on both sides, as in the figure).
func Fig3BuildMemory(w io.Writer) {
	fmt.Fprintf(w, "== Figure 3: build time and memory, original (CC) vs succinct+compact+flush ==\n")
	fmt.Fprintf(w, "%-15s %3s %12s %12s %8s %12s %12s %8s\n",
		"graph", "k", "CC time", "motivo time", "speedup", "CC bytes", "motivo bytes", "ratio")
	runs := []struct {
		ds string
		k  int
	}{
		{"facebook-s", 4}, {"facebook-s", 5},
		{"dblp-s", 4}, {"dblp-s", 5},
		{"orkut-s", 4},
	}
	for _, r := range runs {
		d, _ := ByName(r.ds)
		g := d.Gen()
		col := coloring.Uniform(g.NumNodes(), r.k, 307)
		cat := treelet.NewCatalog(r.k)
		_, ccStats, err := ccbaseline.Build(g, col, r.k)
		if err != nil {
			panic(err)
		}
		opts := build.DefaultOptions()
		opts.ZeroRooted = false
		opts.MemBudget = 1 << 30 // spill each level through temp files (Section 3.1)
		_, moStats, err := build.Run(context.Background(), g, col, r.k, cat, opts)
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(w, "%-15s %3d %12v %12v %7.1fx %12d %12d %7.1fx\n",
			r.ds, r.k,
			ccStats.Duration.Round(time.Millisecond), moStats.Duration.Round(time.Millisecond),
			float64(ccStats.Duration)/float64(moStats.Duration),
			ccStats.BytesEstimate, moStats.TableBytes,
			float64(ccStats.BytesEstimate)/float64(moStats.TableBytes))
	}
}

// Fig4ZeroRooting reproduces Figure 4: the build-time cut from 0-rooting
// (paper: 30–40% time, ~10% space).
func Fig4ZeroRooting(w io.Writer) {
	fmt.Fprintf(w, "== Figure 4: impact of 0-rooting ==\n")
	fmt.Fprintf(w, "%-15s %3s %12s %12s %9s %10s\n", "graph", "k", "without", "with", "time cut", "space cut")
	runs := []struct {
		ds string
		k  int
	}{
		{"facebook-s", 5}, {"facebook-s", 6},
		{"dblp-s", 5}, {"amazon-s", 5},
		{"orkut-s", 4},
	}
	for _, r := range runs {
		d, _ := ByName(r.ds)
		g := d.Gen()
		col := coloring.Uniform(g.NumNodes(), r.k, 311)
		cat := treelet.NewCatalog(r.k)
		optsOff := build.DefaultOptions()
		optsOff.ZeroRooted = false
		_, off, err := build.Run(context.Background(), g, col, r.k, cat, optsOff)
		if err != nil {
			panic(err)
		}
		_, on, err := build.Run(context.Background(), g, col, r.k, cat, build.DefaultOptions())
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(w, "%-15s %3d %12v %12v %8.0f%% %9.0f%%\n",
			r.ds, r.k,
			off.Duration.Round(time.Millisecond), on.Duration.Round(time.Millisecond),
			100*(1-float64(on.Duration)/float64(off.Duration)),
			100*(1-float64(on.TableBytes)/float64(off.TableBytes)))
	}
}

// Fig5NeighborBuffering reproduces Figure 5: sampling rates with and
// without neighbor buffering on hub-dominated graphs (paper: ~20–40x on
// Orkut/BerkStan).
func Fig5NeighborBuffering(w io.Writer) {
	fmt.Fprintf(w, "== Figure 5: impact of neighbor buffering (samples/s) ==\n")
	fmt.Fprintf(w, "%-15s %3s %12s %12s %9s\n", "graph", "k", "original", "buffered", "speedup")
	runs := []struct {
		ds string
		k  int
	}{
		{"berkstan-s", 5},
		{"orkut-s", 5},
		{"yelp-s", 5},
		{"facebook-s", 5},
	}
	const S = 30000
	for _, r := range runs {
		d, _ := ByName(r.ds)
		g := d.Gen()
		col := coloring.Uniform(g.NumNodes(), r.k, 313)
		cat := treelet.NewCatalog(r.k)
		tab, _, err := build.Run(context.Background(), g, col, r.k, cat, build.DefaultOptions())
		if err != nil {
			panic(err)
		}
		rate := func(threshold int) float64 {
			urn, err := sample.NewUrn(g, col, tab, cat)
			if err != nil {
				panic(err)
			}
			urn.BufferThreshold = threshold
			rng := rand.New(rand.NewSource(317))
			start := time.Now()
			// Time-bounded: slow configurations stop after a few seconds
			// (the rate estimate is already stable by then).
			const maxWall = 5 * time.Second
			n := 0
			for ; n < S; n++ {
				if n%256 == 0 && time.Since(start) > maxWall {
					break
				}
				urn.Sample(rng)
			}
			return float64(n) / time.Since(start).Seconds()
		}
		off := rate(1 << 30)
		on := rate(1000)
		fmt.Fprintf(w, "%-15s %3d %12.0f %12.0f %8.1fx\n", r.ds, r.k, off, on, on/off)
	}
}

// Fig6BiasedColoring reproduces Figure 6: the graphlet count error
// distribution under uniform vs biased coloring (k=5 and a second k), plus
// the table-size saving biased coloring buys.
func Fig6BiasedColoring(w io.Writer) {
	fmt.Fprintf(w, "== Figure 6: error distribution, uniform vs biased coloring ==\n")
	for _, k := range []int{4, 5} {
		d := accuracySets()[0] // er-xs: exact ground truth available
		g := d.Gen()
		truth, err := exactCount(g, k)
		if err != nil {
			panic(err)
		}
		lambda := 0.6 / float64(k)
		for _, mode := range []struct {
			name   string
			lambda float64
		}{{"uniform", 0}, {fmt.Sprintf("biased λ=%.2f", lambda), lambda}} {
			errs, pairs := biasedRunErrors(g, k, mode.lambda, truth)
			fmt.Fprintf(w, "k=%d %-16s table pairs %8d | err histogram: %s\n",
				k, mode.name, pairs, histogram(errs))
		}
	}
}

// biasedRunErrors runs naive sampling under the given λ (0 = uniform) and
// returns the per-graphlet errors vs truth plus the table pair count.
func biasedRunErrors(g *graph.Graph, k int, lambda float64, truth estimate.Counts) ([]float64, int64) {
	const runs = 4
	const S = 40000
	sig := estimate.NewSigma(k)
	cat := treelet.NewCatalog(k)
	sum := make(estimate.Counts)
	var pairs int64
	for r := 0; r < runs; r++ {
		var col *coloring.Coloring
		if lambda > 0 {
			col = coloring.Biased(g.NumNodes(), k, lambda, int64(331+r))
		} else {
			col = coloring.Uniform(g.NumNodes(), k, int64(331+r))
		}
		tab, stats, err := build.Run(context.Background(), g, col, k, cat, build.DefaultOptions())
		if err != nil {
			panic(err)
		}
		pairs = stats.Pairs
		urn, err := sample.NewUrn(g, col, tab, cat)
		if err != nil {
			panic(err)
		}
		if urn.Empty() {
			continue
		}
		rng := rand.New(rand.NewSource(int64(337 + r)))
		tallies := make(map[graphlet.Code]int64)
		for i := 0; i < S; i++ {
			code, _ := urn.Sample(rng)
			tallies[code]++
		}
		est, err := estimate.Naive(tallies, S, urn.Total().Float64(), sig, col.PColorful)
		if err != nil {
			panic(err)
		}
		for c, v := range est {
			sum[c] += v / runs
		}
	}
	var errs []float64
	for _, e := range estimate.ErrH(sum, truth) {
		errs = append(errs, e)
	}
	return errs, pairs
}

// histogram renders errors in the Figure 6/8 style: buckets over [-1, +1].
func histogram(errs []float64) string {
	edges := []float64{-1, -0.75, -0.5, -0.25, -0.05, 0.05, 0.25, 0.5, 0.75, 1}
	counts := make([]int, len(edges)+1)
	for _, e := range errs {
		i := 0
		for i < len(edges) && e > edges[i] {
			i++
		}
		counts[i]++
	}
	s := ""
	for i, c := range counts {
		switch {
		case i == 0:
			s += fmt.Sprintf("[≤-1]:%d ", c)
		case i == len(edges):
			s += fmt.Sprintf("[>1]:%d", c)
		default:
			s += fmt.Sprintf("(%.2g,%.2g]:%d ", edges[i-1], edges[i], c)
		}
	}
	return s
}

// Fig7Scaling reproduces Figure 7: build time per million edges and table
// bits per node as k grows — motivo's predictability claim.
func Fig7Scaling(w io.Writer) {
	fmt.Fprintf(w, "== Figure 7: build seconds per 1M edges and table bits per node, k=4..7 ==\n")
	fmt.Fprintf(w, "%-15s %3s %14s %14s\n", "graph", "k", "s per Medge", "bits per node")
	for _, name := range []string{"facebook-s", "dblp-s", "livejournal-s"} {
		d, _ := ByName(name)
		g := d.Gen()
		for k := 4; k <= 7; k++ {
			if k > d.MaxK {
				continue
			}
			_, _, res := buildOnce(g, k, 401, nil)
			perMedge := res.stats.Duration.Seconds() / (float64(g.NumEdges()) / 1e6)
			bitsPerNode := float64(res.stats.TableBytes) * 8 / float64(g.NumNodes())
			fmt.Fprintf(w, "%-15s %3d %14.2f %14.0f\n", name, k, perMedge, bitsPerNode)
		}
	}
}

// SampleWorkers fans the AGS sampling of the figure reproductions out
// across this many goroutines (epoch-based; see package ags). 0 keeps the
// sequential reference behavior. The single injection point for
// cmd/experiments's -sample-workers flag, set once before any experiment
// runs (the Registry signature func(io.Writer) leaves no room to pass it
// per call); helpers take it as an explicit parameter from here on.
var SampleWorkers int

// AGSRun bundles an AGS invocation for figures 8-10.
func agsRun(g *graph.Graph, k int, seed int64, budget, cover, workers int) (*ags.Result, *coloring.Coloring) {
	col := coloring.Uniform(g.NumNodes(), k, seed)
	cat := treelet.NewCatalog(k)
	tab, _, err := build.Run(context.Background(), g, col, k, cat, build.DefaultOptions())
	if err != nil {
		panic(err)
	}
	urn, err := sample.NewUrn(g, col, tab, cat)
	if err != nil {
		panic(err)
	}
	out, err := ags.Run(context.Background(), urn, ags.Options{
		CoverThreshold: cover, Budget: budget,
		Rng:     rand.New(rand.NewSource(seed ^ 0xABCD)),
		Workers: workers,
	})
	if err != nil {
		panic(err)
	}
	return out, col
}

func naiveRun(g *graph.Graph, k int, seed int64, budget int) (estimate.Counts, map[graphlet.Code]int64) {
	col := coloring.Uniform(g.NumNodes(), k, seed)
	cat := treelet.NewCatalog(k)
	tab, _, err := build.Run(context.Background(), g, col, k, cat, build.DefaultOptions())
	if err != nil {
		panic(err)
	}
	urn, err := sample.NewUrn(g, col, tab, cat)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(seed ^ 0xBEEF))
	tallies := make(map[graphlet.Code]int64)
	for i := 0; i < budget; i++ {
		code, _ := urn.Sample(rng)
		tallies[code]++
	}
	sig := estimate.NewSigma(k)
	est, err := estimate.Naive(tallies, int64(budget), urn.Total().Float64(), sig, col.PColorful)
	if err != nil {
		panic(err)
	}
	return est, tallies
}

// Fig8ErrorDistributions reproduces Figure 8: the distribution of the
// per-graphlet count error for naive sampling (top) vs AGS (bottom).
func Fig8ErrorDistributions(w io.Writer) {
	fmt.Fprintf(w, "== Figure 8: graphlet count error distribution, naive vs AGS ==\n")
	for _, dcase := range []struct {
		ds Dataset
		k  int
	}{
		{accuracySets()[0], 4},
		{accuracySets()[0], 5},
		{accuracySets()[1], 5},
		{accuracySets()[2], 5},
	} {
		g := dcase.ds.Gen()
		truth, err := exactCount(g, dcase.k)
		if err != nil {
			panic(err)
		}
		const budget = 60000
		naiveEst := averageNaive(g, dcase.k, budget, 4)
		agsEst := averageAGS(g, dcase.k, budget, 4)
		var nerrs, aerrs []float64
		for _, e := range estimate.ErrH(naiveEst, truth) {
			nerrs = append(nerrs, e)
		}
		for _, e := range estimate.ErrH(agsEst, truth) {
			aerrs = append(aerrs, e)
		}
		fmt.Fprintf(w, "%s k=%d (%d graphlets in truth)\n", dcase.ds.Name, dcase.k, len(truth))
		fmt.Fprintf(w, "  naive: %s\n", histogram(nerrs))
		fmt.Fprintf(w, "  AGS:   %s\n", histogram(aerrs))
	}
}

func averageNaive(g *graph.Graph, k, budget, runs int) estimate.Counts {
	sum := make(estimate.Counts)
	for r := 0; r < runs; r++ {
		est, _ := naiveRun(g, k, int64(500+r), budget)
		for c, v := range est {
			sum[c] += v / float64(runs)
		}
	}
	return sum
}

func averageAGS(g *graph.Graph, k, budget, runs int) estimate.Counts {
	sum := make(estimate.Counts)
	for r := 0; r < runs; r++ {
		out, col := agsRun(g, k, int64(500+r), budget, 500, SampleWorkers)
		for c, v := range out.ColorfulEstimates {
			sum[c] += v / col.PColorful / float64(runs)
		}
	}
	return sum
}

// Fig9AccurateGraphlets reproduces Figure 9: how many graphlets are
// estimated within ±50%, absolute and as a fraction of the ground-truth
// support, for naive sampling vs AGS.
func Fig9AccurateGraphlets(w io.Writer) {
	fmt.Fprintf(w, "== Figure 9: graphlets within ±50%% of ground truth ==\n")
	fmt.Fprintf(w, "%-10s %3s %8s | %14s %14s\n", "graph", "k", "truth", "naive", "AGS")
	for _, dcase := range []struct {
		ds Dataset
		k  int
	}{
		{accuracySets()[0], 4},
		{accuracySets()[0], 5},
		{accuracySets()[1], 4},
		{accuracySets()[1], 5},
		{accuracySets()[2], 5},
	} {
		g := dcase.ds.Gen()
		truth, err := exactCount(g, dcase.k)
		if err != nil {
			panic(err)
		}
		const budget = 60000
		nv := averageNaive(g, dcase.k, budget, 4)
		av := averageAGS(g, dcase.k, budget, 4)
		nw, total := estimate.AccurateWithin(nv, truth, 0.5)
		aw, _ := estimate.AccurateWithin(av, truth, 0.5)
		fmt.Fprintf(w, "%-10s %3d %8d | %6d (%4.0f%%) %6d (%4.0f%%)\n",
			dcase.ds.Name, dcase.k, total,
			nw, 100*float64(nw)/float64(total),
			aw, 100*float64(aw)/float64(total))
	}
}

// Fig10RarestGraphlet reproduces Figure 10: the frequency of the rarest
// graphlet appearing in ≥10 samples, naive vs AGS, on the star-dominated
// graph (the paper's Yelp: naive only ever sees the star at frequency
// ~0.999996 while AGS reaches below 1e-21).
func Fig10RarestGraphlet(w io.Writer) {
	fmt.Fprintf(w, "== Figure 10: frequency of the rarest graphlet seen in ≥10 samples ==\n")
	fmt.Fprintf(w, "%-10s %3s %14s %14s\n", "graph", "k", "naive", "AGS")
	for _, k := range []int{5, 6} {
		d, _ := ByName("yelp-s")
		g := d.Gen()
		const budget = 60000
		// Reference frequencies: AGS's own estimates (the paper likewise
		// reads frequencies off its estimates for graphs without ground
		// truth).
		out, col := agsRun(g, k, 601, budget, 1000, SampleWorkers)
		ref := make(estimate.Counts)
		for c, v := range out.ColorfulEstimates {
			ref[c] = v / col.PColorful
		}
		_, naiveTallies := naiveRun(g, k, 601, budget)
		nfreq, nok := estimate.RarestFound(naiveTallies, ref, 10)
		afreq, aok := estimate.RarestFound(out.Tallies, ref, 10)
		ns, as := "-", "-"
		if nok {
			ns = fmt.Sprintf("%.3g", nfreq)
		}
		if aok {
			as = fmt.Sprintf("%.3g", afreq)
		}
		fmt.Fprintf(w, "%-10s %3d %14s %14s   (AGS switched %d times, covered %d)\n",
			"yelp-s", k, ns, as, out.Switches, out.Covered)
	}
}
