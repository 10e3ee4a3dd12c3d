// Package core orchestrates the full motivo pipeline: coloring, build-up
// phase, sampling phase (naive or AGS), estimation, and averaging over
// independent colorings (the paper averages over γ colorings to drive the
// failure probability down exponentially, Section 2.2).
package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/build"
	"repro/internal/coloring"
	"repro/internal/estimate"
	"repro/internal/graph"
	"repro/internal/graphlet"
	"repro/internal/sample"
	"repro/internal/table"
	"repro/internal/treelet"
)

// Strategy selects the sampling algorithm.
type Strategy int

const (
	// Naive is CC-style uniform treelet sampling (Section 2.2) on top of
	// motivo's fast urn — the paper's "naive sampling" arm.
	Naive Strategy = iota
	// AGS is adaptive graphlet sampling (Section 4).
	AGS
)

func (s Strategy) String() string {
	switch s {
	case Naive:
		return "naive"
	case AGS:
		return "ags"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ParseStrategy converts a strategy name (as accepted by CLI flags) into a
// Strategy; it is the inverse of Strategy.String.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "naive":
		return Naive, nil
	case "ags":
		return AGS, nil
	}
	return 0, fmt.Errorf("core: unknown strategy %q (want naive or ags)", name)
}

// MapMode selects how a persisted table file is opened: memory-mapped
// (zero-copy, O(ms) open, page-cache residency) or loaded onto the heap.
type MapMode int

const (
	// MapAuto — the default — maps the file and falls back to the heap
	// loader where mapping is unavailable (platforms without mmap,
	// big-endian hosts). The right choice everywhere except tests that pin
	// one path.
	MapAuto MapMode = iota
	// MapOff always loads onto the heap with eager whole-file validation.
	MapOff
	// MapRequire maps or fails — for deployments where a silent fallback
	// to heap loading (and its RAM footprint) would be an outage, not a
	// convenience.
	MapRequire
)

func (m MapMode) String() string {
	switch m {
	case MapAuto:
		return "auto"
	case MapOff:
		return "off"
	case MapRequire:
		return "require"
	}
	return fmt.Sprintf("MapMode(%d)", int(m))
}

// ParseMapMode converts a mode name (as accepted by the -map CLI flag)
// into a MapMode; it is the inverse of MapMode.String.
func ParseMapMode(name string) (MapMode, error) {
	switch name {
	case "auto":
		return MapAuto, nil
	case "off":
		return MapOff, nil
	case "require":
		return MapRequire, nil
	}
	return 0, fmt.Errorf("core: unknown map mode %q (want auto, off or require)", name)
}

// ValidateCoverThreshold checks the AGS covering threshold c̄: it must be
// ≥ 1. (A zero Query.CoverThreshold is first defaulted to the paper's
// 1000.)
func ValidateCoverThreshold(c int) error {
	if c < 1 {
		return fmt.Errorf("core: cover threshold must be ≥ 1, got %d", c)
	}
	return nil
}

// MaxSampleWorkers bounds the sampling-phase worker count; beyond a few
// hundred goroutines the epoch barrier dominates and a larger value is
// almost certainly a misparsed flag.
const MaxSampleWorkers = 1024

// ValidateSampleWorkers checks the sampling-phase worker count: 0 and 1
// both mean sequential, anything up to MaxSampleWorkers fans out.
func ValidateSampleWorkers(w int) error {
	if w < 0 || w > MaxSampleWorkers {
		return fmt.Errorf("core: sample workers must be in [0, %d], got %d", MaxSampleWorkers, w)
	}
	return nil
}

// Config parameterizes a counting run (the root package re-exports it as
// motivo.Options). The zero value of every field is usable: withDefaults
// completes it to K=4, one coloring, and the sampling defaults of Query.
type Config struct {
	// K is the graphlet size (2 ≤ K ≤ treelet.MaxK). Default 4.
	K int
	// Colorings is γ, the number of independent colorings to average over
	// (≥ 1). Default 1.
	Colorings int
	// Samples is the per-coloring sampling budget. Default 100000.
	Samples int
	// Strategy selects naive sampling or AGS. Default Naive.
	Strategy Strategy
	// CoverThreshold is AGS's c̄. Default 1000.
	CoverThreshold int
	// Lambda, when > 0, enables biased coloring with this λ (Section
	// 3.4), trading accuracy for table size on large graphs; 0 means
	// uniform coloring.
	Lambda float64
	// Seed makes the whole run reproducible. Default 1.
	Seed int64
	// Workers for the build-up phase; 0 = GOMAXPROCS.
	Workers int
	// SampleWorkers parallelizes the sampling phase across urn clones
	// ("samples are by definition independent and are taken by different
	// threads", Section 3.3). ≤ 1 samples sequentially. Naive sampling
	// fans the whole budget out; AGS runs epoch-based (per-worker batches
	// merged at barriers where cover detection and the shape switch run —
	// see package ags). Runs are deterministic for a fixed Seed and
	// SampleWorkers value.
	SampleWorkers int
	// MemBudget, when > 0, runs the build-up phase in bounded-memory mode:
	// records stream to per-shard spill files as they complete, and each
	// level is merged from them into its final arena. The table is
	// bit-identical to an unbounded build at any worker count. Negative
	// values are rejected. See build.Options.MemBudget for the exact
	// semantics of the bound.
	MemBudget int64
	// MaterializeStars disables smart-star synthesis (on by default):
	// star-family records are computed by the DP and stored instead of
	// being synthesized from colored-degree summaries. Estimates and draw
	// sequences are bit-identical either way; materializing costs build
	// time and table bytes and exists for comparison and debugging.
	MaterializeStars bool
	// TablePath, when set, skips the build-up phase entirely: the count
	// table (and the coloring that produced it) is opened from a file
	// written by BuildTable or `motivo build -o` — the build-once /
	// query-many serving mode. It requires Colorings == 1 (a saved table
	// captures exactly one coloring), K equal to the table's k and Lambda
	// unset; a run with TablePath at seed s produces bit-identical
	// estimates to an in-memory run at seed s whose table was saved by
	// BuildTable.
	TablePath string
	// MapTable selects how TablePath is opened: the MapAuto zero value
	// memory-maps the file (zero-copy, O(ms) open) and falls back to heap
	// loading where mapping is unavailable. Estimates are bit-identical
	// across modes.
	MapTable MapMode
	// Epsilon and Delta request run-to-precision AGS: sample until
	// Theorem 3 certifies the estimates within relative error Epsilon at
	// confidence 1−Delta, or MaxSamples is hit. Mutually exclusive with
	// Samples; requires Strategy == AGS and Colorings == 1. The
	// certificate comes back in QueryResult.Achieved.
	Epsilon float64
	Delta   float64
	// TargetMotif restricts the certificate to one canonical motif code;
	// the zero Code certifies every tallied motif.
	TargetMotif graphlet.Code
	// MaxSamples caps a precision run (0 means ags.DefaultPrecisionCap).
	MaxSamples int
}

// withDefaults completes the zero fields: K and Colorings here, the
// sampling fields through Query.WithDefaults, so a one-shot run and an
// Engine query default alike.
func (cfg Config) withDefaults() Config {
	if cfg.K == 0 {
		cfg.K = 4
	}
	if cfg.Colorings == 0 {
		cfg.Colorings = 1
	}
	q := cfg.query().WithDefaults()
	cfg.Samples, cfg.CoverThreshold, cfg.Seed = q.Samples, q.CoverThreshold, q.Seed
	return cfg
}

// validate checks the parts of a defaulted config shared by Count,
// Signatures and BuildTable.
func (cfg Config) validate() error {
	if cfg.K < 2 || cfg.K > treelet.MaxK {
		return fmt.Errorf("core: K=%d out of range [2,%d]", cfg.K, treelet.MaxK)
	}
	if cfg.Lambda > 0 {
		if err := coloring.ValidateLambda(cfg.K, cfg.Lambda); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	return nil
}

// query maps the config's sampling knobs onto an engine query — the one
// translation shared by every mode, so the one-shot paths and a
// long-lived Engine cannot drift apart.
func (cfg Config) query() Query {
	return Query{
		Strategy:       cfg.Strategy,
		Samples:        cfg.Samples,
		CoverThreshold: cfg.CoverThreshold,
		Seed:           cfg.Seed,
		SampleWorkers:  cfg.SampleWorkers,
		Epsilon:        cfg.Epsilon,
		Delta:          cfg.Delta,
		TargetMotif:    cfg.TargetMotif,
		MaxSamples:     cfg.MaxSamples,
	}
}

// runSeed is the seed of coloring run `run` — the one deterministic seed
// schedule shared by Count, Signatures and BuildTable, so a table saved by
// BuildTable reproduces exactly the coloring Count would have built
// in-memory at the same seed.
func (cfg Config) runSeed(run int) int64 { return cfg.Seed + int64(run)*7919 }

// engine colors g for run `run`, runs the build-up phase and wraps the
// table in an engine sharing cat and sig.
func (cfg Config) engine(ctx context.Context, g *graph.Graph, run int, cat *treelet.Catalog, sig *estimate.Sigma) (*Engine, *build.Stats, error) {
	tab, col, stats, err := cfg.build(ctx, g, run, cat)
	if err != nil {
		return nil, nil, err
	}
	eng, err := newEngine(g, tab, col, cat, sig)
	if err != nil {
		return nil, nil, err
	}
	return eng, stats, nil
}

// build generates the coloring of run `run` and runs the build-up phase
// with the config's build options.
func (cfg Config) build(ctx context.Context, g *graph.Graph, run int, cat *treelet.Catalog) (*table.Table, *coloring.Coloring, *build.Stats, error) {
	var col *coloring.Coloring
	if seed := cfg.runSeed(run); cfg.Lambda > 0 {
		col = coloring.Biased(g.NumNodes(), cfg.K, cfg.Lambda, seed)
	} else {
		col = coloring.Uniform(g.NumNodes(), cfg.K, seed)
	}
	opts := build.DefaultOptions()
	opts.Workers = cfg.Workers
	opts.MemBudget = cfg.MemBudget
	opts.SmartStars = !cfg.MaterializeStars
	tab, stats, err := build.Run(ctx, g, col, cfg.K, cat, opts)
	return tab, col, stats, err
}

// openEngine opens cfg.TablePath for a one-shot run and checks it against
// the config: one saved coloring, no λ, matching k.
func (cfg Config) openEngine(g *graph.Graph) (*Engine, error) {
	if cfg.Colorings != 1 {
		return nil, fmt.Errorf("core: TablePath requires Colorings == 1 (a saved table captures one coloring), got %d", cfg.Colorings)
	}
	if cfg.Lambda > 0 {
		return nil, fmt.Errorf("core: Lambda has no effect with TablePath (the saved coloring is used); unset one")
	}
	eng, err := OpenMode(g, cfg.TablePath, cfg.MapTable)
	if err != nil {
		return nil, err
	}
	if eng.tab.K != cfg.K {
		return nil, fmt.Errorf("core: table %s was built for k=%d, run wants k=%d", cfg.TablePath, eng.tab.K, cfg.K)
	}
	return eng, nil
}

// BuildTable runs the coloring and build-up phase for run 0 of cfg and
// persists the table (arena + offset index + coloring) to path, so later
// Count calls with Config.TablePath skip the build entirely. Fields that
// only affect sampling are ignored.
func BuildTable(g *graph.Graph, cfg Config, path string) (*build.Stats, int64, error) {
	return BuildTableContext(context.Background(), g, cfg, path)
}

// BuildTableContext is BuildTable honoring a context: a canceled or
// expired ctx stops the build-up phase promptly.
func BuildTableContext(ctx context.Context, g *graph.Graph, cfg Config, path string) (*build.Stats, int64, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, 0, err
	}
	tab, col, stats, err := cfg.build(ctx, g, 0, treelet.NewCatalog(cfg.K))
	if err != nil {
		return nil, 0, err
	}
	fileBytes, err := table.SaveFile(path, tab, col)
	if err != nil {
		return nil, 0, err
	}
	return stats, fileBytes, nil
}

// Count runs the motivo pipeline on g.
func Count(g *graph.Graph, cfg Config) (*QueryResult, error) {
	return CountContext(context.Background(), g, cfg)
}

// CountContext runs the motivo pipeline on g under ctx: both the build-up
// phase and the sampling loops check the context periodically, so a
// deadline or cancellation stops the run promptly.
//
// It is a thin open-query-close over Engine: TablePath mode opens an
// engine from the file and serves one query through it; the in-memory mode
// builds one engine per coloring. Either way the sampling code path is
// Engine.Count, so a one-shot run is bit-identical to the same query
// against a long-lived engine at the same seed.
func CountContext(ctx context.Context, g *graph.Graph, cfg Config) (*QueryResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Colorings < 1 {
		return nil, fmt.Errorf("core: Colorings must be ≥ 1, got %d", cfg.Colorings)
	}
	q := cfg.query()
	if q.PrecisionMode() && cfg.Colorings != 1 {
		return nil, fmt.Errorf("core: run-to-precision requires Colorings == 1 (the certificate covers one coloring), got %d", cfg.Colorings)
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}

	if cfg.TablePath != "" {
		eng, err := cfg.openEngine(g)
		if err != nil {
			return nil, err
		}
		res, err := eng.Count(ctx, q)
		if err != nil {
			return nil, err
		}
		res.OpenTime = eng.openTime
		return res, nil
	}

	res := &QueryResult{K: cfg.K, Counts: make(estimate.Counts)}
	cat := treelet.NewCatalog(cfg.K)
	sig := estimate.NewSigma(cfg.K)
	for run := 0; run < cfg.Colorings; run++ {
		eng, stats, err := cfg.engine(ctx, g, run, cat, sig)
		if err != nil {
			return nil, err
		}
		res.BuildTime += stats.Duration
		res.BuildStats = append(res.BuildStats, stats)
		res.TableBytes = stats.TableBytes
		q.Seed = cfg.runSeed(run)
		qres, err := eng.Count(ctx, q)
		if err != nil {
			return nil, err
		}
		res.Samples += qres.Samples
		res.Covered = qres.Covered
		res.Achieved = qres.Achieved
		res.SampleTime += qres.SampleTime
		for code, v := range qres.Counts {
			res.Counts[code] += v / float64(cfg.Colorings)
		}
	}
	res.Frequencies = estimate.Frequencies(res.Counts)
	return res, nil
}

// naiveTallies draws `budget` samples across `streams` deterministic
// sampling streams (one urn clone and one derived rng per stream, seeded in
// stream order), executed on at most `workers` goroutines. Results depend
// only on (rng seed, streams), never on the physical worker count or
// goroutine scheduling: the count path passes streams == workers (the
// classic behavior, where changing SampleWorkers changes the draw
// sequence), while the signatures path pins streams so its vectors are
// bit-identical at any worker count. observe, when non-nil, receives every
// draw with its stream index and sampled vertices (scratch slice — copy to
// retain); it is never called concurrently for the same stream index. The
// context is checked every 1024 draws; on cancellation the partial tallies
// are discarded and ctx.Err() returned.
func naiveTallies(ctx context.Context, urn *sample.Urn, budget, workers, streams int, rng *rand.Rand, observe func(stream int, code graphlet.Code, nodes []int32)) (map[graphlet.Code]int64, error) {
	if streams > budget {
		// With more streams than samples the per-stream share rounds to
		// zero, which used to leave streams 0..n-2 idle while the last one
		// drew the whole budget; clamping gives every stream ≥ 1 draw.
		streams = budget
	}
	tallies := make(map[graphlet.Code]int64)
	if streams <= 1 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		i, canceled := 0, false
		urn.SampleBatch(rng, budget, func(code graphlet.Code, nodes []int32) bool {
			tallies[code]++
			if observe != nil {
				observe(0, code, nodes)
			}
			i++
			if i&1023 == 0 && ctx.Err() != nil {
				canceled = true
				return false
			}
			return true
		})
		if canceled {
			return nil, ctx.Err()
		}
		return tallies, nil
	}
	if workers < 1 {
		workers = 1
	}
	if workers > streams {
		workers = streams
	}
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	sem := make(chan struct{}, workers)
	per := budget / streams
	for w := 0; w < streams; w++ {
		n := per
		if w == streams-1 {
			n = budget - per*(streams-1)
		}
		seed := rng.Int63()
		wg.Add(1)
		go func(w, n int, seed int64) {
			defer wg.Done()
			sem <- struct{}{} // at most `workers` streams sample at once
			defer func() { <-sem }()
			clone := urn.Clone()
			local := make(map[graphlet.Code]int64)
			r := rand.New(rand.NewSource(seed))
			i, canceled := 0, false
			clone.SampleBatch(r, n, func(code graphlet.Code, nodes []int32) bool {
				local[code]++
				if observe != nil {
					observe(w, code, nodes)
				}
				i++
				if i&1023 == 0 && ctx.Err() != nil {
					canceled = true
					return false
				}
				return true
			})
			if canceled {
				return // partial stream tallies are discarded below
			}
			mu.Lock()
			for c, v := range local {
				tallies[c] += v
			}
			mu.Unlock()
		}(w, n, seed)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return tallies, nil
}
