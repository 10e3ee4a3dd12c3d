// Command e2ebench is motivo's end-to-end benchmark. It drives the program
// from outside — the public motivo API and the real HTTP server on a
// loopback socket — checks every answer, and prints one JSON result line.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash e2ebench/run.sh --workload hub-serve --seed 1 --seconds 20 --trace 0
//
// With --trace 0 a run reports the end-to-end metrics of BENCHMARK.json.
// With --trace 1 it records spans around the calls it makes into each
// module, replays single operations one module down, and reports the
// per-layer metrics instead. The last line of standard output is always
// the result object; the lines before it are a human-readable report.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool   // small inputs, for the benchmark's own tests
	scratch  string // the only directory the run writes to
	corrupt  bool   // perturb the expected answers (tests): the run must fail
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// units lists every metric a run can report. The end-to-end metrics
// (reported with --trace 0) and the per-layer metrics (--trace 1) must
// match BENCHMARK.json; the tests check both lists against it.
var endToEndUnits = map[string]string{
	"setup_s":       "s",
	"naive_p50_ms":  "ms",
	"naive_p90_ms":  "ms",
	"ags_p50_ms":    "ms",
	"ags_p90_ms":    "ms",
	"samples_per_s": "1/s",
	"queries_per_s": "1/s",
	"peak_rss_mb":   "MB",
}

var perLayerUnits = map[string]string{
	"graph.read_s":              "s",
	"build.run_s":               "s",
	"build.ns_per_checkmerge":   "ns",
	"build.checkmerge_ops":      "count",
	"table.save_s":              "s",
	"table.bytes_per_pair":      "B",
	"table.file_mb":             "MB",
	"table.open_ms":             "ms",
	"table.verify_ms":           "ms",
	"sample.urn_new_ms":         "ms",
	"ags.prepare_shapes_ms":     "ms",
	"core.open_ms":              "ms",
	"sample.clone_us":           "us",
	"sample.first_batch_ms":     "ms",
	"sample.draws_per_s":        "1/s",
	"sample.sweeps_per_draw":    "ratio",
	"graphlet.induced_ns":       "ns",
	"ags.draws_per_s":           "1/s",
	"ags.switches":              "count",
	"estimate.naive_us":         "us",
	"core.count_naive_ms":       "ms",
	"core.count_ags_ms":         "ms",
	"core.allocs_per_query":     "count",
	"registry.count_hit_us":     "us",
	"registry.count_miss_ms":    "ms",
	"registry.cache_hit_ratio":  "ratio",
	"registry.reopens_per_1k":   "count",
	"registry.evictions_per_1k": "count",
	"serve.handler_us":          "us",
	"serve.overhead_us":         "us",
	"serve.response_bytes":      "B",
	"trace.naive_p50_share":     "ratio",
	"trace.ags_p50_share":       "ratio",
	"trace.overhead_pct":        "%",
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"hub-serve":    (*bench).hubServe,
	"tenant-churn": (*bench).tenantChurn,
}

func main() {
	var (
		o     options
		trace int
	)
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "hub-serve or tenant-churn")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: generates the graphs, colorings and query stream")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the measured phase")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	fs.StringVar(&o.scratch, "scratch", ".bench_build", "directory for generated inputs, tables and trace files")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	res, err := run(o, os.Stdout)
	if res != nil {
		line, jerr := json.Marshal(res)
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", jerr)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// errIncorrect reports that the program answered at least one check wrong.
var errIncorrect = errors.New("incorrect output")

// run executes one workload. It returns a nil result when the run could
// not measure at all, and a result with Correct false together with
// errIncorrect when a check failed.
func run(o options, out io.Writer) (*result, error) {
	drive, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if !(o.seconds > 0) {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	work, err := os.MkdirTemp(o.scratch, "work-"+o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	b := &bench{
		opt:     o,
		out:     out,
		work:    work,
		sz:      sizesFor(o.tiny),
		tr:      newTracer(),
		metrics: make(map[string]metric),
		acc:     newAccum(),
	}
	b.meta = runMeta{
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
	}
	b.meta.ReferenceMs = referenceMs()
	if err := drive(b); err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	b.noteRSS("at the end of the run, checks and probes included")
	if err := b.report(); err != nil {
		return nil, err
	}
	res := &result{
		Correct:   len(b.problems) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("%s: no operation was attempted", o.workload)
	}
	if !res.Correct {
		return res, errIncorrect
	}
	return res, nil
}

// bench is the state of one run.
type bench struct {
	opt  options
	out  io.Writer
	work string
	sz   sizes
	tr   *tracer
	meta runMeta

	metrics   map[string]metric
	acc       *accum
	attempted int64
	failed    int64

	problems []string
	notes    []string
}

// set records a metric; its unit comes from the tables above.
func (b *bench) set(name string, v float64) {
	unit, ok := endToEndUnits[name]
	if b.opt.trace {
		unit, ok = perLayerUnits[name]
	}
	if !ok {
		panic("e2ebench: metric " + name + " is not declared for this mode")
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// wrong records an incorrect answer; the run then fails.
func (b *bench) wrong(format string, a ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, a...))
}

// note adds a line to the human-readable report.
func (b *bench) note(format string, a ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, a...))
}

// rng returns a generator derived from the workload seed and a stream id,
// so every consumer of randomness is reproducible on its own.
func (b *bench) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(b.opt.seed*1_000_003 + stream))
}

// report prints the run metadata, notes, failed checks and every metric,
// and writes the trace when tracing is on.
func (b *bench) report() error {
	meta, err := json.Marshal(b.meta)
	if err != nil {
		return err
	}
	fmt.Fprintf(b.out, "meta %s\n", meta)
	for _, n := range b.notes {
		fmt.Fprintln(b.out, n)
	}
	for _, p := range b.problems {
		fmt.Fprintf(b.out, "WRONG %s\n", p)
	}
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := b.metrics[n]
		fmt.Fprintf(b.out, "metric %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	att, fail := b.attempted, b.failed
	ratio := 0.0
	if att > 0 {
		ratio = float64(fail) / float64(att)
	}
	fmt.Fprintf(b.out, "failed_ratio %.6g (%d failed of %d operations attempted)\n", ratio, fail, att)
	if !b.opt.trace {
		return nil
	}
	dir := filepath.Join(b.opt.scratch, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", b.opt.workload, b.opt.seed))
	if err := b.tr.write(path, b.meta); err != nil {
		return err
	}
	fmt.Fprintf(b.out, "trace %d spans written to %s\n", b.tr.len(), path)
	return nil
}

// runMeta is recorded with every result.
type runMeta struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"goVersion"`
	CPU        string  `json:"cpu"`
	// ReferenceMs times a fixed CPU loop before the workload starts, so
	// runs on a host whose speed drifts can be told apart from runs of a
	// slower program.
	ReferenceMs float64     `json:"referenceMs"`
	Graphs      []graphMeta `json:"graphs"`
}

// graphMeta describes one input graph and its count table.
type graphMeta struct {
	Name       string `json:"name"`
	Nodes      int    `json:"n"`
	Edges      int64  `json:"m"`
	MaxDegree  int    `json:"maxDegree"`
	K          int    `json:"k"`
	TableBytes int64  `json:"tableBytes"`
}

// cpuModel reads the processor name from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM line in /proc/self/status")
}

// noteRSS reports the peak resident set so far, to show which stage of a
// run sets it.
func (b *bench) noteRSS(stage string) {
	if rss, err := peakRSSMB(); err == nil {
		b.note("peak RSS %s: %.1f MB", stage, rss)
	}
}

// referenceMs is the median time of five runs of a fixed integer loop.
func referenceMs() float64 {
	times := make([]float64, 5)
	for i := range times {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for j := 0; j < 20_000_000; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		referenceSink = x
		times[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	return median(times)
}

// referenceSink keeps the reference loop from being optimized away.
var referenceSink uint64

// since reports the time elapsed since t0 in seconds.
func since(t0 time.Time) float64 { return time.Since(t0).Seconds() }
