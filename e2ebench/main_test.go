package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests check the
// benchmark against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func tinyRun(t *testing.T, workload string, trace, corrupt bool) (*result, string, error) {
	t.Helper()
	var out bytes.Buffer
	res, err := run(options{
		workload: workload, seed: 3, seconds: 0.5, trace: trace,
		tiny: true, scratch: t.TempDir(), corrupt: corrupt,
	}, &out)
	return res, out.String(), err
}

// TestTinyRunsReportEveryMetric runs every workload of BENCHMARK.json at
// the tiny size in both modes and checks that exactly the declared
// metrics come out, each with its declared unit.
func TestTinyRunsReportEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			res, out, err := tinyRun(t, w.Name, trace, false)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.Name, trace, err, out)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d: %v", w.Name, trace, len(res.Metrics), len(want), names(res.Metrics))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, d.Name)
					continue
				}
				if m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", w.Name, trace, d.Name, m.Unit, d.Unit)
				}
				if !strings.Contains(out, "metric "+d.Name+" ") {
					t.Errorf("%s trace=%v: report does not print %s", w.Name, trace, d.Name)
				}
			}
			if trace != strings.Contains(out, "spans written to") {
				t.Errorf("%s trace=%v: trace file line present=%v", w.Name, trace, !trace)
			}
		}
	}
}

// TestCorruptedExpectedAnswerFails perturbs the exact answers the checks
// compare against: every workload must then report an incorrect run, and
// both the k-star check and the bit-for-bit comparison with a direct
// engine query must catch it.
func TestCorruptedExpectedAnswerFails(t *testing.T) {
	for name := range workloads {
		res, out, err := tinyRun(t, name, false, true)
		if !errors.Is(err, errIncorrect) {
			t.Fatalf("%s: err = %v, want errIncorrect\n%s", name, err, out)
		}
		if res == nil || res.Correct {
			t.Errorf("%s: result %+v, want correct=false", name, res)
		}
		for _, check := range []string{"k-star estimate off", "differs from a direct engine query"} {
			if !strings.Contains(out, check) {
				t.Errorf("%s: no WRONG line of the check %q\n%s", name, check, out)
			}
		}
	}
}

// TestUnitTablesMatchBenchmarkFile keeps the metric tables in step with
// BENCHMARK.json.
func TestUnitTablesMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, c := range []struct {
		mode  string
		table map[string]string
		decl  []declared
	}{{"end_to_end", endToEndUnits, bf.EndToEnd}, {"per_layer", perLayerUnits, bf.PerLayer}} {
		if len(c.table) != len(c.decl) {
			t.Errorf("%s: benchmark knows %d metrics, BENCHMARK.json declares %d", c.mode, len(c.table), len(c.decl))
		}
		for _, d := range c.decl {
			if c.table[d.Name] != d.Unit {
				t.Errorf("%s: %s has unit %q here, %q in BENCHMARK.json", c.mode, d.Name, c.table[d.Name], d.Unit)
			}
		}
	}
}

func names(m map[string]metric) []string {
	var out []string
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TestFailedOperationFailsRun checks that an operation that errors is
// counted as failed and makes the run incorrect, so a query that fails
// fast can never pass for a fast answer.
func TestFailedOperationFailsRun(t *testing.T) {
	b := &bench{metrics: make(map[string]metric), acc: newAccum()}
	b.closedLoop(0, 5, func(int) (opRecord, error) { return opRecord{}, errors.New("refused") })
	if b.attempted != 5 || b.failed != 5 {
		t.Errorf("attempted %d failed %d, want 5 and 5", b.attempted, b.failed)
	}
	if len(b.problems) != 4 {
		t.Errorf("problems %q, want three failures and a count of the rest", b.problems)
	}
}
