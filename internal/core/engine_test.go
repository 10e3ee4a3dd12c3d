package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
)

// engineFixture builds a table for g once and opens an Engine over it.
func engineFixture(t *testing.T, g *graph.Graph, k int, seed int64) (*Engine, string) {
	t.Helper()
	path := t.TempDir() + "/engine.tbl"
	if _, _, err := BuildTable(g, Config{K: k, Seed: seed}, path); err != nil {
		t.Fatal(err)
	}
	eng, err := Open(g, path)
	if err != nil {
		t.Fatal(err)
	}
	return eng, path
}

// TestEngineMatchesOneShot is the bit-identity acceptance test: an Engine
// query at seed s must equal the one-shot Count at seed s — both the
// TablePath mode (which now runs through an ephemeral engine) and the
// fully in-memory build — for both strategies.
func TestEngineMatchesOneShot(t *testing.T) {
	g := gen.ErdosRenyi(80, 240, 61)
	eng, path := engineFixture(t, g, 4, 67)
	for _, strat := range []Strategy{Naive, AGS} {
		cfg := Config{
			K: 4, Colorings: 1, Samples: 8000,
			Strategy: strat, CoverThreshold: 300, Seed: 67,
		}
		mem, err := Count(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		oneShot := cfg
		oneShot.TablePath = path
		srv, err := Count(g, oneShot)
		if err != nil {
			t.Fatal(err)
		}
		qres, err := eng.Count(context.Background(), cfg.query())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(qres.Counts, mem.Counts) {
			t.Fatalf("%v: engine query differs from in-memory one-shot Count", strat)
		}
		if !reflect.DeepEqual(qres.Counts, srv.Counts) {
			t.Fatalf("%v: engine query differs from one-shot Count(TablePath)", strat)
		}
		if qres.Samples != mem.Samples || qres.Covered != mem.Covered {
			t.Fatalf("%v: sampling trajectory differs (%d/%d samples, %d/%d covered)",
				strat, qres.Samples, mem.Samples, qres.Covered, mem.Covered)
		}
	}
}

// TestEngineConcurrentQueries hammers one engine from many goroutines with
// mixed naive/AGS queries (run under -race in CI) and asserts every result
// is bit-identical to a fresh one-shot Count at the same seed — the
// clone-per-query architecture must not let concurrent queries interfere.
func TestEngineConcurrentQueries(t *testing.T) {
	g := gen.ErdosRenyi(70, 210, 83)
	eng, path := engineFixture(t, g, 4, 89)

	type job struct {
		strat   Strategy
		seed    int64
		workers int
	}
	var jobs []job
	for i := 0; i < 4; i++ {
		// Mixed strategies, distinct seeds, sequential and parallel
		// sampling — every combination shares the one master urn.
		jobs = append(jobs,
			job{Naive, int64(100 + i), 0},
			job{AGS, int64(200 + i), 0},
			job{Naive, int64(300 + i), 3},
			job{AGS, int64(400 + i), 3},
		)
	}
	want := make([]*QueryResult, len(jobs))
	for i, j := range jobs {
		cfg := Config{
			K: 4, Colorings: 1, Samples: 4000,
			Strategy: j.strat, CoverThreshold: 200,
			Seed: j.seed, SampleWorkers: j.workers, TablePath: path,
		}
		res, err := Count(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	var wg sync.WaitGroup
	errs := make([]error, len(jobs))
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			qres, err := eng.Count(context.Background(), Query{
				Strategy: j.strat, Samples: 4000, CoverThreshold: 200,
				Seed: j.seed, SampleWorkers: j.workers,
			})
			if err != nil {
				errs[i] = err
				return
			}
			if !reflect.DeepEqual(qres.Counts, want[i].Counts) {
				errs[i] = fmt.Errorf("job %d (%v seed %d workers %d): concurrent engine query differs from one-shot Count",
					i, j.strat, j.seed, j.workers)
			}
		}(i, j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestEngineQueryValidation exercises the per-query error paths.
func TestEngineQueryValidation(t *testing.T) {
	g := gen.ErdosRenyi(50, 150, 71)
	eng, _ := engineFixture(t, g, 4, 3)
	ctx := context.Background()
	cases := []Query{
		{Samples: -1},                         // negative budget
		{Samples: 10, SampleWorkers: -1},      // bad workers
		{Samples: 10, CoverThreshold: -2},     // bad c̄
		{Samples: 10, Strategy: Strategy(99)}, // unknown strategy
	}
	for i, q := range cases {
		if _, err := eng.Count(ctx, q); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestEngineOpenValidation exercises the engine construction error paths.
func TestEngineOpenValidation(t *testing.T) {
	g := gen.ErdosRenyi(50, 150, 71)
	_, path := engineFixture(t, g, 4, 3)
	if _, err := Open(g, path+".missing"); err == nil {
		t.Error("missing file: expected error")
	}
	// Same table, wrong graph.
	other := gen.ErdosRenyi(40, 120, 73)
	if _, err := Open(other, path); err == nil {
		t.Error("node-count mismatch: expected error")
	}
}

// TestEngineCancellation asserts a canceled context returns promptly from
// every sampling configuration, and that a mid-flight cancel of a large
// query aborts it instead of draining the full budget.
func TestEngineCancellation(t *testing.T) {
	g := gen.ErdosRenyi(80, 240, 97)
	eng, _ := engineFixture(t, g, 4, 101)

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, q := range []Query{
		{Strategy: Naive, Samples: 100000},
		{Strategy: Naive, Samples: 100000, SampleWorkers: 4},
		{Strategy: AGS, Samples: 100000},
		{Strategy: AGS, Samples: 100000, SampleWorkers: 4},
	} {
		if _, err := eng.Count(canceled, q); err != context.Canceled {
			t.Errorf("%v workers=%d: want context.Canceled, got %v", q.Strategy, q.SampleWorkers, err)
		}
	}

	// Mid-flight: cancel shortly after the query starts; a 50M-draw budget
	// would run for minutes if cancellation did not cut the loop short.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := eng.Count(ctx, Query{Strategy: Naive, Samples: 50_000_000})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Errorf("mid-flight cancel: want context.Canceled, got %v", err)
		}
		if d := time.Since(start); d > 10*time.Second {
			t.Errorf("cancellation took %v, not prompt", d)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled query did not return")
	}
}

// TestCountContextCancelsBuild asserts cancellation cuts the build-up
// phase short through the public pipeline entry point.
func TestCountContextCancelsBuild(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := gen.ErdosRenyi(80, 240, 23)
	if _, err := CountContext(ctx, g, Config{K: 4, Colorings: 1, Samples: 100, Seed: 29}); err != context.Canceled {
		t.Errorf("want context.Canceled, got %v", err)
	}
	if _, _, err := BuildTableContext(ctx, g, Config{K: 4, Seed: 29}, t.TempDir()+"/x.tbl"); err != context.Canceled {
		t.Errorf("BuildTableContext: want context.Canceled, got %v", err)
	}
}

// TestNaiveWorkerClampOverBudget pins the degenerate-split fix: with more
// workers than samples the effective worker count clamps to the budget, so
// the run equals workers == budget exactly and the load is spread instead
// of one worker drawing everything.
func TestNaiveWorkerClampOverBudget(t *testing.T) {
	g := gen.ErdosRenyi(60, 180, 31)
	eng, _ := engineFixture(t, g, 4, 37)
	ctx := context.Background()
	over, err := eng.Count(ctx, Query{Strategy: Naive, Samples: 5, SampleWorkers: 64, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	clamped, err := eng.Count(ctx, Query{Strategy: Naive, Samples: 5, SampleWorkers: 5, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(over.Counts, clamped.Counts) {
		t.Fatal("workers > budget must behave exactly like workers == budget")
	}
	if over.Samples != 5 {
		t.Fatalf("samples = %d, want 5", over.Samples)
	}
}

// TestResultOpenTime pins the OpenTime/BuildTime split: a TablePath run
// reports its table open under OpenTime with BuildTime zero, an in-memory
// run the reverse.
func TestResultOpenTime(t *testing.T) {
	g := gen.ErdosRenyi(60, 180, 41)
	path := t.TempDir() + "/t.tbl"
	if _, _, err := BuildTable(g, Config{K: 4, Seed: 43}, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Count(g, Config{K: 4, Colorings: 1, Samples: 500, Seed: 43, TablePath: path})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.OpenTime <= 0 || loaded.BuildTime != 0 {
		t.Errorf("TablePath run: OpenTime=%v BuildTime=%v, want open>0 build=0", loaded.OpenTime, loaded.BuildTime)
	}
	mem, err := Count(g, Config{K: 4, Colorings: 1, Samples: 500, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if mem.BuildTime <= 0 || mem.OpenTime != 0 {
		t.Errorf("in-memory run: OpenTime=%v BuildTime=%v, want build>0 open=0", mem.OpenTime, mem.BuildTime)
	}
}
