package core

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/gen"
)

// Smart-star synthesis must be invisible to every estimator: the same
// config with MaterializeStars toggled must produce bit-identical float
// estimates, because the synthesized records are entry-identical to the
// materialized ones and every RNG consumption point is unchanged.

func smartVsMaterialized(t *testing.T, cfg Config) {
	t.Helper()
	g := gen.ErdosRenyi(150, 600, 211)
	smart, err := Count(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaterializeStars = true
	mat, err := Count(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(smart.Counts) == 0 {
		t.Fatal("no graphlets estimated")
	}
	if !reflect.DeepEqual(smart.Counts, mat.Counts) {
		t.Fatalf("smart and materialized estimates differ:\nsmart: %v\nmat:   %v", smart.Counts, mat.Counts)
	}
	if !reflect.DeepEqual(smart.Frequencies, mat.Frequencies) {
		t.Fatal("smart and materialized frequencies differ")
	}
	if smart.Samples != mat.Samples || smart.Covered != mat.Covered {
		t.Fatalf("run shape differs: samples %d/%d, covered %d/%d",
			smart.Samples, mat.Samples, smart.Covered, mat.Covered)
	}
}

func TestSmartStarsBitIdenticalNaive(t *testing.T) {
	smartVsMaterialized(t, Config{
		K: 5, Colorings: 1, Samples: 4000, Seed: 99,
	})
}

func TestSmartStarsBitIdenticalAGS(t *testing.T) {
	smartVsMaterialized(t, Config{
		K: 5, Colorings: 1, Samples: 4000, Seed: 99,
		Strategy: AGS, CoverThreshold: 50,
	})
}

func TestSmartStarsBitIdenticalParallel(t *testing.T) {
	smartVsMaterialized(t, Config{
		K: 4, Colorings: 2, Samples: 3000, Seed: 7,
		SampleWorkers: 4,
	})
}

// TestSmartStarsBitIdenticalPersisted closes the loop across the persistent
// format: a smart table built by BuildTable and queried through TablePath
// (i.e. a long-lived Engine over MvT3 + AttachGraph) must reproduce the
// materialized in-memory run bit for bit.
func TestSmartStarsBitIdenticalPersisted(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 5)
	cfg := Config{K: 5, Colorings: 1, Samples: 3000, Seed: 31, Strategy: AGS, CoverThreshold: 40}

	path := filepath.Join(t.TempDir(), "smart.tbl")
	if _, _, err := BuildTable(g, cfg, path); err != nil {
		t.Fatal(err)
	}
	persisted := cfg
	persisted.TablePath = path
	viaFile, err := Count(g, persisted)
	if err != nil {
		t.Fatal(err)
	}
	mat := cfg
	mat.MaterializeStars = true
	inMem, err := Count(g, mat)
	if err != nil {
		t.Fatal(err)
	}
	if len(viaFile.Counts) == 0 {
		t.Fatal("no graphlets estimated")
	}
	if !reflect.DeepEqual(viaFile.Counts, inMem.Counts) {
		t.Fatal("persisted smart run differs from materialized in-memory run")
	}
}
