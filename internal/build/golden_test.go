package build_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/build"
	"repro/internal/coloring"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/treelet"
)

// goldenTables holds the SHA-256 of the serialized table of every
// (graph, stars, rooting) cell of TestBuildGolden. The digests were
// recorded from the in-RAM level pass the sharded pass replaced, so they
// pin the table bytes to that reference rather than to the pass under
// test.
var goldenTables = map[string]string{
	"ba/smart=false/zero=false":    "eddda00e909afdf6cd82939bf2fa2ca0b6d95388961c7fd7fc9588f3ec71eaf3",
	"ba/smart=false/zero=true":     "192c84639ff0be935784b0fabd57e50f2097357276f3cf43714ad9482154b63e",
	"ba/smart=true/zero=false":     "47dd20640272a0133f5212619df2b8709bd354a59f87c985e5e261cb29b9b42d",
	"ba/smart=true/zero=true":      "e704d5668b841c0ca04d56342974738368976f871af7ce6043f63c5a17a91851",
	"er/smart=false/zero=false":    "4c031d04e47a601ae4154c7265eafe849bf9c789d5c103a3e20e022a3d88f1f9",
	"er/smart=false/zero=true":     "5bd100b439eb60de92684a59d5bda33e1b34bacf42302d7cf66ce70463214ca9",
	"er/smart=true/zero=false":     "3de12fe3e6b5749239ce456cce220bbe238b65cd8f27e8dc9484ce8bc5f9e8f1",
	"er/smart=true/zero=true":      "2e8b803247e0bafcf13ba4e749edc2c567e3422cb97723758374167b275ad00d",
	"path6/smart=false/zero=false": "be9c4d6212035128c0219ef24df87a8bd3a906ce7ce9910d6f1add69a9d9f0ef",
	"path6/smart=false/zero=true":  "9dd27a2f77ed6b0510a400c8ce620cdda3e18fb108589b6a13c1fbfe446e7e58",
	"path6/smart=true/zero=false":  "0c94df3739a4f3444bc763e8752380ba37f057fe970a29e638e5a01b5cd77c08",
	"path6/smart=true/zero=true":   "a914048292848cceae9057152a30ade77cd0b85ed44f0fe42d60f2c9650e625b",
}

// goldenGraphs are the matrix graphs: a hub-heavy BA graph, an ER graph,
// and a path with fewer nodes than the pass has shards.
func goldenGraphs() []struct {
	name string
	g    *graph.Graph
	k    int
} {
	return []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"ba", gen.BarabasiAlbert(400, 3, 11), 5},
		{"er", gen.ErdosRenyi(120, 500, 17), 5},
		{"path6", gen.Path(6), 4},
	}
}

// TestBuildGolden is the build's byte-identity matrix: every combination
// of star mode, memory budget, worker count and 0-rooting must serialize
// to the recorded digest of its (graph, stars, rooting) cell. Budget and
// workers change where records transit — RAM or spill files, which
// goroutine, which shard — never the table.
func TestBuildGolden(t *testing.T) {
	budgets := []struct {
		name     string
		budget   int64
		spillDir bool
	}{
		{"unbounded", 0, false},
		{"budget32MiB+dir", 32 << 20, true},
		{"budget1B", 1, false},
	}
	for _, gr := range goldenGraphs() {
		col := coloring.Uniform(gr.g.NumNodes(), gr.k, 13)
		cat := treelet.NewCatalog(gr.k)
		for _, smart := range []bool{true, false} {
			for _, zero := range []bool{true, false} {
				cell := fmt.Sprintf("%s/smart=%v/zero=%v", gr.name, smart, zero)
				for _, bud := range budgets {
					for _, workers := range []int{1, 4} {
						opts := build.DefaultOptions()
						opts.SmartStars = smart
						opts.ZeroRooted = zero
						opts.MemBudget = bud.budget
						opts.Workers = workers
						if bud.spillDir {
							opts.SpillDir = t.TempDir()
						}
						tab, stats, err := build.Run(context.Background(), gr.g, col, gr.k, cat, opts)
						if err != nil {
							t.Fatalf("%s %s workers=%d: %v", cell, bud.name, workers, err)
						}
						sum := sha256.Sum256(tableBytes(t, tab, col))
						if got := hex.EncodeToString(sum[:]); got != goldenTables[cell] {
							t.Errorf("%s %s workers=%d: digest %s, want %s", cell, bud.name, workers, got, goldenTables[cell])
						}
						if spilled := stats.SpillBytes > 0; spilled != (bud.budget > 0 && stats.Pairs > 0) {
							t.Errorf("%s %s workers=%d: SpillBytes=%d with budget %d", cell, bud.name, workers, stats.SpillBytes, bud.budget)
						}
					}
				}
			}
		}
	}
}
