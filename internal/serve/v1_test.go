package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/registry"
)

// testV1Server builds a two-graph registry server: "alpha" (k=4) and
// "beta" (k=3), with a result cache.
func testV1Server(t *testing.T, cfg Config) (*Server, *registry.Registry) {
	t.Helper()
	reg := registry.New(registry.Config{CacheSize: 16})
	gA := gen.ErdosRenyi(60, 150, 3)
	pA := t.TempDir() + "/alpha.tbl"
	if _, _, err := core.BuildTable(gA, core.Config{K: 4, Seed: 5}, pA); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Open("alpha", gA, pA); err != nil {
		t.Fatal(err)
	}
	gB := gen.ErdosRenyi(50, 120, 9)
	pB := t.TempDir() + "/beta.tbl"
	if _, _, err := core.BuildTable(gB, core.Config{K: 3, Seed: 7}, pB); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Open("beta", gB, pB); err != nil {
		t.Fatal(err)
	}
	cfg.Registry = reg
	return New(cfg), reg
}

// TestV1CountPerGraph: each named graph answers with its own table, the
// response names the graph, and /v1 responses carry Cache-Control:
// no-store so intermediaries never cache seeded results.
func TestV1CountPerGraph(t *testing.T) {
	srv, _ := testV1Server(t, Config{})
	for _, tc := range []struct {
		graph string
		k     int
	}{{"alpha", 4}, {"beta", 3}} {
		var resp CountResponse
		w := doJSON(t, srv, http.MethodPost, "/v1/graphs/"+tc.graph+"/count", `{"samples":2000,"seed":17}`, &resp)
		if w.Code != http.StatusOK {
			t.Fatalf("POST %s count = %d: %s", tc.graph, w.Code, w.Body.String())
		}
		if resp.Graph != tc.graph || resp.K != tc.k || len(resp.Counts) == 0 {
			t.Fatalf("%s response: graph=%q k=%d counts=%d", tc.graph, resp.Graph, resp.K, len(resp.Counts))
		}
		if cc := w.Header().Get("Cache-Control"); cc != "no-store" {
			t.Fatalf("Cache-Control = %q, want no-store", cc)
		}
	}
}

// TestV1ErrorCodes: every v1 error carries a stable machine-readable
// code alongside the human-readable message.
func TestV1ErrorCodes(t *testing.T) {
	srv, _ := testV1Server(t, Config{})
	cases := []struct {
		method, target, body string
		status               int
		code                 string
	}{
		{http.MethodPost, "/v1/graphs/nope/count", `{"samples":100}`, http.StatusNotFound, "unknown_graph"},
		{http.MethodPost, "/v1/graphs/alpha/count", `{not json`, http.StatusBadRequest, "bad_request"},
		{http.MethodPost, "/v1/graphs/alpha/count", `{"samples":-4}`, http.StatusBadRequest, "bad_request"},
		{http.MethodGet, "/v1/graphs/alpha/count", "", http.StatusMethodNotAllowed, "bad_request"},
		{http.MethodPost, "/v1/batch", `{"graph":"nope","queries":[{}]}`, http.StatusNotFound, "unknown_graph"},
		{http.MethodPost, "/v1/batch", `{"graph":"alpha","queries":[]}`, http.StatusBadRequest, "bad_request"},
		{http.MethodGet, "/v1/batch", "", http.StatusMethodNotAllowed, "bad_request"},
		{http.MethodPost, "/v1/graphs", "", http.StatusMethodNotAllowed, "bad_request"},
	}
	for _, tc := range cases {
		w := doJSON(t, srv, tc.method, tc.target, tc.body, nil)
		if w.Code != tc.status {
			t.Errorf("%s %s = %d, want %d (%s)", tc.method, tc.target, w.Code, tc.status, w.Body.String())
			continue
		}
		var e errorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" || e.Code != tc.code {
			t.Errorf("%s %s error body: %s (want code %q)", tc.method, tc.target, w.Body.String(), tc.code)
		}
		if cc := w.Header().Get("Cache-Control"); cc != "no-store" {
			t.Errorf("%s %s: error responses must be no-store too, got %q", tc.method, tc.target, cc)
		}
	}
}

// TestV1CacheHitByteIdentical is the acceptance property of the result
// cache: a repeated explicitly-seeded query is served from the cache (the
// hit visible in /metrics) and its response is byte-identical to the cold
// one.
func TestV1CacheHitByteIdentical(t *testing.T) {
	srv, _ := testV1Server(t, Config{})
	body := `{"strategy":"ags","samples":3000,"seed":23,"coverThreshold":200}`
	w1 := doJSON(t, srv, http.MethodPost, "/v1/graphs/alpha/count", body, nil)
	if w1.Code != http.StatusOK {
		t.Fatalf("cold query = %d: %s", w1.Code, w1.Body.String())
	}
	if xc := w1.Header().Get("X-Cache"); xc != "miss" {
		t.Fatalf("cold query X-Cache = %q", xc)
	}
	w2 := doJSON(t, srv, http.MethodPost, "/v1/graphs/alpha/count", body, nil)
	if w2.Code != http.StatusOK {
		t.Fatalf("warm query = %d", w2.Code)
	}
	if xc := w2.Header().Get("X-Cache"); xc != "hit" {
		t.Fatalf("warm query X-Cache = %q", xc)
	}
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatal("cache hit response differs byte-for-byte from the cold response")
	}
	metrics := doJSON(t, srv, http.MethodGet, "/metrics", "", nil)
	if metrics.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", metrics.Code)
	}
	text := metrics.Body.String()
	for _, want := range []string{
		"motivo_result_cache_hits_total 1",
		"motivo_result_cache_misses_total 1",
		"motivo_queries_total 2",
		"motivo_samples_total 3000", // the hit drew nothing
		`motivo_graph_queries_total{graph="alpha"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// TestV1UnseededBypassesCache: a query without an explicit seed never
// touches the result cache.
func TestV1UnseededBypassesCache(t *testing.T) {
	srv, reg := testV1Server(t, Config{})
	body := `{"samples":1000}`
	for i := 0; i < 2; i++ {
		if w := doJSON(t, srv, http.MethodPost, "/v1/graphs/alpha/count", body, nil); w.Code != http.StatusOK {
			t.Fatalf("query %d = %d", i, w.Code)
		}
	}
	st := reg.Stats()
	if st.CacheHits != 0 || st.CacheMisses != 0 || st.CacheEntries != 0 {
		t.Fatalf("unseeded queries touched the cache: %+v", st)
	}
	if st.Samples != 2000 {
		t.Fatalf("both unseeded runs must sample afresh: %+v", st)
	}
}

// TestV1Batch: a mixed batch answers per entry — bad entries carry their
// own error + code without failing the batch, and a valid entry's counts
// are identical to the same query on the single-count endpoint.
func TestV1Batch(t *testing.T) {
	srv, _ := testV1Server(t, Config{})
	batch := `{"graph":"alpha","queries":[
		{"samples":2000,"seed":31},
		{"samples":-5},
		{"strategy":"quantum"},
		{"strategy":"ags","samples":1500,"seed":7,"coverThreshold":100}
	]}`
	var resp BatchResponse
	w := doJSON(t, srv, http.MethodPost, "/v1/batch", batch, &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("POST /v1/batch = %d: %s", w.Code, w.Body.String())
	}
	if resp.Graph != "alpha" || len(resp.Results) != 4 {
		t.Fatalf("batch response shape: graph=%q results=%d", resp.Graph, len(resp.Results))
	}
	if r := resp.Results[0]; r.Count == nil || r.Error != "" || r.Count.K != 4 {
		t.Fatalf("entry 0 (valid): %+v", r)
	}
	if r := resp.Results[1]; r.Count != nil || !strings.Contains(r.Error, "samples must be ≥ 1") || r.Code != "bad_request" {
		t.Fatalf("entry 1 (bad samples): %+v", r)
	}
	if r := resp.Results[2]; r.Count != nil || !strings.Contains(r.Error, "unknown strategy") || r.Code != "bad_request" {
		t.Fatalf("entry 2 (bad strategy): %+v", r)
	}
	if r := resp.Results[3]; r.Count == nil || r.Count.Strategy != "ags" {
		t.Fatalf("entry 3 (ags): %+v", r)
	}
	// Entry 0 must agree exactly with the single-count endpoint at the
	// same seed (modulo the graph label and timing field).
	var single CountResponse
	if w := doJSON(t, srv, http.MethodPost, "/v1/graphs/alpha/count", `{"samples":2000,"seed":31}`, &single); w.Code != http.StatusOK {
		t.Fatalf("single count = %d", w.Code)
	}
	got, want := resp.Results[0].Count.Counts, single.Counts
	if len(got) != len(want) {
		t.Fatalf("batch entry served %d estimates, single endpoint %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("estimate %d differs between batch and single endpoint: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestV1BatchDefaultGraph: an empty graph field falls back to the
// server's default graph.
func TestV1BatchDefaultGraph(t *testing.T) {
	srv, _ := testV1Server(t, Config{DefaultGraph: "beta"})
	var resp BatchResponse
	w := doJSON(t, srv, http.MethodPost, "/v1/batch", `{"queries":[{"samples":500,"seed":3}]}`, &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("POST /v1/batch = %d: %s", w.Code, w.Body.String())
	}
	if resp.Graph != "beta" || resp.Results[0].Count == nil || resp.Results[0].Count.K != 3 {
		t.Fatalf("default-graph batch: %+v", resp)
	}
}

// TestV1Graphs lists both graphs with residency and shape metadata.
func TestV1Graphs(t *testing.T) {
	srv, _ := testV1Server(t, Config{})
	var resp GraphsResponse
	w := doJSON(t, srv, http.MethodGet, "/v1/graphs", "", &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /v1/graphs = %d", w.Code)
	}
	if len(resp.Graphs) != 2 || resp.Graphs[0].Name != "alpha" || resp.Graphs[1].Name != "beta" {
		t.Fatalf("graph list: %+v", resp.Graphs)
	}
	if g := resp.Graphs[0]; !g.Resident || g.K != 4 || g.Nodes != 60 || g.TableBytes <= 0 || g.OpenMs <= 0 {
		t.Fatalf("alpha info: %+v", g)
	}
	if g := resp.Graphs[1]; g.K != 3 || g.Opens != 1 {
		t.Fatalf("beta info: %+v", g)
	}
}

// TestMaxInflight429: beyond the in-flight limit the server answers 429
// with a Retry-After header and code "overloaded" (on count and batch
// alike), and recovers once a slot frees up.
func TestMaxInflight429(t *testing.T) {
	srv, _ := testV1Server(t, Config{MaxInflight: 1})
	// Occupy the only admission slot deterministically.
	srv.inflight <- struct{}{}
	for _, target := range []string{"/v1/graphs/alpha/count", "/v1/batch"} {
		body := `{"samples":100}`
		if target == "/v1/batch" {
			body = `{"graph":"alpha","queries":[{"samples":100}]}`
		}
		w := doJSON(t, srv, http.MethodPost, target, body, nil)
		if w.Code != http.StatusTooManyRequests {
			t.Fatalf("POST %s at capacity = %d, want 429", target, w.Code)
		}
		if w.Header().Get("Retry-After") == "" {
			t.Fatalf("%s: 429 without Retry-After", target)
		}
		var e errorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Code != "overloaded" {
			t.Fatalf("%s: 429 body %s", target, w.Body.String())
		}
	}
	if got := srv.rejected.Load(); got != 2 {
		t.Fatalf("rejected counter = %d, want 2", got)
	}
	metrics := doJSON(t, srv, http.MethodGet, "/metrics", "", nil)
	if !strings.Contains(metrics.Body.String(), "motivo_rejected_total 2") {
		t.Fatal("/metrics missing the rejection counter")
	}
	// Release the slot: requests flow again.
	<-srv.inflight
	if w := doJSON(t, srv, http.MethodPost, "/v1/graphs/alpha/count", `{"samples":100}`, nil); w.Code != http.StatusOK {
		t.Fatalf("after release = %d", w.Code)
	}
}

// TestV1EvictionAndReopen: with a tiny memory budget only one engine
// stays resident; querying the evicted graph transparently reopens it
// through the HTTP path.
func TestV1EvictionAndReopen(t *testing.T) {
	reg := registry.New(registry.Config{MemBudget: 1})
	gA := gen.ErdosRenyi(40, 90, 3)
	pA := t.TempDir() + "/a.tbl"
	if _, _, err := core.BuildTable(gA, core.Config{K: 4, Seed: 5}, pA); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Open("a", gA, pA); err != nil {
		t.Fatal(err)
	}
	gB := gen.ErdosRenyi(40, 90, 7)
	pB := t.TempDir() + "/b.tbl"
	if _, _, err := core.BuildTable(gB, core.Config{K: 4, Seed: 9}, pB); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Open("b", gB, pB); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Registry: reg})
	var graphs GraphsResponse
	doJSON(t, srv, http.MethodGet, "/v1/graphs", "", &graphs)
	residentCount := 0
	for _, g := range graphs.Graphs {
		if g.Resident {
			residentCount++
		}
	}
	if residentCount != 1 {
		t.Fatalf("budget of 1 byte should keep exactly one engine resident, got %d", residentCount)
	}
	// Query the evicted graph ("a" lost to "b"'s later open): it reopens.
	var resp CountResponse
	w := doJSON(t, srv, http.MethodPost, "/v1/graphs/a/count", `{"samples":500,"seed":3}`, &resp)
	if w.Code != http.StatusOK || resp.K != 4 {
		t.Fatalf("evicted graph query = %d (%s)", w.Code, w.Body.String())
	}
	metrics := doJSON(t, srv, http.MethodGet, "/metrics", "", nil)
	if !strings.Contains(metrics.Body.String(), `motivo_graph_opens_total{graph="a"} 2`) {
		t.Fatalf("expected a reload of graph a in /metrics:\n%s", metrics.Body.String())
	}
}
