package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphlet"
	"repro/internal/registry"
)

func testServer(t *testing.T) (*Server, *graph.Graph, string) {
	t.Helper()
	g := gen.ErdosRenyi(70, 210, 11)
	path := t.TempDir() + "/serve.tbl"
	if _, _, err := core.BuildTable(g, core.Config{K: 4, Seed: 13}, path); err != nil {
		t.Fatal(err)
	}
	reg := registry.New(registry.Config{CacheSize: 64})
	if _, err := reg.Open("default", g, path); err != nil {
		t.Fatal(err)
	}
	return New(Config{Registry: reg}), g, path
}

// countPath is the count endpoint of the graph testServer registers.
const countPath = "/v1/graphs/default/count"

func doJSON(t *testing.T, srv *Server, method, target, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, target, nil)
	} else {
		r = httptest.NewRequest(method, target, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	if out != nil && w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: bad JSON response: %v\n%s", method, target, err, w.Body.String())
		}
	}
	return w
}

// TestCountEndpoint serves naive and AGS queries through the handler and
// asserts the JSON estimates equal a one-shot Count at the same seed — the
// HTTP layer must not perturb the engine's bit-identical results.
func TestCountEndpoint(t *testing.T) {
	srv, g, path := testServer(t)
	for _, tc := range []struct {
		body  string
		strat core.Strategy
	}{
		{`{"strategy":"naive","samples":4000,"seed":17}`, core.Naive},
		{`{"strategy":"ags","samples":4000,"seed":17,"coverThreshold":200,"sampleWorkers":2}`, core.AGS},
	} {
		var resp CountResponse
		w := doJSON(t, srv, http.MethodPost, countPath, tc.body, &resp)
		if w.Code != http.StatusOK {
			t.Fatalf("POST %s = %d: %s", countPath, w.Code, w.Body.String())
		}
		cfg := core.Config{
			K: 4, Colorings: 1, Samples: 4000,
			Strategy: tc.strat, CoverThreshold: 200, Seed: 17,
			TablePath: path,
		}
		if tc.strat == core.AGS {
			cfg.SampleWorkers = 2
		}
		want, err := core.Count(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if resp.K != 4 || resp.Strategy != tc.strat.String() {
			t.Errorf("resp header: k=%d strategy=%q", resp.K, resp.Strategy)
		}
		if len(resp.Counts) != len(want.Counts) {
			t.Fatalf("%v: %d estimates served, one-shot has %d", tc.strat, len(resp.Counts), len(want.Counts))
		}
		got := make(map[string]float64, len(resp.Counts))
		for _, e := range resp.Counts {
			got[e.Code] = e.Count
		}
		for code, v := range want.Counts {
			if got[code.String()] != v {
				t.Errorf("%v: estimate for %v differs: served %v, one-shot %v",
					tc.strat, code, got[code.String()], v)
			}
		}
	}
}

// TestCountEndpointTop asserts the top-N truncation keeps the largest
// estimates in order.
func TestCountEndpointTop(t *testing.T) {
	srv, _, _ := testServer(t)
	var resp CountResponse
	w := doJSON(t, srv, http.MethodPost, countPath, `{"samples":3000,"seed":5,"top":2}`, &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("POST %s = %d", countPath, w.Code)
	}
	if len(resp.Counts) != 2 {
		t.Fatalf("top=2 served %d estimates", len(resp.Counts))
	}
	if resp.Counts[0].Count < resp.Counts[1].Count {
		t.Error("estimates not sorted largest-first")
	}
	if resp.Counts[0].Description == "" {
		t.Error("estimate description empty")
	}
}

// TestCountEndpointEmptyBody: every request field is optional, so an empty
// body runs the all-defaults query instead of failing on io.EOF — and the
// defaults are the engine's own: the served estimates equal a zero
// core.Query answered by the engine directly.
func TestCountEndpointEmptyBody(t *testing.T) {
	srv, g, path := testServer(t)
	var resp CountResponse
	w := doJSON(t, srv, http.MethodPost, countPath, "", &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("empty-body POST %s = %d: %s", countPath, w.Code, w.Body.String())
	}
	if resp.Samples != 100000 || resp.Strategy != "naive" {
		t.Errorf("defaults not applied: samples=%d strategy=%q", resp.Samples, resp.Strategy)
	}
	eng, err := core.Open(g, path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Count(context.Background(), core.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Counts) != len(want.Counts) {
		t.Fatalf("%d estimates served, engine has %d", len(resp.Counts), len(want.Counts))
	}
	for _, e := range resp.Counts {
		code, err := graphlet.ParseCode(e.Code)
		if err != nil {
			t.Fatal(err)
		}
		if e.Count != want.Counts[code] {
			t.Errorf("estimate for %s: served %v, engine default query %v", e.Code, e.Count, want.Counts[code])
		}
	}
}

// TestCountEndpointErrors exercises the HTTP error mapping.
func TestCountEndpointErrors(t *testing.T) {
	srv, _, _ := testServer(t)
	cases := []struct {
		method, body string
		want         int
	}{
		{http.MethodGet, "", http.StatusMethodNotAllowed},
		{http.MethodPost, "{not json", http.StatusBadRequest},
		{http.MethodPost, `{"strategy":"exhaustive"}`, http.StatusBadRequest},
		{http.MethodPost, `{"samples":-5}`, http.StatusBadRequest},
		{http.MethodPost, `{"sampleWorkers":-1}`, http.StatusBadRequest},
		{http.MethodPost, `{"unknownField":1}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		w := doJSON(t, srv, tc.method, countPath, tc.body, nil)
		if w.Code != tc.want {
			t.Errorf("%s %s %q = %d, want %d", tc.method, countPath, tc.body, w.Code, tc.want)
		}
		var e errorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s %s %q: error body not JSON: %s", tc.method, countPath, tc.body, w.Body.String())
		}
	}
}

// TestHealthz asserts the liveness probe answers.
func TestHealthz(t *testing.T) {
	srv, _, _ := testServer(t)
	if w := doJSON(t, srv, http.MethodGet, "/healthz", "", nil); w.Code != http.StatusOK {
		t.Fatalf("GET /healthz = %d", w.Code)
	}
}

// TestCountRequestRejections is the table-driven hardening pass over the
// count decoder: malformed JSON, type confusion, unknown fields, and
// out-of-range values must every one answer 400 with a descriptive error,
// and an oversize body must be cut off by the MaxBytesReader bound.
func TestCountRequestRejections(t *testing.T) {
	srv, _, _ := testServer(t)
	cases := []struct {
		name string
		body string
		want string // substring of the error field
	}{
		{"truncated-json", `{"samples":`, "bad request body"},
		{"not-json", `hello there`, "bad request body"},
		{"wrong-type", `{"samples":"many"}`, "bad request body"},
		{"unknown-field", `{"budget":5}`, "unknown field"},
		{"bad-strategy", `{"strategy":"quantum"}`, `unknown strategy "quantum"`},
		{"negative-samples", `{"samples":-3}`, "samples must be ≥ 1"},
		{"negative-top", `{"top":-1}`, "top must be ≥ 0"},
		{"bad-workers", `{"sampleWorkers":-1}`, "sample workers"},
		{"huge-workers", `{"sampleWorkers":100000}`, "sample workers"},
		{"bad-cover", `{"coverThreshold":-7}`, "cover threshold"},
		{"trailing-garbage", `{} {"samples":1}`, "bad request body"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := doJSON(t, srv, http.MethodPost, countPath, tc.body, nil)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %s)", w.Code, w.Body.String())
			}
			var resp struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("error response is not JSON: %s", w.Body.String())
			}
			if !strings.Contains(resp.Error, tc.want) {
				t.Fatalf("error %q does not contain %q", resp.Error, tc.want)
			}
		})
	}
}

// TestCountOversizeBody: a body beyond the 1 MiB bound must be rejected
// without buffering it into memory or panicking.
func TestCountOversizeBody(t *testing.T) {
	srv, _, _ := testServer(t)
	pad := strings.Repeat(" ", maxCountBody+512)
	w := doJSON(t, srv, http.MethodPost, countPath, pad+`{"samples":10}`, nil)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("oversize body answered %d, want 400", w.Code)
	}
}

// TestCountEmptyBodyDefaults: an empty body is the all-defaults query
// (naive, 100k samples, seed 1) and must succeed.
func TestCountEmptyBodyDefaults(t *testing.T) {
	srv, _, _ := testServer(t)
	var resp CountResponse
	w := doJSON(t, srv, http.MethodPost, countPath, "", &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("empty body status = %d: %s", w.Code, w.Body.String())
	}
	if resp.Strategy != "naive" || resp.Samples != 100000 {
		t.Fatalf("defaults not applied on empty body: %+v", resp)
	}
	// Partial bodies default the missing fields only.
	w = doJSON(t, srv, http.MethodPost, countPath, `{"samples":200}`, &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	if resp.Strategy != "naive" || resp.Samples != 200 {
		t.Fatalf("defaults not applied: %+v", resp)
	}
}
