package main

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/coloring"
	"repro/internal/estimate"
	"repro/internal/graph"
	"repro/internal/graphlet"
)

// starCheck tests naive estimates of a graph's induced graphlet counts
// through one quantity that can be counted exactly: the number of
// non-induced k-stars, read off the served counts with estimate.NonInduced.
//
// Sampling a table built under one coloring estimates, without bias, the
// stars that coloring leaves colorful scaled by 1/p_k — Σ_v Π_{c≠col(v)}
// n_c(v) / p_k, with n_c(v) the neighbors of v colored c — so that is the
// expected answer, and the tolerance is the sampling error alone, derived
// from the draw count. How far the coloring itself strays from the
// graph's Σ_v C(d_v, k−1) stars is reported, not checked: it is a property
// of the random coloring, not of the program.
type starCheck struct {
	k       int
	star    graphlet.Code
	all     float64 // Σ_v C(d_v, k−1)
	corrupt bool    // triple every expected answer (tests)
}

// zStar is the number of standard errors an estimate may stray.
const zStar = 6

func newStarCheck(g *graph.Graph, k int, corrupt bool) starCheck {
	edges := make([][2]int, 0, k-1)
	for i := 1; i < k; i++ {
		edges = append(edges, [2]int{0, i})
	}
	sc := starCheck{k: k, star: graphlet.Canonical(k, graphlet.FromEdges(k, edges)), corrupt: corrupt}
	for v := 0; v < g.NumNodes(); v++ {
		sc.all += binom(g.Degree(graph.Node(v)), k-1)
	}
	return sc
}

// binom returns C(n, r) as a float64.
func binom(n, r int) float64 {
	if r < 0 || n < r {
		return 0
	}
	c := 1.0
	for i := 0; i < r; i++ {
		c = c * float64(n-i) / float64(i+1)
	}
	return c
}

// expected returns the k-star count naive sampling estimates on g under
// col, and its relative distance from all of g's k-stars.
func (s starCheck) expected(g *graph.Graph, col *coloring.Coloring) (want, colorErr float64) {
	n := make([]float64, s.k)
	var colorful float64
	for v := 0; v < g.NumNodes(); v++ {
		clear(n)
		for _, u := range g.Neighbors(graph.Node(v)) {
			n[col.Colors[u]]++
		}
		p := 1.0
		for c := range n {
			if c != int(col.Colors[v]) {
				p *= n[c]
			}
		}
		colorful += p
	}
	want = colorful / col.PColorful
	if s.all > 0 {
		colorErr = math.Abs(want-s.all) / s.all
	}
	if s.corrupt {
		want *= 3
	}
	return want, colorErr
}

// check compares naive-sampling estimates from `draws` draws with the
// expected k-star count. Under naive sampling a draw induces graphlet H
// with probability p_H ∝ Ĉ_H·σ_H (σ_H its spanning trees) and adds
// m_H/σ_H to the star estimate (m_H the k-stars H contains), so the
// estimate's relative standard error is sd(x)/(mean(x)·√draws) over that
// distribution. The tolerance is zStar of them, plus zStar²/(draws·mean(x)):
// graphlets too rare to show up in the draws at all (total probability
// below about zStar²/draws) escape the plug-in variance but can still move
// the estimate that much, as x lies in [0, 1].
func (s starCheck) check(counts estimate.Counts, draws int, want float64) (relErr, tol float64) {
	got := estimate.NonInduced(counts, s.k, []graphlet.Code{s.star})[s.star]
	var norm, mean, sq float64
	for code, c := range counts {
		norm += c * float64(graphlet.SpanningTreeCount(s.k, code))
	}
	for code, c := range counts {
		sigma := float64(graphlet.SpanningTreeCount(s.k, code))
		if norm <= 0 || sigma == 0 {
			continue
		}
		p := c * sigma / norm
		x := float64(graphlet.SubgraphMultiplicity(s.k, s.star, code)) / sigma
		mean += p * x
		sq += p * x * x
	}
	tol = 1
	if mean > 0 {
		relSE := math.Sqrt(math.Max(sq-mean*mean, 0)/float64(draws)) / mean
		tol = zStar*relSE + zStar*zStar/(float64(draws)*mean)
	}
	if want == 0 {
		return math.Abs(got), tol
	}
	return math.Abs(got-want) / want, tol
}

// starTally collects the outcomes of k-star checks for the report. A
// tolerance of 1 or more is no check at all — an estimate of zero lies
// within it — so such an answer counts as unchecked, not as passed.
type starTally struct {
	checked, unchecked int
	worst, widest      float64 // largest error/tolerance and tolerance among the checked
}

// judge records one check and reports whether the estimate is wrong.
func (t *starTally) judge(rel, tol float64) bool {
	if tol >= 1 {
		t.unchecked++
		return false
	}
	t.checked++
	t.worst, t.widest = math.Max(t.worst, rel/tol), math.Max(t.widest, tol)
	return rel > tol
}

func (t starTally) String() string {
	return fmt.Sprintf("k-star check: %d naive answers checked (worst error/tolerance %.3f, widest tolerance %.3f), %d unchecked as their tolerance reached 1",
		t.checked, t.worst, t.widest, t.unchecked)
}

// sameAsDirect reports whether estimates equal a direct engine query's bit
// for bit. With corrupt set (tests) the direct answer is tripled first,
// so the comparison must fail.
func (b *bench) sameAsDirect(direct, got estimate.Counts) bool {
	if b.opt.corrupt {
		tripled := make(estimate.Counts, len(direct))
		for code, v := range direct {
			tripled[code] = 3 * v
		}
		direct = tripled
	}
	return sameCounts(direct, got)
}

// countBody is the part of a served count response the checks read.
type countBody struct {
	K        int    `json:"k"`
	Strategy string `json:"strategy"`
	Samples  int    `json:"samples"`
	Covered  int    `json:"covered"`
	Counts   []struct {
		Code  string  `json:"code"`
		Count float64 `json:"count"`
	} `json:"counts"`
}

// parseCounts decodes a count response into its estimates.
func parseCounts(body []byte) (*countBody, estimate.Counts, error) {
	var cb countBody
	if err := json.Unmarshal(body, &cb); err != nil {
		return nil, nil, fmt.Errorf("decode count response: %w", err)
	}
	counts := make(estimate.Counts, len(cb.Counts))
	for _, e := range cb.Counts {
		code, err := graphlet.ParseCode(e.Code)
		if err != nil {
			return nil, nil, err
		}
		counts[code] = e.Count
	}
	return &cb, counts, nil
}

// sameCounts reports whether two estimate maps are bit-identical.
func sameCounts(a, b estimate.Counts) bool {
	if len(a) != len(b) {
		return false
	}
	for code, v := range a {
		w, ok := b[code]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}
