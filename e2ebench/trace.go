package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a module, recorded by the benchmark around
// the call it makes. Spans of one operation share a trace id; Parent is 0
// for an operation's root span.
type span struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// layer is the module a span's name belongs to: the part before the dot.
func (s span) layer() string {
	name, _, _ := strings.Cut(s.Name, ".")
	return name
}

// tracer keeps spans in memory until the run ends. Only traced runs call
// it, from the run's single caller.
type tracer struct {
	t0    time.Time
	ids   int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newTrace returns a fresh id for one operation's trace; spans draw their
// ids from the same counter.
func (t *tracer) newTrace() int64 {
	t.ids++
	return t.ids
}

// span runs fn as a span of trace under parent and returns its duration.
// fn receives the span's id, to parent the spans it opens.
func (t *tracer) span(trace, parent int64, name string, fn func(id int64)) time.Duration {
	id := t.newTrace()
	start := time.Now()
	fn(id)
	end := time.Now()
	t.spans = append(t.spans, span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return end.Sub(start)
}

func (t *tracer) len() int { return len(t.spans) }

// selfByLayer returns each layer's self time within the given traces (all
// traces when none are given): a span's duration minus the part its child
// spans cover, summed by layer, with the number of spans per layer.
func (t *tracer) selfByLayer(traces ...int64) (map[string]time.Duration, map[string]int) {
	want := make(map[int64]bool, len(traces))
	for _, tr := range traces {
		want[tr] = true
	}
	in := func(s span) bool { return len(traces) == 0 || want[s.Trace] }
	children := make(map[int64]int64)
	for _, s := range t.spans {
		if in(s) && s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	self, count := make(map[string]time.Duration), make(map[string]int)
	for _, s := range t.spans {
		if in(s) {
			self[s.layer()] += time.Duration(s.End - s.Start - children[s.ID])
			count[s.layer()]++
		}
	}
	return self, count
}

// write saves every span, with the run metadata and per-layer totals.
func (t *tracer) write(path string, meta runMeta) error {
	self, count := t.selfByLayer()
	type layerTotal struct {
		Layer  string  `json:"layer"`
		SelfMs float64 `json:"selfMs"`
		Spans  int     `json:"spans"`
	}
	var totals []layerTotal
	for l, d := range self {
		totals = append(totals, layerTotal{l, float64(d.Microseconds()) / 1000, count[l]})
	}
	sort.Slice(totals, func(i, j int) bool { return totals[i].Layer < totals[j].Layer })
	data, err := json.Marshal(struct {
		Meta   runMeta      `json:"meta"`
		Layers []layerTotal `json:"layers"`
		Spans  []span       `json:"spans"`
	}{meta, totals, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between closest ranks; xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := p * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }
