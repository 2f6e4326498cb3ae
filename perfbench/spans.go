package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the traced run. An
// explicit span has an interval; a folded span stands for many short calls
// of one kind under the same parent (a strategy or observer call made from
// the event loop) and carries only their count and summed time, because
// recording each of millions of calls would cost more than the calls.
type Span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"` // index into the trace, -1 for a root
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Folded bool          `json:"folded,omitempty"`
	Count  int64         `json:"count"`
	Busy   time.Duration `json:"busy_ns,omitempty"` // summed time of a folded span
}

// Duration is the time the span covers: its interval, or for a folded span
// the summed time of its calls.
func (s *Span) Duration() time.Duration {
	if s.Folded {
		return s.Busy
	}
	return s.End - s.Start
}

// Trace keeps the spans of one traced run in memory until Write. Begin and End
// belong to the goroutine driving the traced calls; Add may be
// called from harness workers.
type Trace struct {
	mu     sync.Mutex
	origin time.Time
	spans  []Span
	open   []int // explicit spans begun and not yet ended, innermost last
}

// NewTrace starts an empty trace whose times count from now.
func NewTrace() *Trace { return &Trace{origin: time.Now()} }

func (t *Trace) since(at time.Time) time.Duration { return at.Sub(t.origin) }

func (t *Trace) innermost() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// Begin opens a span under the innermost open span and returns its id.
func (t *Trace) Begin(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{Name: name, Parent: t.innermost(), Start: t.since(time.Now()), Count: 1})
	t.open = append(t.open, id)
	return id
}

// End closes span id, which must be the innermost open span.
func (t *Trace) End(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = t.since(time.Now())
	if n := len(t.open); n > 0 && t.open[n-1] == id {
		t.open = t.open[:n-1]
	}
}

// Add records a finished span [start, end] under parent.
func (t *Trace) Add(name string, parent int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Parent: parent, Start: t.since(start), End: t.since(end), Count: 1})
}

// Folded accumulates the calls of one folded span. It is owned by the single
// goroutine making those calls; AddFolded stores it in the trace.
type Folded struct {
	count int64
	busy  time.Duration
}

// Add counts one call that took d.
func (f *Folded) Add(d time.Duration) {
	f.count++
	f.busy += d
}

// AddFolded records f's calls as a folded span under parent.
func (t *Trace) AddFolded(name string, parent int, f *Folded) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Parent: parent, Folded: true, Count: f.count, Busy: f.busy})
}

// Spans returns a copy of the recorded spans.
func (t *Trace) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// it that its children cover. Explicit children cover the union of their
// intervals clipped to the parent (concurrent harness cells overlap); folded
// children cover their summed time, since their calls never overlap.
func selfTimes(spans []Span) []time.Duration {
	type iv struct{ a, b time.Duration }
	kids := make([][]iv, len(spans))
	folded := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		if s.Folded {
			folded[s.Parent] += s.Busy
			continue
		}
		kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
	}
	self := make([]time.Duration, len(spans))
	for i := range spans {
		p := &spans[i]
		covered := folded[i]
		if !p.Folded {
			ivs := kids[i]
			sort.Slice(ivs, func(a, b int) bool { return ivs[a].a < ivs[b].a })
			curA, curB := time.Duration(0), time.Duration(-1)
			for _, c := range ivs {
				a, b := max(c.a, p.Start), min(c.b, p.End)
				if b <= a {
					continue
				}
				if curB < curA || a > curB {
					if curB > curA {
						covered += curB - curA
					}
					curA, curB = a, b
					continue
				}
				curB = max(curB, b)
			}
			if curB > curA {
				covered += curB - curA
			}
		}
		self[i] = p.Duration() - covered
	}
	return self
}

// SpanSum is the per-name roll-up of a trace.
type SpanSum struct {
	Name  string
	Count int64
	Total time.Duration
	Self  time.Duration
}

// summarize rolls spans up by name, sorted by name.
func summarize(spans []Span) []SpanSum {
	self := selfTimes(spans)
	idx := map[string]int{}
	var out []SpanSum
	for i, s := range spans {
		j, ok := idx[s.Name]
		if !ok {
			j = len(out)
			idx[s.Name] = j
			out = append(out, SpanSum{Name: s.Name})
		}
		out[j].Count += s.Count
		out[j].Total += s.Duration()
		out[j].Self += self[i]
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// Write stores the spans as JSON at path.
func (t *Trace) Write(path string) error {
	data, err := json.Marshal(t.Spans())
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
