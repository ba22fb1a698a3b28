package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// files around the layer's public functions. Spans of one op share op.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int           // index of the causing span, -1 for a root
	op         int
}

// tracer keeps spans in memory for the length of a traced run; the
// per-name summary is written out when the run ends. It is used from
// the client goroutine only (spam calls its Runner on the caller's
// goroutine), so it needs no lock. A nil tracer records nothing, which
// is how the untraced ops of a traced run go unobserved.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), end: -1, parent: parent, op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = time.Since(t.epoch)
}

// selfTimes returns, per span, its duration minus the part of that
// interval its child spans cover. Children may overlap each other and
// may stick out of the parent; only the union inside the parent counts.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].start < spans[ks[b]].start })
		covered, edge := time.Duration(0), s.start
		for _, k := range ks {
			lo, hi := max(spans[k].start, edge), min(spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = s.end - s.start - covered
	}
	return out
}

// spanTotals is the per-name roll-up of a traced run.
type spanTotals struct {
	count       int
	total, self time.Duration
}

func summarizeSpans(spans []span) map[string]spanTotals {
	self := selfTimes(spans)
	out := map[string]spanTotals{}
	for i, s := range spans {
		st := out[s.name]
		st.count++
		st.total += s.end - s.start
		st.self += self[i]
		out[s.name] = st
	}
	return out
}
