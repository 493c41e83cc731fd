package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public function. ID names the deal or world the call served (-1 for
// run-level spans); Parent indexes the span that caused it (-1 at the
// root). Start and End are offsets from the recorder's epoch.
type span struct {
	Name   string        `json:"name"`
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// spanLog keeps spans in memory for the traced run; workers record
// concurrently, so appends are serialized.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// begin opens a span and returns its index and the function closing it.
func (l *spanLog) begin(name string, id, parent int) (int, func()) {
	l.mu.Lock()
	idx := len(l.spans)
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent, Start: time.Since(l.epoch)})
	l.mu.Unlock()
	return idx, func() {
		end := time.Since(l.epoch)
		l.mu.Lock()
		l.spans[idx].End = end
		l.mu.Unlock()
	}
}

// around records fn as one span.
func (l *spanLog) around(name string, id, parent int, fn func()) {
	_, end := l.begin(name, id, parent)
	fn()
	end()
}

// layerTimes sums duration and self time per span name. A span's self
// time is its duration minus the part of its interval that its child
// spans cover; children running in parallel are merged first, so
// overlapping children are not subtracted twice.
type layerTimes struct {
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

func (l *spanLog) layers() map[string]layerTimes {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range l.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTimes)
	for i, s := range l.spans {
		lt := out[s.Name]
		lt.Count++
		lt.Total += (s.End - s.Start).Seconds()
		lt.Self += (s.End - s.Start - covered(s, children[i])).Seconds()
		out[s.Name] = lt
	}
	return out
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	lo, hi := kids[0].Start, kids[0].End
	flush := func() {
		lo, hi = max(lo, parent.Start), min(hi, parent.End)
		if hi > lo {
			total += hi - lo
		}
	}
	for _, k := range kids[1:] {
		if k.Start > hi {
			flush()
			lo, hi = k.Start, k.End
			continue
		}
		hi = max(hi, k.End)
	}
	flush()
	return total
}

// writeJSONL writes every span, one JSON object per line.
func (l *spanLog) writeJSONL(w io.Writer) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
