package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans live in memory for the whole
// run and are written out once at the end, so recording costs a mutex and
// two clock reads.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Req    int    `json:"req"`    // request (sweep, HTTP call) the span belongs to
	Name   string `json:"name"`   // "<layer>.<call>"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans relative to its creation time.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id (ids start at 1).
func (t *tracer) start(name string, parent, req int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(t.spans)
}

// end closes a span opened by start.
func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// do runs fn inside a span, passing it the span id.
func (t *tracer) do(name string, parent, req int, fn func(id int)) {
	id := t.start(name, parent, req)
	fn(id)
	t.end(id)
}

// total sums the durations of every span with the given name, in seconds.
func (t *tracer) total(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children (children may overlap each other
// when they ran concurrently, so their union is subtracted, not their sum).
func (t *tracer) selfTimes() map[int]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(t.spans))
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, curStart, curEnd int64
		open := false
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			switch {
			case !open:
				curStart, curEnd, open = lo, hi, true
			case lo > curEnd:
				covered += curEnd - curStart
				curStart, curEnd = lo, hi
			case hi > curEnd:
				curEnd = hi
			}
		}
		if open {
			covered += curEnd - curStart
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// layerShares sums self time per layer (the span-name prefix before the
// first dot) over the spans under the given roots, and returns each
// layer's seconds and its share of the total.
func (t *tracer) layerShares(roots map[int]bool) (secs, share map[string]float64) {
	self := t.selfTimes()
	t.mu.Lock()
	under := map[int]bool{}
	for _, s := range t.spans { // parents precede children: ids grow with start order
		if roots[s.ID] || under[s.Parent] {
			under[s.ID] = true
		}
	}
	secs = map[string]float64{}
	var total float64
	for _, s := range t.spans {
		if !under[s.ID] {
			continue
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		v := float64(self[s.ID]) / 1e9
		secs[layer] += v
		total += v
	}
	t.mu.Unlock()
	share = map[string]float64{}
	for l, v := range secs {
		share[l] = div(v, total)
	}
	return secs, share
}

// dump writes every span as one JSON line.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printShares renders a per-layer self-time table, largest first.
func printShares(w io.Writer, title string, secs, share map[string]float64) {
	layers := make([]string, 0, len(secs))
	for l := range secs {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return secs[layers[i]] > secs[layers[j]] })
	fmt.Fprintf(w, "self time by layer (%s):\n", title)
	for _, l := range layers {
		fmt.Fprintf(w, "  %-10s %9.3f s  %5.1f%%\n", l, secs[l], 100*share[l])
	}
}
