package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanID names one recorded span; 0 is "no span" (a root's parent).
type spanID int64

// span is one timed call into a layer, recorded from the benchmark's own
// code and named "<layer>.<call>".
type span struct {
	ID     spanID `json:"id"`
	Parent spanID `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layerOf returns the layer a span name belongs to: the name up to its
// first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// openSpan is a span that has started but not ended.
type openSpan struct {
	id, parent spanID
	name       string
	start      int64
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// tracing-off mode: begin and end do nothing, so plain passes pay only
// a nil check.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(name string, parent spanID) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{id: spanID(t.next.Add(1)), parent: parent, name: name, start: t.now()}
}

func (t *tracer) end(s openSpan) {
	if t == nil {
		return
	}
	e := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: s.id, Parent: s.parent, Name: s.name, Start: s.start, End: e})
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// passAccount is the self-time accounting of one traced pass: the spans
// under one root, with each span's children subtracted from it, so the
// self times of all spans sum to the time the root's tree covers.
type passAccount struct {
	wall  float64              // root span duration, seconds
	self  map[string]float64   // span name → summed self time, seconds
	count map[string]int       // span name → number of spans
	total float64              // sum of all self times, seconds
	each  map[string][]float64 // span name → each span's self time, seconds
}

// layerSelf sums self time per layer.
func (a *passAccount) layerSelf() map[string]float64 {
	out := map[string]float64{}
	for name, s := range a.self {
		out[layerOf(name)] += s
	}
	return out
}

// accountSpans derives self times from the spans and groups them by the
// root span they descend from. A span's self time is its duration minus
// the part of its interval its children cover; children that overlap
// one another (concurrent clients) are counted once.
func accountSpans(spans []span) map[spanID]*passAccount {
	byID := make(map[spanID]*span, len(spans))
	kids := make(map[spanID][]*span, len(spans))
	for i := range spans {
		s := &spans[i]
		byID[s.ID] = s
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	rootOf := make(map[spanID]spanID, len(spans))
	var findRoot func(id spanID) spanID
	findRoot = func(id spanID) spanID {
		if r, ok := rootOf[id]; ok {
			return r
		}
		r := id
		if s := byID[id]; s != nil && s.Parent != 0 && byID[s.Parent] != nil {
			r = findRoot(s.Parent)
		}
		rootOf[id] = r
		return r
	}
	out := map[spanID]*passAccount{}
	for i := range spans {
		s := &spans[i]
		r := findRoot(s.ID)
		acc := out[r]
		if acc == nil {
			root := byID[r]
			acc = &passAccount{
				wall:  secs(root.End - root.Start),
				self:  map[string]float64{},
				count: map[string]int{},
				each:  map[string][]float64{},
			}
			out[r] = acc
		}
		self := secs(s.End-s.Start) - secs(covered(s, kids[s.ID]))
		acc.self[s.Name] += self
		acc.count[s.Name]++
		acc.total += self
		acc.each[s.Name] = append(acc.each[s.Name], self)
	}
	return out
}

// covered returns how many nanoseconds of s's interval its children
// cover, counting overlapping children once.
func covered(s *span, children []*span) int64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }

// writeSpans writes the run's header and every span, one JSON object a
// line, to path.
func writeSpans(path string, header any, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
