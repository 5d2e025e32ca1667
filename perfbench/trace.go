package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// recorder is the benchmark's in-memory span recorder. Spans are opened
// around the calls the benchmark makes into each layer; spans of one
// request share a request ID and form a tree through their parent IDs.
// When a request's root span ends, every span of that request gets its
// self time (duration minus the union of its children's intervals) folded
// into per-name aggregates, and the raw spans are kept, up to keepSpans,
// for writing out at the end of the run.
//
// Spans on the far side of an HTTP hop cannot learn the caller's request
// ID (no trace context crosses the wire), so they open their own requests;
// the layers either side of a hop are joined by aggregate instead.
//
// Recording is switched on and off with setOn; while off, start costs one
// atomic load and returns an inert span.
type recorder struct {
	on    atomic.Bool
	epoch time.Time
	reqs  atomic.Uint64

	mu   sync.Mutex
	agg  map[string]*spanAgg
	kept []spanRecord
}

// keepSpans bounds how many raw spans a run keeps for writing out; the
// aggregates always cover every span.
const keepSpans = 50000

// spanAgg accumulates every finished span of one name.
type spanAgg struct {
	count int64
	total time.Duration // Σ duration
	self  time.Duration // Σ duration minus the union of child intervals
	child time.Duration // Σ children's durations (overlaps counted twice)
}

func (a *spanAgg) meanUS() float64 {
	if a == nil || a.count == 0 {
		return 0
	}
	return float64(a.total.Nanoseconds()) / 1e3 / float64(a.count)
}

func (a *spanAgg) selfUS() float64 {
	if a == nil || a.count == 0 {
		return 0
	}
	return float64(a.self.Nanoseconds()) / 1e3 / float64(a.count)
}

// spanRecord is one finished span as written out.
type spanRecord struct {
	Name    string `json:"name"`
	Request uint64 `json:"request"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a request's root
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), agg: make(map[string]*spanAgg)}
}

func (r *recorder) setOn(on bool) { r.on.Store(on) }

// reqTrace collects the spans of one request. Children may end
// concurrently (the pipeline's workers), hence the lock.
type reqTrace struct {
	rec   *recorder
	id    uint64
	mu    sync.Mutex
	spans []spanRecord
}

// span is an open span; the zero span is inert.
type span struct {
	req *reqTrace
	id  int
}

type spanKey struct{}

// start opens a span named name as a child of the span in ctx, or as the
// root of a new request when ctx carries none. It returns ctx carrying the
// new span for the calls beneath it.
func (r *recorder) start(ctx context.Context, name string) (context.Context, span) {
	if !r.on.Load() {
		return ctx, span{}
	}
	parent, _ := ctx.Value(spanKey{}).(span)
	req := parent.req
	if req == nil {
		req = &reqTrace{rec: r, id: r.reqs.Add(1)}
	}
	now := time.Since(r.epoch)
	req.mu.Lock()
	id := len(req.spans) + 1
	req.spans = append(req.spans, spanRecord{Name: name, Request: req.id, ID: id, Parent: parent.id, StartNS: int64(now), EndNS: -1})
	req.mu.Unlock()
	sp := span{req: req, id: id}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// end closes the span; ending a request's root span finalizes the request.
func (s span) end() {
	if s.req == nil {
		return
	}
	now := time.Since(s.req.rec.epoch)
	s.req.mu.Lock()
	s.req.spans[s.id-1].EndNS = int64(now)
	s.req.mu.Unlock()
	if s.id == 1 {
		s.req.rec.finish(s.req)
	}
}

// finish computes self times for every span of a finished request and
// folds them into the aggregates. A child still open when its root ends
// (a straggler off the critical path) is clipped to the root's end.
func (r *recorder) finish(req *reqTrace) {
	req.mu.Lock()
	spans := append([]spanRecord(nil), req.spans...)
	req.mu.Unlock()
	rootEnd := spans[0].EndNS
	for i := range spans {
		if spans[i].EndNS < 0 || spans[i].EndNS > rootEnd {
			spans[i].EndNS = rootEnd
		}
	}
	children := make(map[int][]spanRecord)
	for _, s := range spans[1:] {
		children[s.Parent] = append(children[s.Parent], s)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range spans {
		a := r.agg[s.Name]
		if a == nil {
			a = &spanAgg{}
			r.agg[s.Name] = a
		}
		dur := time.Duration(s.EndNS - s.StartNS)
		a.count++
		a.total += dur
		a.self += dur - unionCovered(s, children[s.ID])
		for _, c := range children[s.ID] {
			a.child += time.Duration(c.EndNS - c.StartNS)
		}
	}
	if room := keepSpans - len(r.kept); room > 0 {
		if len(spans) > room {
			spans = spans[:room]
		}
		r.kept = append(r.kept, spans...)
	}
}

// unionCovered returns how much of parent's interval the union of the
// children's intervals covers.
func unionCovered(parent spanRecord, children []spanRecord) time.Duration {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.StartNS, parent.StartNS), min(c.EndNS, parent.EndNS)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			covered += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		covered += curHi - curLo
	}
	return time.Duration(covered)
}

// get returns the aggregate for name, nil when no such span finished.
func (r *recorder) get(name string) *spanAgg {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.agg[name]
}

// printSummary prints every span name's count, mean duration and mean
// self time.
func (r *recorder) printSummary(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.agg))
	for n := range r.agg {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := r.agg[n]
		fmt.Fprintf(w, "# span %-26s n=%d mean=%.4gus self=%.4gus\n", n, a.count, a.meanUS(), a.selfUS())
	}
}

// writeSpans writes the kept spans to path as JSON lines.
func (r *recorder) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.kept {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			_ = f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
