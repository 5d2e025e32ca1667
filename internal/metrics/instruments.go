package metrics

// Second-generation instrument layer: allocation-free atomic counters,
// gauges, and a lock-free log-linear latency histogram, grouped into
// labeled families by a Set and rendered in Prometheus exposition format
// through the TextWriter (expfmt.go).
//
// Instruments are nil-safe by contract: every method on a nil *Counter,
// *Gauge, or *Histogram is inert, so an uninstrumented substrate — one
// whose owner never attached a Set — pays a single nil check on its hot
// path and nothing else. That is what lets the search, RDF, and NLU
// engines carry instrumentation hooks unconditionally while library
// callers that never look at /metrics get the uninstrumented cost.

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use; a nil Counter is inert.
type Counter struct {
	v atomic.Uint64
}

// NewCounter returns a zeroed counter.
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down (queue depths, dictionary
// sizes, in-flight work). The zero value is ready to use; a nil Gauge is
// inert.
type Gauge struct {
	v atomic.Int64
}

// NewGauge returns a zeroed gauge.
func NewGauge() *Gauge { return &Gauge{} }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds d (negative to subtract).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram bucket layout: log-linear over nanoseconds. Values below
// histSubCount get one exact bucket each; above that, every power-of-two
// octave is split into histSubCount linear sub-buckets, so any recorded
// value sits in a bucket whose width is at most 1/histSubCount (6.25%)
// of its magnitude. The layout is fixed at compile time — every
// histogram shares it, which is what makes snapshots comparable bucket by
// bucket.
const (
	histSubBits  = 4
	histSubCount = 1 << histSubBits // linear sub-buckets per octave
	// histMaxExp is the last full-resolution octave: values at or above
	// 2^(histMaxExp+1) ns (~2.4 hours) clamp into the final bucket, which
	// therefore only bounds its contents from below. Latencies that long
	// are failures of a different kind.
	histMaxExp = 42
	// histNumBuckets: histSubCount exact small-value buckets plus
	// histSubCount per octave for exponents histSubBits..histMaxExp.
	histNumBuckets = (histMaxExp - histSubBits + 2) * histSubCount
)

// bucketIndex maps a nanosecond value to its bucket. Non-positive values
// land in bucket 0; values past the clamp ceiling land in the last
// bucket.
func bucketIndex(v int64) int {
	if v < histSubCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	exp := 63 - bits.LeadingZeros64(uint64(v))
	if exp > histMaxExp {
		return histNumBuckets - 1
	}
	return (exp-histSubBits+1)<<histSubBits + int(v>>(exp-histSubBits)) - histSubCount
}

// bucketUpper returns the largest nanosecond value bucket i holds
// (ignoring the final bucket's clamped overflow).
func bucketUpper(i int) int64 {
	if i < histSubCount {
		return int64(i)
	}
	exp := i>>histSubBits + histSubBits - 1
	sub := i & (histSubCount - 1)
	return int64(histSubCount+sub+1)<<(exp-histSubBits) - 1
}

// Histogram is a lock-free latency distribution: fixed log-linear bucket
// layout, one atomic increment per bucket per observation, zero
// allocations per Observe. It is safe for unsynchronized concurrent use;
// a nil Histogram is inert. The zero value is ready to use.
type Histogram struct {
	sum     atomic.Int64 // nanoseconds
	buckets [histNumBuckets]atomic.Uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe folds one latency in: two atomic adds, no allocation, no lock.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.sum.Add(int64(d))
	h.buckets[bucketIndex(int64(d))].Add(1)
}

// Snapshot copies the current distribution. Buckets are read one by one
// while writers may be running, so a snapshot taken under concurrent
// Observe calls can lag individual observations; Count is defined as the
// sum of the snapshot's buckets, keeping Count, Quantile, and the
// rendered cumulative buckets exactly consistent with each other.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Buckets: make([]uint64, histNumBuckets)}
	if h == nil {
		return s
	}
	s.Sum = time.Duration(h.sum.Load())
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.Buckets[i] = n
		s.Count += n
	}
	return s
}

// HistSnapshot is a point-in-time copy of a histogram. The bucket layout
// is global, so two snapshots combine bucket-wise: the shedder subtracts
// successive cumulative snapshots to get one window's distribution.
type HistSnapshot struct {
	Count   uint64
	Sum     time.Duration
	Buckets []uint64 // len histNumBuckets, same global layout everywhere
}

// Mean returns the average observed latency, 0 with no data.
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Quantile returns the q-th quantile (q in [0, 1]) as an exact rank
// selection over the bucketed data: the value returned is the upper
// bound of the bucket holding the rank-⌈q·n⌉ observation, so it is
// exact up to the bucket's width (≤ 6.25% of the value) and never an
// extrapolation. 0 with no data.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum uint64
	for i, n := range s.Buckets {
		cum += n
		if cum >= rank {
			return time.Duration(bucketUpper(i))
		}
	}
	return time.Duration(bucketUpper(histNumBuckets - 1))
}

// Set is a registry of instrument families: each family has a name, a
// help string, a type, and one instrument per label set. Registration
// (the Counter/Gauge/Histogram/Func methods) takes a lock and may
// allocate; the returned instruments are the lock-free hot-path handles.
// Families render on /metrics in registration order via Expose. A nil Set
// returns nil (inert) instruments, so "instrument when given a Set, stay
// silent otherwise" needs no branching at the call site.
type Set struct {
	mu       sync.Mutex
	families []*family
	index    map[string]*family
}

type family struct {
	name, help, typ string
	insts           []*setInstrument
}

// setInstrument is one label set of a family. Exactly one of c, g, h, fn
// is set, fixed when the slot is created.
type setInstrument struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64
}

// NewSet returns an empty instrument set.
func NewSet() *Set {
	return &Set{index: make(map[string]*family)}
}

// register finds or creates the instrument for name and labels,
// enforcing one type per family name. A new slot is filled by init while
// the lock is held, so concurrent registrations of the same name and
// labels all receive the one instrument the first of them created; an
// existing slot is returned as is, so labeled families can be built
// incrementally from several call sites. Slots are individually
// allocated, so the pointer stays valid as the family grows.
func (s *Set) register(name, help, typ string, labels []Label, init func(*setInstrument)) *setInstrument {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.index[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		s.index[name] = f
		s.families = append(s.families, f)
	} else if f.typ != typ {
		panic(fmt.Sprintf("metrics: family %s registered as %s, requested as %s", name, f.typ, typ))
	}
	for _, in := range f.insts {
		if labelsEqual(in.labels, labels) {
			return in
		}
	}
	in := &setInstrument{labels: append([]Label(nil), labels...)}
	init(in)
	f.insts = append(f.insts, in)
	return in
}

func labelsEqual(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter registers (or retrieves) the counter for name and labels. A
// nil Set returns a nil (inert) counter.
func (s *Set) Counter(name, help string, labels ...Label) *Counter {
	if s == nil {
		return nil
	}
	return s.register(name, help, "counter", labels, func(in *setInstrument) { in.c = NewCounter() }).c
}

// Gauge registers (or retrieves) the gauge for name and labels. A nil
// Set returns a nil (inert) gauge.
func (s *Set) Gauge(name, help string, labels ...Label) *Gauge {
	if s == nil {
		return nil
	}
	return s.register(name, help, "gauge", labels, func(in *setInstrument) { in.g = NewGauge() }).g
}

// Histogram registers (or retrieves) the histogram for name and labels.
// A nil Set returns a nil (inert) histogram.
func (s *Set) Histogram(name, help string, labels ...Label) *Histogram {
	if s == nil {
		return nil
	}
	return s.register(name, help, "histogram", labels, func(in *setInstrument) { in.h = NewHistogram() }).h
}

// Func registers a scrape-time instrument for name and labels, in the
// manner of Prometheus' GaugeFunc/CounterFunc: Expose calls fn and
// renders its result as a sample of type typ, "counter" or "gauge". It
// serves values that are derived from other state (a ratio, a mean) or
// owned by another component (a cache's hit count, a breaker's state),
// which would otherwise need a second copy kept in step on the hot path.
// fn runs on every scrape, so it must be cheap. Re-registering the same
// name and labels keeps the first fn. A nil Set ignores the call.
func (s *Set) Func(name, help, typ string, fn func() float64, labels ...Label) {
	if s == nil {
		return
	}
	if typ != "counter" && typ != "gauge" {
		panic(fmt.Sprintf("metrics: func instrument %s has type %q, want counter or gauge", name, typ))
	}
	s.register(name, help, typ, labels, func(in *setInstrument) { in.fn = fn })
}

// Expose renders every family, in registration order, through t. A nil
// Set renders nothing.
func (s *Set) Expose(t *TextWriter) {
	if s == nil {
		return
	}
	// Copy the family list under the lock and render outside it, so Func
	// callbacks, which read other components' state, never run under it.
	// Instruments are individually allocated and never removed, and a
	// copied family's insts header covers only slots already filled.
	s.mu.Lock()
	families := make([]family, len(s.families))
	for i, f := range s.families {
		families[i] = *f
	}
	s.mu.Unlock()
	for _, f := range families {
		t.Family(f.name, f.help, f.typ)
		for _, in := range f.insts {
			switch {
			case in.fn != nil:
				t.Metric(f.name, in.fn(), in.labels...)
			case in.c != nil:
				t.Metric(f.name, float64(in.c.Value()), in.labels...)
			case in.g != nil:
				t.Metric(f.name, float64(in.g.Value()), in.labels...)
			case in.h != nil:
				WriteHistogram(t, f.name, in.h.Snapshot(), in.labels...)
			}
		}
	}
}
