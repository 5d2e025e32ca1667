package metrics

import (
	"sort"
	"sync"
)

// Registry maps names to their monitors, creating them lazily. Each
// monitor's instruments are families of the Registry's Set, named
// <prefix>_* and labelled <label>="<monitor name>", so rendering the Set
// renders every monitor. It is safe for concurrent use.
type Registry struct {
	set           *Set
	prefix, label string

	mu       sync.RWMutex
	monitors map[string]*Monitor
}

// NewRegistry returns a Registry whose monitors register in set; a nil set
// means a private one. The SDK client uses prefix "richsdk_service" and
// label "service"; pipeline stages use "richsdk_pipeline_stage" and
// "stage". Registries over one Set with the same prefix — successive
// pipeline runs sharing a Set — share each name's counters and histogram,
// so their monitors accumulate together; the quality-rating sum is the
// exception, kept per Monitor, which is why the SDK client, the one
// component that rates quality, owns a single Registry.
func NewRegistry(set *Set, prefix, label string) *Registry {
	if set == nil {
		set = NewSet()
	}
	return &Registry{set: set, prefix: prefix, label: label, monitors: make(map[string]*Monitor)}
}

// Monitor returns the monitor for name, creating it on first use.
func (r *Registry) Monitor(name string) *Monitor {
	r.mu.RLock()
	m, ok := r.monitors[name]
	r.mu.RUnlock()
	if ok {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.monitors[name]; ok {
		return m
	}
	m = r.newMonitor(name)
	r.monitors[name] = m
	return m
}

// newMonitor registers name's families in the Set. Availability and mean
// quality are derived at scrape time from the counters, not kept twice.
func (r *Registry) newMonitor(name string) *Monitor {
	l := Label{Name: r.label, Value: name}
	p, set := r.prefix, r.set
	m := &Monitor{name: name}
	m.invocations = set.Counter(p+"_invocations_total", "Total invocations recorded.", l)
	m.failures = set.Counter(p+"_failures_total", "Invocations that returned an error.", l)
	m.retries = set.Counter(p+"_retries_total", "Transport attempts beyond each invocation's first.", l)
	set.Func(p+"_availability", "Success fraction over all recorded invocations.", "gauge", m.Availability, l)
	m.latency = set.Histogram(p+"_latency_seconds", "Latency of successful invocations.", l)
	m.ratings = set.Counter(p+"_quality_ratings_total", "User-supplied quality ratings recorded.", l)
	set.Func(p+"_quality_mean", "Mean user-supplied quality rating (0 when never rated).", "gauge",
		func() float64 { q, _ := m.MeanQuality(); return q }, l)
	return m
}

// Names returns the registered names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.monitors))
	for n := range r.monitors {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshots returns a snapshot for every registered monitor, sorted by
// name.
func (r *Registry) Snapshots() []Snapshot {
	names := r.Names()
	out := make([]Snapshot, 0, len(names))
	for _, n := range names {
		out = append(out, r.Monitor(n).Snapshot())
	}
	return out
}
