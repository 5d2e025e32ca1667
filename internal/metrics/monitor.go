// Package metrics implements the rich SDK's service-monitoring substrate:
// it collects data on service performance (latency), availability, and
// response quality, and keeps every service's full latency distribution so
// that users can compare distributions (paper §2). There is one instrument
// model — lock-free counters, gauges, and log-linear histograms, grouped
// into labelled families by a Set (instruments.go) and rendered in the
// Prometheus text format (expfmt.go). A per-service Monitor is a bundle of
// those instruments.
package metrics

import (
	"math"
	"sync/atomic"
	"time"
)

// Observation is one completed service invocation.
type Observation struct {
	// Latency is how long the invocation took.
	Latency time.Duration
	// Err is the invocation error, nil on success.
	Err error
	// Attempts is how many transport attempts the invocation made; values
	// below 1 count as a single attempt. Attempts beyond the first
	// accumulate in the monitor's retry counter.
	Attempts int
}

// Snapshot is a point-in-time summary of a monitor's collected data.
type Snapshot struct {
	Name         string
	Count        uint64
	Failures     uint64
	Retries      uint64  // transport attempts beyond each invocation's first
	Availability float64 // successes / total, 1 when no data
	MeanLatency  time.Duration
	P50Latency   time.Duration
	P95Latency   time.Duration
	P99Latency   time.Duration
	MeanQuality  float64 // 0 when never rated
	QualityCount uint64
}

// Monitor collects observations for a single service: invocation,
// failure, retry, and quality-rating counters, a histogram of successful
// calls' latency, and a running sum of quality ratings. Every update is
// an atomic operation, so Record and RecordQuality take no lock and
// allocate nothing. It is safe for concurrent use.
type Monitor struct {
	name        string
	invocations *Counter
	failures    *Counter
	retries     *Counter
	ratings     *Counter
	latency     *Histogram // successful invocations only
	qualitySum  atomic.Uint64
}

// NewMonitor returns a standalone Monitor for the named service, whose
// instruments belong to no Set. Registry.Monitor returns one whose
// instruments render on /metrics.
func NewMonitor(name string) *Monitor {
	return &Monitor{
		name:        name,
		invocations: NewCounter(),
		failures:    NewCounter(),
		retries:     NewCounter(),
		ratings:     NewCounter(),
		latency:     NewHistogram(),
	}
}

// Name returns the monitored service's name.
func (m *Monitor) Name() string { return m.name }

// Record folds an observation into the monitor. The invocation is counted
// before its failure, so a reader that loads failures first never sees
// more failures than invocations.
func (m *Monitor) Record(o Observation) {
	m.invocations.Inc()
	if o.Attempts > 1 {
		m.retries.Add(uint64(o.Attempts - 1))
	}
	if o.Err != nil {
		m.failures.Inc()
		return
	}
	// Latency statistics track successful invocations only: a fast
	// failure says nothing about how long a successful call takes.
	m.latency.Observe(o.Latency)
}

// RecordQuality folds a user-supplied quality rating for this service.
// Higher values indicate higher quality (paper §2: "users can provide
// methods to rate the quality of different services").
func (m *Monitor) RecordQuality(q float64) {
	for {
		old := m.qualitySum.Load()
		if m.qualitySum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+q)) {
			break
		}
	}
	m.ratings.Inc()
}

// Count returns the total number of recorded invocations.
func (m *Monitor) Count() uint64 { return m.invocations.Value() }

// Retries returns the total number of transport attempts beyond each
// invocation's first — how much retrying the failure handler has done on
// this service's behalf.
func (m *Monitor) Retries() uint64 { return m.retries.Value() }

// Availability returns the fraction of recorded invocations that succeeded,
// or 1 if nothing has been recorded (optimistic default: an unknown service
// is assumed healthy until observed otherwise).
func (m *Monitor) Availability() float64 {
	failures := m.failures.Value()
	return availability(m.invocations.Value(), failures)
}

func availability(count, failures uint64) float64 {
	if count == 0 {
		return 1
	}
	return float64(count-failures) / float64(count)
}

// MeanLatency returns the mean latency of successful invocations, or 0 with
// no data. It reads two counters and the histogram's sum, not the
// buckets, so it is cheap enough for per-call latency prediction.
func (m *Monitor) MeanLatency() time.Duration {
	failures := m.failures.Value()
	succ := m.invocations.Value() - failures
	if succ == 0 {
		return 0
	}
	return time.Duration(m.latency.sum.Load()) / time.Duration(succ)
}

// MeanQuality returns the mean recorded quality rating and how many ratings
// back it. A zero count means the service has never been rated.
func (m *Monitor) MeanQuality() (mean float64, count uint64) {
	count = m.ratings.Value()
	if count == 0 {
		return 0, 0
	}
	return math.Float64frombits(m.qualitySum.Load()) / float64(count), count
}

// Snapshot returns a point-in-time summary. MeanLatency is the latency
// histogram's exact Sum/Count; P50/P95/P99 are exact bucketed quantiles
// over every successful invocation — each the upper bound of the
// log-linear bucket (width ≤ 6.25% of the value) holding that rank, with
// no sampling error.
func (m *Monitor) Snapshot() Snapshot {
	failures := m.failures.Value()
	s := Snapshot{
		Name:     m.name,
		Count:    m.invocations.Value(),
		Failures: failures,
		Retries:  m.retries.Value(),
	}
	s.Availability = availability(s.Count, failures)
	s.MeanQuality, s.QualityCount = m.MeanQuality()
	hs := m.latency.Snapshot()
	s.MeanLatency = hs.Mean()
	s.P50Latency = hs.Quantile(0.50)
	s.P95Latency = hs.Quantile(0.95)
	s.P99Latency = hs.Quantile(0.99)
	return s
}
