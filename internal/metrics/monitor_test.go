package metrics

import (
	"errors"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
)

var errBoom = errors.New("boom")

// withinBucket reports whether got is want rounded up to its histogram
// bucket: quantiles are bucket upper bounds, at most 6.25% above the
// value.
func withinBucket(got, want time.Duration) bool {
	return got >= want && float64(got) <= float64(want)*(1+1.0/histSubCount)
}

func TestMonitorBasicStats(t *testing.T) {
	m := NewMonitor("svc")
	for _, d := range []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond} {
		m.Record(Observation{Latency: d})
	}
	if got := m.Count(); got != 3 {
		t.Errorf("Count = %d, want 3", got)
	}
	if got := m.Availability(); got != 1 {
		t.Errorf("Availability = %v, want 1", got)
	}
	if got := m.MeanLatency(); got != 20*time.Millisecond {
		t.Errorf("MeanLatency = %v, want 20ms", got)
	}
	if got := m.Snapshot().P50Latency; !withinBucket(got, 20*time.Millisecond) {
		t.Errorf("P50 = %v, want 20ms up to bucket width", got)
	}
}

func TestMonitorAvailability(t *testing.T) {
	m := NewMonitor("svc")
	m.Record(Observation{Latency: time.Millisecond})
	m.Record(Observation{Latency: time.Millisecond, Err: errBoom})
	m.Record(Observation{Latency: time.Millisecond, Err: errBoom})
	m.Record(Observation{Latency: time.Millisecond})
	if got := m.Availability(); got != 0.5 {
		t.Errorf("Availability = %v, want 0.5", got)
	}
}

func TestMonitorEmptyDefaults(t *testing.T) {
	m := NewMonitor("svc")
	if got := m.Availability(); got != 1 {
		t.Errorf("empty Availability = %v, want 1 (optimistic)", got)
	}
	if got := m.MeanLatency(); got != 0 {
		t.Errorf("empty MeanLatency = %v, want 0", got)
	}
	s := m.Snapshot()
	if s.MeanLatency != 0 || s.P50Latency != 0 || s.P99Latency != 0 {
		t.Errorf("empty snapshot latencies = %v/%v/%v, want 0", s.MeanLatency, s.P50Latency, s.P99Latency)
	}
	if mean, n := m.MeanQuality(); mean != 0 || n != 0 {
		t.Errorf("empty MeanQuality = (%v, %d), want (0, 0)", mean, n)
	}
}

func TestMonitorFailuresExcludedFromLatency(t *testing.T) {
	m := NewMonitor("svc")
	m.Record(Observation{Latency: 10 * time.Millisecond})
	// A slow failure must not drag the success latency stats.
	m.Record(Observation{Latency: 10 * time.Second, Err: errBoom})
	if got := m.MeanLatency(); got != 10*time.Millisecond {
		t.Errorf("MeanLatency = %v, want 10ms (failure excluded)", got)
	}
	if got := m.Snapshot().P99Latency; !withinBucket(got, 10*time.Millisecond) {
		t.Errorf("P99 = %v, want 10ms up to bucket width (failure excluded)", got)
	}
}

func TestMonitorQuality(t *testing.T) {
	m := NewMonitor("svc")
	m.RecordQuality(0.8)
	m.RecordQuality(0.6)
	mean, n := m.MeanQuality()
	if n != 2 || mean != 0.7 {
		t.Errorf("MeanQuality = (%v, %d), want (0.7, 2)", mean, n)
	}
}

func TestSnapshot(t *testing.T) {
	m := NewMonitor("svc")
	m.Record(Observation{Latency: 10 * time.Millisecond})
	m.Record(Observation{Latency: 30 * time.Millisecond})
	m.Record(Observation{Latency: time.Millisecond, Err: errBoom})
	m.RecordQuality(0.9)
	s := m.Snapshot()
	if s.Name != "svc" || s.Count != 3 || s.Failures != 1 {
		t.Errorf("Snapshot identity = %+v", s)
	}
	if s.MeanLatency != 20*time.Millisecond {
		t.Errorf("MeanLatency = %v, want 20ms", s.MeanLatency)
	}
	// The extremes of the latency distribution are its 0th and 100th
	// quantiles.
	hs := m.latency.Snapshot()
	if lo, hi := hs.Quantile(0), hs.Quantile(1); !withinBucket(lo, 10*time.Millisecond) || !withinBucket(hi, 30*time.Millisecond) {
		t.Errorf("Min/Max = %v/%v, want 10ms/30ms up to bucket width", lo, hi)
	}
	if s.Availability < 0.66 || s.Availability > 0.67 {
		t.Errorf("Availability = %v, want ~0.667", s.Availability)
	}
	if s.MeanQuality != 0.9 || s.QualityCount != 1 {
		t.Errorf("quality = (%v, %d), want (0.9, 1)", s.MeanQuality, s.QualityCount)
	}
	if s.P50Latency == 0 || s.P99Latency == 0 {
		t.Error("percentiles missing from snapshot")
	}
}

func TestMonitorConcurrentAccess(t *testing.T) {
	m := NewMonitor("svc")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				var err error
				if i%10 == 0 {
					err = errBoom
				}
				m.Record(Observation{Latency: time.Duration(i) * time.Microsecond, Err: err})
				m.RecordQuality(0.5)
				if a := m.Availability(); a < 0 || a > 1 {
					t.Errorf("Availability = %v outside [0, 1]", a)
				}
				_ = m.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	if got := m.Count(); got != 4000 {
		t.Errorf("Count = %d, want 4000", got)
	}
	if mean, n := m.MeanQuality(); n != 4000 || mean != 0.5 {
		t.Errorf("MeanQuality = (%v, %d), want (0.5, 4000)", mean, n)
	}
}

// TestMonitorAllocs pins the cost of the bundle: recording is a handful of
// atomic operations with no allocation, and a monitor is one histogram and
// four counters — a few KiB, whether standalone or registered in a Set.
func TestMonitorAllocs(t *testing.T) {
	m := NewMonitor("svc")
	obs := Observation{Latency: time.Millisecond, Attempts: 2}
	fail := Observation{Latency: time.Millisecond, Err: errBoom}
	if n := testing.AllocsPerRun(1000, func() { m.Record(obs); m.Record(fail) }); n != 0 {
		t.Errorf("Record allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { m.RecordQuality(0.5) }); n != 0 {
		t.Errorf("RecordQuality allocates %v times per call, want 0", n)
	}

	const n, budget = 64, 8 << 10
	reg := NewRegistry(NewSet(), "richsdk_service", "service")
	names := make([]string, n)
	for i := range names {
		names[i] = "svc-" + strconv.Itoa(i)
	}
	keep := make([]*Monitor, 0, 2*n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		keep = append(keep, NewMonitor(names[i]))
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("NewMonitor: %d B", per)
	if per > budget {
		t.Errorf("NewMonitor allocates %d B, want <= %d", per, budget)
	}
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		keep = append(keep, reg.Monitor(names[i]))
	}
	runtime.ReadMemStats(&after)
	per = (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("Registry.Monitor: %d B", per)
	if per > budget {
		t.Errorf("Registry.Monitor allocates %d B per new monitor, want <= %d", per, budget)
	}
	runtime.KeepAlive(keep)
}

func TestRegistryLazyAndStable(t *testing.T) {
	r := NewRegistry(nil, "richsdk_service", "service")
	a := r.Monitor("a")
	if a2 := r.Monitor("a"); a2 != a {
		t.Error("Monitor returned a different instance for the same name")
	}
	r.Monitor("b")
	names := r.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v, want [a b]", names)
	}
}

func TestRegistrySnapshots(t *testing.T) {
	r := NewRegistry(nil, "richsdk_service", "service")
	r.Monitor("z").Record(Observation{Latency: time.Millisecond})
	r.Monitor("a").Record(Observation{Latency: 2 * time.Millisecond})
	snaps := r.Snapshots()
	if len(snaps) != 2 || snaps[0].Name != "a" || snaps[1].Name != "z" {
		t.Errorf("Snapshots order wrong: %v", snaps)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	set := NewSet()
	r := NewRegistry(set, "richsdk_service", "service")
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := string(rune('a' + g%4))
			for i := 0; i < 200; i++ {
				r.Monitor(name).Record(Observation{Latency: time.Microsecond})
			}
		}(g)
	}
	wg.Wait()
	if got := len(r.Names()); got != 4 {
		t.Errorf("registered %d services, want 4", got)
	}
	var total uint64
	for _, s := range r.Snapshots() {
		total += s.Count
	}
	if total != 3200 {
		t.Errorf("total observations = %d, want 3200", total)
	}
	// Every monitor's counter is the Set's counter for its label.
	for _, n := range r.Names() {
		c := set.Counter("richsdk_service_invocations_total", "", Label{"service", n})
		if c.Value() != r.Monitor(n).Count() {
			t.Errorf("%s: Set counter %d != monitor count %d", n, c.Value(), r.Monitor(n).Count())
		}
	}
}

func TestRetriesAccumulateAttemptsBeyondFirst(t *testing.T) {
	m := NewMonitor("svc")
	m.Record(Observation{Latency: time.Millisecond, Attempts: 1})
	m.Record(Observation{Latency: time.Millisecond, Attempts: 3})
	m.Record(Observation{Latency: time.Millisecond, Attempts: 0}) // clamped to one attempt
	m.Record(Observation{Latency: time.Millisecond, Err: errBoom, Attempts: 2})
	if got := m.Retries(); got != 3 {
		t.Errorf("Retries() = %d, want 3", got)
	}
	if snap := m.Snapshot(); snap.Retries != 3 {
		t.Errorf("Snapshot().Retries = %d, want 3", snap.Retries)
	}
}
