package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

// intRange returns [0, n).
func intRange(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestSingleStagePreservesOrder(t *testing.T) {
	p := New(context.Background())
	flow := Source(p, "src", intRange(100))
	doubled := Via(flow, Stage[int, int]{
		Name:    "double",
		Workers: 8,
		Fn: func(_ context.Context, v int) (int, error) {
			// Stagger completion so out-of-order bugs would surface.
			time.Sleep(time.Duration(v%3) * time.Millisecond)
			return v * 2, nil
		},
	})
	col := Collect(doubled, "collect")
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	items := col.Items()
	if len(items) != 100 {
		t.Fatalf("collected %d items, want 100", len(items))
	}
	for i, v := range items {
		if v != i*2 {
			t.Fatalf("items[%d] = %d, want %d (order not preserved)", i, v, i*2)
		}
	}
}

func TestMultiStageChain(t *testing.T) {
	p := New(context.Background())
	flow := Source(p, "src", intRange(50))
	strs := Via(flow, Stage[int, string]{
		Name:    "fmt",
		Workers: 4,
		Fn:      func(_ context.Context, v int) (string, error) { return fmt.Sprintf("item-%03d", v), nil },
	})
	lens := Via(strs, Stage[string, int]{
		Name:    "len",
		Workers: 2,
		Fn:      func(_ context.Context, s string) (int, error) { return len(s), nil },
	})
	col := Collect(lens, "collect")
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(col.Items()) != 50 {
		t.Fatalf("collected %d, want 50", len(col.Items()))
	}
	for _, v := range col.Items() {
		if v != len("item-000") {
			t.Fatalf("bad length %d", v)
		}
	}
}

func TestParallelStageOverlapsLatency(t *testing.T) {
	const items, delay, workers = 16, 5 * time.Millisecond, 8
	elapsed := make(map[int]time.Duration)
	for _, w := range []int{1, workers} {
		p := New(context.Background())
		flow := Source(p, "src", intRange(items))
		slow := Via(flow, Stage[int, int]{
			Name:    "slow",
			Workers: w,
			Fn: func(_ context.Context, v int) (int, error) {
				time.Sleep(delay)
				return v, nil
			},
		})
		Drain(slow, "sink", func(context.Context, int) error { return nil })
		start := time.Now()
		if err := p.Wait(); err != nil {
			t.Fatal(err)
		}
		elapsed[w] = time.Since(start)
	}
	// 16 items × 5 ms sequential ≈ 80 ms; 8 workers ≈ 10 ms. Assert a
	// conservative 2x so loaded CI machines cannot flake the test.
	if elapsed[workers]*2 > elapsed[1] {
		t.Errorf("parallel (%v) not meaningfully faster than sequential (%v)", elapsed[workers], elapsed[1])
	}
}

func TestAbortPolicyStopsPipeline(t *testing.T) {
	boom := errors.New("boom")
	var processed atomic.Int64
	p := New(context.Background())
	flow := Source(p, "src", intRange(1000))
	stage := Via(flow, Stage[int, int]{
		Name:    "explode",
		Workers: 2,
		Fn: func(_ context.Context, v int) (int, error) {
			if v == 5 {
				return 0, boom
			}
			processed.Add(1)
			return v, nil
		},
	})
	Drain(stage, "sink", func(context.Context, int) error { return nil })
	err := p.Wait()
	if !errors.Is(err, boom) {
		t.Fatalf("Wait = %v, want %v", err, boom)
	}
	if !strings.Contains(err.Error(), "explode") {
		t.Errorf("error %q does not name the failing stage", err)
	}
	if n := processed.Load(); n >= 1000 {
		t.Errorf("abort did not stop the stream: %d items processed", n)
	}
}

func TestSkipPolicyDropsFailedItems(t *testing.T) {
	bad := errors.New("bad item")
	p := New(context.Background())
	flow := Source(p, "src", intRange(20))
	stage := Via(flow, Stage[int, int]{
		Name:    "picky",
		Workers: 4,
		Policy:  Skip,
		Fn: func(_ context.Context, v int) (int, error) {
			if v%5 == 0 {
				return 0, fmt.Errorf("%w: %d", bad, v)
			}
			return v, nil
		},
	})
	col := Collect(stage, "collect")
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(col.Items()) != 16 { // 20 minus {0,5,10,15}
		t.Fatalf("collected %d, want 16", len(col.Items()))
	}
	// Order preserved among survivors.
	prev := -1
	for _, v := range col.Items() {
		if v <= prev {
			t.Fatalf("order not preserved: %v", col.Items())
		}
		prev = v
	}
	var st StageStats
	for _, s := range p.Stats() {
		if s.Name == "picky" {
			st = s
		}
	}
	if st.In != 20 || st.Out != 16 || st.Skipped != 4 {
		t.Errorf("stats = %+v, want in=20 out=16 skipped=4", st)
	}
	errs := p.SkippedErrors()
	if len(errs) != 4 {
		t.Fatalf("SkippedErrors = %d, want 4", len(errs))
	}
	for _, err := range errs {
		if !errors.Is(err, bad) {
			t.Errorf("skipped error %v does not wrap the cause", err)
		}
	}
}

func TestRetryPolicyRecovers(t *testing.T) {
	var mu sync.Mutex
	failures := map[int]int{3: 2, 7: 1} // item → failures before success
	p := New(context.Background())
	flow := Source(p, "src", intRange(10))
	stage := Via(flow, Stage[int, int]{
		Name:    "flaky",
		Workers: 2,
		Retries: 2,
		Fn: func(_ context.Context, v int) (int, error) {
			mu.Lock()
			defer mu.Unlock()
			if failures[v] > 0 {
				failures[v]--
				return 0, errors.New("transient")
			}
			return v, nil
		},
	})
	col := Collect(stage, "collect")
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(col.Items()) != 10 {
		t.Fatalf("collected %d, want 10 (retries should recover)", len(col.Items()))
	}
	for _, s := range p.Stats() {
		if s.Name == "flaky" && s.Retries != 3 {
			t.Errorf("retries = %d, want 3", s.Retries)
		}
	}
}

func TestRetryExhaustionAppliesPolicy(t *testing.T) {
	always := errors.New("always fails")
	var attempts atomic.Int64
	p := New(context.Background())
	flow := Source(p, "src", []int{1})
	stage := Via(flow, Stage[int, int]{
		Name:    "doomed",
		Retries: 2,
		Fn: func(_ context.Context, _ int) (int, error) {
			attempts.Add(1)
			return 0, always
		},
	})
	Drain(stage, "sink", func(context.Context, int) error { return nil })
	if err := p.Wait(); !errors.Is(err, always) {
		t.Fatalf("Wait = %v, want %v", err, always)
	}
	if n := attempts.Load(); n != 3 {
		t.Errorf("attempts = %d, want 3 (1 + 2 retries)", n)
	}
}

func TestContextCancellationPropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	var processed atomic.Int64
	p := New(ctx)
	flow := Source(p, "src", intRange(10_000))
	stage := Via(flow, Stage[int, int]{
		Name:    "work",
		Workers: 2,
		Fn: func(c context.Context, v int) (int, error) {
			once.Do(func() { close(started) })
			processed.Add(1)
			select {
			case <-c.Done():
				return 0, c.Err()
			case <-time.After(100 * time.Microsecond):
				return v, nil
			}
		},
	})
	Drain(stage, "sink", func(context.Context, int) error { return nil })
	<-started
	cancel()
	done := make(chan error, 1)
	go func() { done <- p.Wait() }()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Wait = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pipeline did not shut down after cancellation")
	}
	if n := processed.Load(); n >= 10_000 {
		t.Errorf("cancellation did not cut the stream short (%d processed)", n)
	}
}

func TestSourceFuncErrorAborts(t *testing.T) {
	genErr := errors.New("generator failed")
	p := New(context.Background())
	flow := SourceFunc(p, "gen", func(_ context.Context, emit func(int) error) error {
		if err := emit(1); err != nil {
			return err
		}
		return genErr
	})
	Drain(flow, "sink", func(context.Context, int) error { return nil })
	if err := p.Wait(); !errors.Is(err, genErr) {
		t.Fatalf("Wait = %v, want %v", err, genErr)
	}
}

func TestDrainErrorAborts(t *testing.T) {
	sinkErr := errors.New("sink failed")
	p := New(context.Background())
	flow := Source(p, "src", intRange(100))
	Drain(flow, "sink", func(_ context.Context, v int) error {
		if v == 3 {
			return sinkErr
		}
		return nil
	})
	if err := p.Wait(); !errors.Is(err, sinkErr) {
		t.Fatalf("Wait = %v, want %v", err, sinkErr)
	}
}

func TestStatsAndMetrics(t *testing.T) {
	set := metrics.NewSet()
	p := New(context.Background(), WithInstruments(set))
	flow := Source(p, "src", intRange(25))
	stage := Via(flow, Stage[int, int]{
		Name:    "work",
		Workers: 4,
		Fn: func(_ context.Context, v int) (int, error) {
			time.Sleep(100 * time.Microsecond)
			return v, nil
		},
	})
	col := Collect(stage, "collect")
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	_ = col
	stats := p.Stats()
	if len(stats) != 3 {
		t.Fatalf("stats for %d stages, want 3", len(stats))
	}
	names := []string{"src", "work", "collect"}
	for i, s := range stats {
		if s.Name != names[i] {
			t.Errorf("stage %d = %q, want %q (wiring order)", i, s.Name, names[i])
		}
	}
	work := stats[1]
	if work.In != 25 || work.Out != 25 {
		t.Errorf("work in/out = %d/%d, want 25/25", work.In, work.Out)
	}
	if work.Mean <= 0 {
		t.Error("work stage recorded no latency")
	}
	// The stage monitor is reachable through the pipeline's Set.
	mon := set.Counter("richsdk_pipeline_stage_invocations_total", "", metrics.Label{Name: "stage", Value: "work"})
	if got := mon.Value(); got != 25 {
		t.Errorf("monitor count = %d, want 25", got)
	}
}

func TestBackpressureBoundsInFlight(t *testing.T) {
	const workers, buffer = 2, 1
	var inFlight, maxSeen atomic.Int64
	gate := make(chan struct{})
	p := New(context.Background())
	flow := Source(p, "src", intRange(64))
	stage := Via(flow, Stage[int, int]{
		Name:    "gated",
		Workers: workers,
		Buffer:  buffer,
		Fn: func(_ context.Context, v int) (int, error) {
			cur := inFlight.Add(1)
			for {
				prev := maxSeen.Load()
				if cur <= prev || maxSeen.CompareAndSwap(prev, cur) {
					break
				}
			}
			<-gate
			inFlight.Add(-1)
			return v, nil
		},
	})
	Drain(stage, "sink", func(context.Context, int) error { return nil })
	// Let the pipeline saturate, then release everything.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if maxSeen.Load() > workers {
		t.Errorf("%d items executing concurrently, want <= %d workers", maxSeen.Load(), workers)
	}
}

func TestWaitReturnsNilOnEmptySource(t *testing.T) {
	p := New(context.Background())
	flow := Source(p, "src", []int(nil))
	col := Collect(Via(flow, Stage[int, int]{
		Name: "noop",
		Fn:   func(_ context.Context, v int) (int, error) { return v, nil },
	}), "collect")
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(col.Items()) != 0 {
		t.Fatalf("collected %d from empty source", len(col.Items()))
	}
}
