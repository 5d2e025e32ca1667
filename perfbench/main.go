// Command perfbench is the repository's benchmark. It drives the rich SDK
// through its public entry points on one of three closed-loop workloads,
// checks every output against the engines' direct results, and prints each
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload invoke-hot --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with span
// recording off. With --trace 1 the timed phase alternates untraced and
// traced slices; the metrics are the per-layer ones, read from the spans
// the benchmark records around its calls into each layer, and the spans
// themselves are written to .bench_build/spans-<workload>.jsonl under the
// working directory.
//
// The command exits non-zero when any operation fails or any output
// differs from the expected one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	fault    bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	fs.BoolVar(&o.fault, "inject-fault", false, "corrupt one output during the timed phase (self-test of the output checks)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	o.trace = traceFlag == 1
	res, err := measure(w, o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed or returned wrong output\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one set-up workload environment.
type bench interface {
	// do runs client c's next request from its seeded stream. It returns
	// the latency series the request belongs to, the units of work it
	// completed, its latency (output checks excluded) and any failure,
	// output mismatches included.
	do(c int) (kind int, units int, lat time.Duration, err error)
	// counters returns cumulative counters read from the layers' own
	// statistics.
	counters() map[string]float64
	close()
}

// workload describes one workload.
type workload struct {
	name string
	// clients is the number of closed-loop client goroutines.
	clients int
	// kinds is the number of latency series do reports.
	kinds int
	// inputs makes the run's inputs from the seed: the material of the
	// request streams and the expected outputs. It runs once per run,
	// outside the set-up timer.
	inputs func(seed int64) (any, error)
	// setup builds the system under test on the inputs and warms it;
	// setup_s times it.
	setup func(seed int64, in any, rec *recorder, f *fault) (bench, error)
	// report prints the workload's named end-to-end metrics and returns
	// the generic ones the JSON line carries.
	report func(w io.Writer, p *phase) map[string]metric
	// predictions are the bypass predictions the traced run checks.
	predictions []prediction
}

var workloads = map[string]*workload{}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// phase accumulates the measurements of one mode (traced or untraced)
// across the slices that ran in it.
type phase struct {
	wall     time.Duration
	ops      int64
	units    int64
	failed   int64
	byKind   []int64
	lat      [][]time.Duration
	counters map[string]float64
	mallocs  uint64
	alloc    uint64
	gcs      uint32
	pause    time.Duration
	firstErr error
}

func newPhase(kinds int) *phase {
	return &phase{byKind: make([]int64, kinds), lat: make([][]time.Duration, kinds), counters: map[string]float64{}}
}

func (p *phase) perSecond(n float64) float64 {
	if p.wall <= 0 {
		return 0
	}
	return n / p.wall.Seconds()
}

// clientStats is one client goroutine's share of a slice.
type clientStats struct {
	ops, units, failed int64
	byKind             []int64
	lat                [][]time.Duration
	firstErr           error
}

// runSlice runs every client closed-loop for d and folds the slice into p.
func runSlice(w *workload, b bench, d time.Duration, p *phase) {
	before := b.counters()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	stats := make([]clientStats, w.clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < w.clients; c++ {
		cs := &stats[c]
		cs.byKind = make([]int64, w.kinds)
		cs.lat = make([][]time.Duration, w.kinds)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				kind, units, lat, err := b.do(c)
				cs.ops++
				cs.byKind[kind]++
				if err != nil {
					cs.failed++
					if cs.firstErr == nil {
						cs.firstErr = err
					}
					continue
				}
				cs.units += int64(units)
				cs.lat[kind] = append(cs.lat[kind], lat)
			}
		}(c)
	}
	wg.Wait()
	p.wall += time.Since(start)
	runtime.ReadMemStats(&ms1)
	after := b.counters()
	for k, v := range after {
		p.counters[k] += v - before[k]
	}
	p.mallocs += ms1.Mallocs - ms0.Mallocs
	p.alloc += ms1.TotalAlloc - ms0.TotalAlloc
	p.gcs += ms1.NumGC - ms0.NumGC
	p.pause += time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	for _, cs := range stats {
		p.ops += cs.ops
		p.units += cs.units
		p.failed += cs.failed
		for k := 0; k < w.kinds; k++ {
			p.byKind[k] += cs.byKind[k]
			p.lat[k] = append(p.lat[k], cs.lat[k]...)
		}
		if p.firstErr == nil {
			p.firstErr = cs.firstErr
		}
	}
}

// traceSlice is the length of one slice of a traced run; traced and
// untraced slices alternate so both see the same drift in machine load.
const traceSlice = 500 * time.Millisecond

// setups is the number of set-ups per run; setup_s is their median.
const setups = 5

// warmup runs before the timed phase, after the last set-up, so that
// connection pools and the collector's pacing reach their steady state.
const warmup = 500 * time.Millisecond

func measure(w *workload, o options, out io.Writer) (*result, error) {
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%g trace=%t GOMAXPROCS=%d nproc=%d go=%s\n",
		w.name, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	in, err := w.inputs(o.seed)
	if err != nil {
		return nil, fmt.Errorf("%s inputs: %w", w.name, err)
	}
	rec := newRecorder()
	f := &fault{enabled: o.fault}
	var b bench
	setupTimes := make([]float64, 0, setups)
	for i := 0; i < setups; i++ {
		if b != nil {
			b.close()
			b = nil
		}
		runtime.GC()
		start := time.Now()
		nb, err := w.setup(o.seed, in, rec, f)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		b = nb
	}
	defer b.close()
	runtime.GC()
	runSlice(w, b, warmup, newPhase(w.kinds))

	f.arm()
	total := time.Duration(o.seconds * float64(time.Second))
	untraced, traced := newPhase(w.kinds), newPhase(w.kinds)
	if !o.trace {
		runSlice(w, b, total, untraced)
	} else {
		for done, on := time.Duration(0), false; done < total; done, on = done+traceSlice, !on {
			d := min(traceSlice, total-done)
			rec.setOn(on)
			if on {
				runSlice(w, b, d, traced)
			} else {
				runSlice(w, b, d, untraced)
			}
		}
		rec.setOn(false)
	}

	res := &result{
		Attempted: untraced.ops + traced.ops,
		Failed:    untraced.failed + traced.failed,
		Metrics:   map[string]metric{},
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	failRatio := float64(res.Failed) / math.Max(1, float64(res.Attempted))
	fmt.Fprintf(out, "%-34s %.4g s (median of %d set-ups)\n", "setup_s", median(setupTimes), len(setupTimes))
	if !o.trace {
		gen := w.report(out, untraced)
		untraced.lat = nil // release the samples before measuring the heap
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heap := float64(ms.HeapAlloc) / 1e6
		fmt.Fprintf(out, "%-34s %.4g MB (live heap after a forced GC)\n", "heap_mb", heap)
		for k, v := range gen {
			res.Metrics[k] = v
		}
		res.Metrics["setup_s"] = metric{median(setupTimes), "s"}
		res.Metrics["heap_mb"] = metric{heap, "MB"}
	} else {
		layers := layers(rec, traced)
		layers["trace.overhead_frac"] = 1 - traced.perSecond(float64(traced.units))/untraced.perSecond(float64(untraced.units))
		layers["go.allocs_per_op"] = float64(untraced.mallocs) / math.Max(1, float64(untraced.ops))
		layers["go.alloc_bytes_per_op"] = float64(untraced.alloc) / math.Max(1, float64(untraced.ops))
		layers["go.gc_cycles"] = float64(untraced.gcs)
		layers["go.gc_pause_frac"] = untraced.pause.Seconds() / math.Max(1e-9, untraced.wall.Seconds())
		names := make([]string, 0, len(layers))
		for k := range layers {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			unit := layerUnits[k]
			fmt.Fprintf(out, "%-34s %.6g %s\n", k, layers[k], unit)
			res.Metrics[k] = metric{layers[k], unit}
		}
		fmt.Fprintf(out, "%-34s untraced %.6g/s, traced %.6g/s\n", "throughput",
			untraced.perSecond(float64(untraced.units)), traced.perSecond(float64(traced.units)))
		printPredictions(out, w.predictions, layers, rec)
		rec.printSummary(out)
		spans := ".bench_build/spans-" + w.name + ".jsonl"
		if err := rec.writeSpans(spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "# spans written to %s\n", spans)
	}
	fmt.Fprintf(out, "%-34s %.4g (%d of %d operations)\n", "fail_ratio", failRatio, res.Failed, res.Attempted)
	for _, p := range []*phase{untraced, traced} {
		if p.firstErr != nil {
			fmt.Fprintf(out, "# first failure: %v\n", p.firstErr)
			break
		}
	}
	return res, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place.
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + time.Duration(frac*float64(xs[lo+1]-xs[lo]))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// printLatency prints p50 and p99 of one series under the given names and
// returns them in microseconds.
func printLatency(w io.Writer, xs []time.Duration, name50, name99 string, scale float64, unit string) (p50, p99 float64) {
	p50, p99 = us(quantile(xs, 0.50)), us(quantile(xs, 0.99))
	fmt.Fprintf(w, "%-34s %.6g %s (n=%d)\n", name50, p50/scale, unit, len(xs))
	fmt.Fprintf(w, "%-34s %.6g %s (n=%d)\n", name99, p99/scale, unit, len(xs))
	return p50, p99
}
