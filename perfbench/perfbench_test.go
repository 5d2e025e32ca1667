package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// requestStream returns the first n requests of every client of workload
// as bytes: exactly what the benchmark would send, preload included.
func requestStream(t *testing.T, workload string, seed int64, n int) []byte {
	t.Helper()
	corpus := genCorpus(seed)
	var buf bytes.Buffer
	switch workload {
	case "invoke-hot":
		in, err := newInvokeInputs(corpus, seed)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < workloads[workload].clients; c++ {
			s := newInvokeStream(seed, c)
			for i := 0; i < n; i++ {
				buf.Write(in.bodies[s.next()])
			}
		}
	case "analyze":
		in, err := newAnalyzeInputs(corpus)
		if err != nil {
			t.Fatal(err)
		}
		s := newAnalyzeStream(seed, in)
		for i := 0; i < n; i++ {
			fmt.Fprintln(&buf, s.next())
		}
	case "kb-store":
		in, err := newStoreInputs(corpus, seed)
		if err != nil {
			t.Fatal(err)
		}
		for c := range in.keys {
			for k, key := range in.keys[c] {
				fmt.Fprintf(&buf, "PUT %s %s\n", key, in.values[in.initial[c][k]])
			}
			s := newStoreStream(seed, c)
			for i := 0; i < n; i++ {
				op := s.next()
				if op.put {
					fmt.Fprintf(&buf, "PUT %s %s\n", in.keys[c][op.key], in.values[op.val])
				} else {
					fmt.Fprintf(&buf, "GET %s\n", in.keys[c][op.key])
				}
			}
		}
	default:
		t.Fatalf("no request stream for workload %q", workload)
	}
	return buf.Bytes()
}

func TestRequestStreamsDeterministic(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			a := requestStream(t, w, 7, 500)
			b := requestStream(t, w, 7, 500)
			if !bytes.Equal(a, b) {
				t.Fatal("the same seed produced different request streams")
			}
			if bytes.Equal(a, requestStream(t, w, 8, 500)) {
				t.Fatal("different seeds produced the same request stream")
			}
		})
	}
}

// benchmarkSpec is the part of BENCHMARK.json the command must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// shortRun runs the command for one second in a temporary working
// directory, which receives the traced run's spans.
func shortRun(t *testing.T, workload string, extra ...string) (int, string, result) {
	t.Helper()
	t.Chdir(t.TempDir())
	args := append([]string{"--workload", workload, "--seed", "3", "--seconds", "1"}, extra...)
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	out := strings.TrimSpace(stdout.String())
	lines := strings.Split(out, "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\nstdout:\n%s\nstderr:\n%s", err, out, stderr.String())
	}
	return code, out, res
}

func TestSpecMatchesWorkloads(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Fatalf("BENCHMARK.json workloads %s, command workloads %s", got, want)
	}
	for _, m := range spec.PerLayer {
		if layerUnits[m.Name] != m.Unit {
			t.Errorf("per-layer metric %s: BENCHMARK.json unit %q, command unit %q", m.Name, m.Unit, layerUnits[m.Name])
		}
	}
	if len(spec.PerLayer) != len(layerUnits) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the command reports %d", len(spec.PerLayer), len(layerUnits))
	}
}

// namedMetrics are the per-workload end-to-end metrics printed by name.
var namedMetrics = map[string][]string{
	"invoke-hot": {"invoke_per_s 1/s", "invoke_p50_us us", "invoke_p99_us us"},
	"analyze":    {"docs_per_s 1/s", "run_p50_ms ms", "run_p99_ms ms"},
	"kb-store":   {"store_ops_per_s 1/s", "get_p50_us us", "get_p99_us us", "put_p50_us us", "put_p99_us us"},
}

func TestShortRunPrintsEveryMetric(t *testing.T) {
	spec := readSpec(t)
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			code, out, res := shortRun(t, w, "--trace", "0")
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("exit %d, result %+v\n%s", code, res, out)
			}
			for _, m := range spec.EndToEnd {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("end-to-end metric %s: got %+v, want a positive value in %s", m.Name, got, m.Unit)
				}
			}
			if len(res.Metrics) != len(spec.EndToEnd) {
				t.Errorf("result has %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(spec.EndToEnd))
			}
			for _, nm := range append(namedMetrics[w], "setup_s s", "heap_mb MB") {
				name, unit, _ := strings.Cut(nm, " ")
				if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` +[0-9.e+-]+ ` + regexp.QuoteMeta(unit) + `\b`).MatchString(out) {
					t.Errorf("no line for %s in %s:\n%s", name, unit, out)
				}
			}
			if !regexp.MustCompile(`(?m)^fail_ratio +0 \(0 of [0-9]+ operations\)`).MatchString(out) {
				t.Errorf("no fail_ratio line:\n%s", out)
			}

			code, out, res = shortRun(t, w, "--trace", "1")
			if code != 0 || !res.Correct {
				t.Fatalf("traced run: exit %d, result %+v\n%s", code, res, out)
			}
			for _, m := range spec.PerLayer {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
				}
			}
			if strings.Contains(out, "DOES NOT HOLD") {
				t.Errorf("a bypass prediction failed:\n%s", out)
			}
		})
	}
}

func TestInjectedFaultFailsTheRun(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			code, out, res := shortRun(t, w, "--trace", "0", "--inject-fault")
			if code == 0 || res.Correct || res.Failed < 1 {
				t.Fatalf("a corrupted output went unnoticed: exit %d, result %+v\n%s", code, res, out)
			}
			if !strings.Contains(out, errMismatch.Error()) {
				t.Errorf("the failure is not reported as an output mismatch:\n%s", out)
			}
		})
	}
}
