package metrics

import (
	"bytes"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// parseExposition is a strict line-oriented parser for the subset of the
// Prometheus text format the writer emits. It returns sample values keyed
// by "name{labels}" and fails the test on any malformed line.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (NaN|[+-]Inf|[0-9eE+.-]+)$`)
	labelRe := regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"$`)
	typed := map[string]string{}
	samples := map[string]float64{}
	for i, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			continue
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", i+1, line)
			}
			switch parts[3] {
			case "counter", "gauge", "summary", "histogram", "untyped":
			default:
				t.Fatalf("line %d: bad metric type %q", i+1, parts[3])
			}
			typed[parts[2]] = parts[3]
		default:
			m := sampleRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed sample: %q", i+1, line)
			}
			if m[2] != "" {
				for _, l := range strings.Split(m[2][1:len(m[2])-1], ",") {
					if !labelRe.MatchString(l) {
						t.Fatalf("line %d: malformed label %q", i+1, l)
					}
				}
			}
			base := strings.TrimSuffix(strings.TrimSuffix(m[1], "_sum"), "_count")
			if _, ok := typed[m[1]]; !ok {
				if _, ok := typed[base]; !ok {
					t.Fatalf("line %d: sample %q has no TYPE header", i+1, m[1])
				}
			}
			v, err := strconv.ParseFloat(m[3], 64)
			if err != nil && m[3] != "NaN" && m[3] != "+Inf" && m[3] != "-Inf" {
				t.Fatalf("line %d: bad value %q", i+1, m[3])
			}
			samples[m[1]+m[2]] = v
		}
	}
	return samples
}

func TestTextWriterFormat(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTextWriter(&buf)
	tw.Family("demo_total", "A counter with \"quotes\" and\nnewline help.", "counter")
	tw.Metric("demo_total", 3, Label{"svc", `we"ird\name`}, Label{"mode", "fast"})
	tw.Family("demo_gauge", "A gauge.", "gauge")
	tw.Metric("demo_gauge", math.NaN())
	tw.Metric("demo_gauge", math.Inf(1), Label{"kind", "up"})
	if err := tw.Err(); err != nil {
		t.Fatal(err)
	}
	samples := parseExposition(t, buf.String())
	if got := samples[`demo_total{svc="we\"ird\\name",mode="fast"}`]; got != 3 {
		t.Errorf("escaped sample = %v, want 3 (have %v)", got, samples)
	}
	if !strings.Contains(buf.String(), `\n`) || strings.Count(buf.String(), "# HELP demo_total") != 1 {
		t.Errorf("help escaping wrong:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "demo_gauge NaN") {
		t.Errorf("NaN rendering wrong:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), `demo_gauge{kind="up"} +Inf`) {
		t.Errorf("+Inf rendering wrong:\n%s", buf.String())
	}
}
