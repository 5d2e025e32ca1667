package main

import (
	"fmt"
	"io"
	"math"
	"time"
)

// layerUnits gives the unit of every per-layer metric.
var layerUnits = map[string]string{
	"core.api.self_us":                 "us",
	"core.chain.self_us":               "us",
	"core.retries":                     "count",
	"core.failures":                    "count",
	"http.loopback_us":                 "us",
	"cache.hit_ratio":                  "ratio",
	"cache.evictions":                  "count",
	"service.transport_us":             "us",
	"nlu.engine_us":                    "us",
	"search.engine_us":                 "us",
	"webcorpus.fetch_us":               "us",
	"webcorpus.serve_us":               "us",
	"pipeline.self_ms":                 "ms",
	"pipeline.parallelism":             "ratio",
	"kb.sink_us":                       "us",
	"kb.infer_us":                      "us",
	"rdf.facts":                        "count",
	"codec.encode_us":                  "us",
	"codec.decode_us":                  "us",
	"codec.ratio":                      "ratio",
	"remotestore.put.fanout_us":        "us",
	"remotestore.node.handle_us":       "us",
	"remotestore.node.requests_per_op": "ratio",
	"remotestore.cache_hit_ratio":      "ratio",
	"remotestore.bytes_per_user_byte":  "ratio",
	"remotestore.read_failovers":       "count",
	"remotestore.dropped_writes":       "count",
	"kvstore.op_us":                    "us",
	"go.allocs_per_op":                 "count",
	"go.alloc_bytes_per_op":            "B",
	"go.gc_cycles":                     "count",
	"go.gc_pause_frac":                 "ratio",
	"trace.overhead_frac":              "ratio",
}

// emptyLayers returns every per-layer metric at zero: a layer the
// workload never calls reports 0.
func emptyLayers() map[string]float64 {
	m := make(map[string]float64, len(layerUnits))
	for k := range layerUnits {
		m[k] = 0
	}
	return m
}

// layers computes every per-layer metric from the traced phase's span
// aggregates and counter deltas; a layer the workload never reached
// reports 0. Runtime statistics (go.*) and the tracing overhead are added
// by the caller from the untraced phase.
//
// Spans on either side of an HTTP hop are joined by aggregate: a hop's
// cost is the mean client-side span minus the mean server-side span.
func layers(rec *recorder, traced *phase) map[string]float64 {
	m := emptyLayers()
	c := traced.counters
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	api := rec.get("core.api")
	m["core.api.self_us"] = api.selfUS()
	m["core.chain.self_us"] = rec.get("core.chain").selfUS()
	m["core.retries"] = c["core.retries"]
	m["core.failures"] = c["core.failures"]
	if facade := rec.get("http.facade"); facade != nil {
		m["http.loopback_us"] = facade.meanUS() - api.meanUS()
	}
	m["cache.hit_ratio"] = ratio(c["cache.hits"], c["cache.hits"]+c["cache.misses"])
	m["cache.evictions"] = c["cache.evictions"]

	nluEngine, searchEngine := rec.get("nlu.engine"), rec.get("search.engine")
	if call := rec.get("service.call"); call != nil {
		m["service.transport_us"] = us(call.total-total(nluEngine)-total(searchEngine)) / float64(call.count)
	}
	m["nlu.engine_us"] = nluEngine.meanUS()
	m["search.engine_us"] = searchEngine.meanUS()
	m["webcorpus.fetch_us"] = rec.get("webcorpus.fetch").meanUS()
	m["webcorpus.serve_us"] = rec.get("webcorpus.serve").meanUS()
	if run := rec.get("pipeline.run"); run != nil {
		m["pipeline.self_ms"] = run.selfUS() / 1e3
		m["pipeline.parallelism"] = ratio(float64(run.child), float64(run.total))
	}
	m["kb.sink_us"] = rec.get("kb.sink").meanUS()
	m["kb.infer_us"] = rec.get("kb.infer").meanUS()
	m["rdf.facts"] = ratio(c["rdf.facts_sum"], float64(traced.ops))

	encode := rec.get("codec.encode")
	m["codec.encode_us"] = encode.meanUS()
	m["codec.decode_us"] = rec.get("codec.decode").meanUS()
	m["codec.ratio"] = ratio(c["codec.encoded_bytes"], c["codec.plain_bytes"])
	if put := rec.get("remotestore.put"); put != nil {
		m["remotestore.put.fanout_us"] = us(put.total-total(encode)) / float64(put.count)
	}
	m["remotestore.node.handle_us"] = rec.get("remotestore.node").meanUS()
	m["remotestore.node.requests_per_op"] = ratio(c["remotestore.node_requests"], float64(traced.ops))
	m["remotestore.cache_hit_ratio"] = ratio(c["remotestore.cache_hits"], c["remotestore.gets"])
	m["remotestore.bytes_per_user_byte"] = ratio(c["remotestore.bytes_sent"], c["remotestore.user_bytes"])
	m["remotestore.read_failovers"] = c["remotestore.read_failovers"]
	m["remotestore.dropped_writes"] = c["remotestore.dropped_writes"]
	m["kvstore.op_us"] = rec.get("kvstore.op").meanUS()
	return m
}

func total(a *spanAgg) time.Duration {
	if a == nil {
		return 0
	}
	return a.total
}

// prediction is a bypass prediction a traced run checks.
type prediction struct {
	text  string
	holds func(m map[string]float64, rec *recorder) bool
}

// printPredictions reports whether each of the workload's predictions
// held. A prediction that does not hold is a finding about the program,
// not a failed operation, so it does not change the exit code.
func printPredictions(w io.Writer, ps []prediction, m map[string]float64, rec *recorder) {
	for _, p := range ps {
		verdict := "holds"
		if !p.holds(m, rec) {
			verdict = "DOES NOT HOLD"
		}
		fmt.Fprintf(w, "# prediction: %s: %s\n", p.text, verdict)
	}
}

// transportShare is the service transport's share of client-observed
// request time.
func transportShare(rec *recorder, requestSpan string) float64 {
	req := rec.get(requestSpan)
	call := rec.get("service.call")
	if req == nil || req.total == 0 || call == nil {
		return 0
	}
	t := call.total - total(rec.get("nlu.engine")) - total(rec.get("search.engine"))
	return math.Max(0, float64(t)/float64(req.total))
}
