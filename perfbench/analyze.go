package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
	"unicode"

	"repro/internal/aggregate"
	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/nlu"
	"repro/internal/pipeline"
	"repro/internal/search"
	"repro/internal/service"
	"repro/internal/webcorpus"
)

// analyze: one caller runs the Fig. 3/5 analytics loop back to back —
// search, fetch, NLU with two engines, aggregate, store the per-entity
// sentiment in the knowledge base as RDF, then infer. The SDK response
// cache is bypassed and the facade is unused, so the run isolates the
// search and NLU engines, the service transport, document fetch, the
// pipeline engine and the KB/RDF sink.
func init() {
	workloads["analyze"] = &workload{
		name:    "analyze",
		clients: 1,
		kinds:   1, // run
		inputs: func(seed int64) (any, error) {
			return newAnalyzeInputs(genCorpus(seed))
		},
		setup:  setupAnalyze,
		report: reportAnalyze,
		predictions: []prediction{
			{"cache.hit_ratio = 0", func(m map[string]float64, _ *recorder) bool { return m["cache.hit_ratio"] == 0 }},
			{"core.api spans absent", func(_ map[string]float64, rec *recorder) bool { return rec.get("core.api") == nil }},
		},
	}
}

const (
	searchName  = "search-g"
	nluBetaName = "nlu-beta"
	runLimit    = 10
	runWorkers  = 2
	warmRuns    = 3
)

// analyzeInputs are the query vocabulary and the expected primary
// analyses.
type analyzeInputs struct {
	vocab    [][]string        // per document with two or more: its distinct words of 5+ letters
	expected map[string][]byte // document URL -> nlu-alpha's direct output on the fetched text
}

func newAnalyzeInputs(c *webcorpus.Corpus) (*analyzeInputs, error) {
	engine := nlu.NewEngine(nlu.ProfileAlpha)
	in := &analyzeInputs{expected: make(map[string][]byte, len(c.Docs))}
	for _, d := range c.Docs {
		if v := docVocab(d.Body); len(v) >= 2 {
			in.vocab = append(in.vocab, v)
		}
		text := webcorpus.ExtractText(webcorpus.RenderHTML(d))
		body, err := json.Marshal(engine.Analyze(text))
		if err != nil {
			return nil, err
		}
		in.expected[d.URL] = body
	}
	return in, nil
}

func docVocab(text string) []string {
	seen := map[string]bool{}
	var out []string
	for _, w := range strings.FieldsFunc(strings.ToLower(text), func(r rune) bool { return !unicode.IsLetter(r) }) {
		if len(w) >= 5 && !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// analyzeStream is the caller's seeded sequence of two-term queries, both
// terms drawn from one corpus document's vocabulary.
type analyzeStream struct {
	rng   *rand.Rand
	vocab [][]string
}

func newAnalyzeStream(seed int64, in *analyzeInputs) *analyzeStream {
	return &analyzeStream{rng: streamRNG(seed, "analyze", 0), vocab: in.vocab}
}

func (s *analyzeStream) next() string {
	words := s.vocab[s.rng.Intn(len(s.vocab))]
	i := s.rng.Intn(len(words))
	j := (i + 1 + s.rng.Intn(len(words)-1)) % len(words)
	return words[i] + " " + words[j]
}

type analyzeBench struct {
	in     *analyzeInputs
	stream *analyzeStream
	cfg    pipeline.AnalysisConfig
	kb     *kb.KB
	sdk    *core.Client
	rec    *recorder
	facts  atomic.Int64 // Σ RDF graph size after each run's inference
	cs     closers
}

func setupAnalyze(seed int64, in any, rec *recorder, f *fault) (bench, error) {
	b := &analyzeBench{in: in.(*analyzeInputs), rec: rec}
	if err := b.init(seed, f); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// init builds the system under test. It generates the corpus again,
// because the corpus is part of that system here: it is indexed and
// served.
func (b *analyzeBench) init(seed int64, f *fault) error {
	corpus := genCorpus(seed)
	b.stream = newAnalyzeStream(seed, b.in)

	var err error
	b.sdk, err = core.NewClient(core.Config{Middleware: []core.Middleware{chainSpan(b.rec)}})
	if err != nil {
		return err
	}
	b.cs.add(b.sdk.Close)
	index := search.BuildIndex(corpus)
	searchInfo := service.Info{Name: searchName, Category: "search"}
	alphaInfo := service.Info{Name: nluName, Category: "nlu"}
	betaInfo := service.Info{Name: nluBetaName, Category: "nlu"}
	var alpha service.Service = nlu.NewEngine(nlu.ProfileAlpha).Service(alphaInfo)
	if f.enabled {
		alpha = corruptAnalysis{alpha, f}
	}
	for _, s := range []struct {
		svc  service.Service
		span string
	}{
		{search.NewEngine(searchName, index, search.TuningG).Service(searchInfo), "search.engine"},
		{alpha, "nlu.engine"},
		{nlu.NewEngine(nlu.ProfileBeta).Service(betaInfo), "nlu.engine"},
	} {
		remote, err := remoteService(&b.cs, b.rec, s.svc, s.span)
		if err != nil {
			return err
		}
		if err := b.sdk.Register(remote, core.WithCacheable()); err != nil {
			return err
		}
	}
	web, err := serve(timedHandler(b.rec, "webcorpus.serve", corpus.Handler()))
	if err != nil {
		return err
	}
	b.cs.add(web.close)
	b.kb, err = kb.New(kb.Config{})
	if err != nil {
		return err
	}
	tr := newTransport()
	b.cs.add(tr.CloseIdleConnections)
	b.cfg = pipeline.AnalysisConfig{
		Client:     b.sdk,
		Search:     searchName,
		NLU:        []string{nluName, nluBetaName},
		FetchURL:   web.URL,
		HTTPClient: &http.Client{Transport: timedTransport{base: tr, rec: b.rec, name: "webcorpus.fetch"}, Timeout: 10 * time.Second},
		Limit:      runLimit,
		Workers:    runWorkers,
		NoCache:    true,
		Sentiments: func(ctx context.Context, s []aggregate.EntitySentiment) error {
			ctx, sp := b.rec.start(ctx, "kb.sink")
			defer sp.end()
			return b.kb.StoreWebSentiments(ctx, s)
		},
	}
	for i := 0; i < warmRuns; i++ {
		if _, _, err := b.runOnce(); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (b *analyzeBench) do(int) (int, int, time.Duration, error) {
	docs, lat, err := b.runOnce()
	return 0, docs, lat, err
}

// runOnce runs the pipeline for the next query, then inference, and
// checks the result: every hit analyzed, and every primary analysis equal
// to the engine's direct output on the same text.
func (b *analyzeBench) runOnce() (int, time.Duration, error) {
	query := b.stream.next()
	start := time.Now()
	ctx, sp := b.rec.start(context.Background(), "analyze.op")
	rctx, rsp := b.rec.start(ctx, "pipeline.run")
	res, err := b.cfg.Run(rctx, query)
	rsp.end()
	if err != nil {
		sp.end()
		return 0, time.Since(start), err
	}
	_, isp := b.rec.start(ctx, "kb.infer")
	_, err = b.kb.Infer()
	isp.end()
	sp.end()
	lat := time.Since(start)
	if err != nil {
		return 0, lat, fmt.Errorf("infer: %w", err)
	}
	b.facts.Add(int64(b.kb.Graph().Len()))
	if len(res.Docs) != res.Hits {
		return 0, lat, fmt.Errorf("%w: query %q: %d docs for %d hits", errMismatch, query, len(res.Docs), res.Hits)
	}
	for _, d := range res.Docs {
		got, err := json.Marshal(d.Primary())
		if err != nil {
			return 0, lat, err
		}
		if want, ok := b.in.expected[d.Doc.URL]; !ok || string(got) != string(want) {
			return 0, lat, fmt.Errorf("%w: query %q: analysis of %s", errMismatch, query, d.Doc.URL)
		}
	}
	return len(res.Docs), lat, nil
}

func (b *analyzeBench) counters() map[string]float64 {
	m := sdkCounters(b.sdk)
	m["rdf.facts_sum"] = float64(b.facts.Load())
	return m
}

func (b *analyzeBench) close() { b.cs.closeAll() }

func reportAnalyze(w io.Writer, p *phase) map[string]metric {
	rate := p.perSecond(float64(p.units))
	fmt.Fprintf(w, "%-34s %.6g 1/s (n=%d docs in %d runs)\n", "docs_per_s", rate, p.units, p.ops)
	p50, p99 := printLatency(w, p.lat[0], "run_p50_ms", "run_p99_ms", 1e3, "ms")
	return map[string]metric{
		"ops_per_s": {rate, "1/s"},
		"p50_us":    {p50, "us"},
		"p99_us":    {p99, "us"},
	}
}

// corruptAnalysis changes the first analysis returned after the fault is
// armed, so it no longer matches the engine's direct output.
type corruptAnalysis struct {
	service.Service
	f *fault
}

func (c corruptAnalysis) Invoke(ctx context.Context, req service.Request) (service.Response, error) {
	resp, err := c.Service.Invoke(ctx, req)
	if err != nil || !c.f.fire() {
		return resp, err
	}
	a, err := nlu.DecodeAnalysis(resp)
	if err != nil {
		return resp, err
	}
	a.Sentiment = -a.Sentiment - 0.5
	return a.Encode()
}
