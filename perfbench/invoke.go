package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/nlu"
	"repro/internal/service"
	"repro/internal/webcorpus"
)

// invoke-hot: POST /v1/invoke on the SDK's HTTP facade, texts drawn
// (Zipf) from a hot set of corpus documents sent to nlu-alpha. After the
// warm-up every call is a response-cache hit, so the run isolates the
// facade's HTTP/JSON path, the middleware chain and cache reads; the
// service transport and the engine sit idle behind the cache.
func init() {
	workloads["invoke-hot"] = &workload{
		name:    "invoke-hot",
		clients: clients,
		kinds:   1, // invoke
		inputs: func(seed int64) (any, error) {
			return newInvokeInputs(genCorpus(seed), seed)
		},
		setup:  setupInvoke,
		report: reportInvoke,
		predictions: []prediction{
			{"cache.hit_ratio >= 0.99", func(m map[string]float64, _ *recorder) bool { return m["cache.hit_ratio"] >= 0.99 }},
			{"service transport < 1% of request time", func(_ map[string]float64, rec *recorder) bool {
				return transportShare(rec, "http.facade") < 0.01
			}},
		},
	}
}

const (
	hotDocs = 64
	hotSkew = 1.0 // Zipf exponent over the hot set
	nluName = "nlu-alpha"
)

// invokeInputs are the hot set's requests and expected outputs.
type invokeInputs struct {
	bodies   [][]byte // POST /v1/invoke bodies
	expected [][]byte // nlu-alpha's direct output for each text
	want     [][]byte // the facade's encoding of expected, for a fast compare
}

func newInvokeInputs(c *webcorpus.Corpus, seed int64) (*invokeInputs, error) {
	pick := streamRNG(seed, "invoke-hot/hotset", 0).Perm(len(c.Docs))[:hotDocs]
	engine := nlu.NewEngine(nlu.ProfileAlpha)
	in := &invokeInputs{}
	for _, i := range pick {
		text := c.Docs[i].Body
		body, err := json.Marshal(map[string]any{
			"service": nluName,
			"request": service.Request{Op: "analyze", Text: text},
		})
		if err != nil {
			return nil, err
		}
		direct, err := engine.Analyze(text).Encode()
		if err != nil {
			return nil, err
		}
		want, err := json.Marshal(service.Response{Body: direct.Body, ContentType: direct.ContentType})
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, body)
		in.expected = append(in.expected, direct.Body)
		in.want = append(in.want, append(want, '\n'))
	}
	return in, nil
}

// invokeStream is one client's seeded sequence of hot-set indices.
type invokeStream struct {
	rng *rand.Rand
	z   zipf
}

func newInvokeStream(seed int64, client int) *invokeStream {
	return &invokeStream{rng: streamRNG(seed, "invoke-hot", client), z: newZipf(hotDocs, hotSkew)}
}

func (s *invokeStream) next() int { return s.z.draw(s.rng) }

type invokeBench struct {
	in      *invokeInputs
	streams []*invokeStream
	bufs    []*bytes.Buffer
	url     string
	http    *http.Client
	rec     *recorder
	sdk     *core.Client
	cs      closers
}

func setupInvoke(seed int64, in any, rec *recorder, f *fault) (bench, error) {
	b := &invokeBench{in: in.(*invokeInputs), rec: rec}
	if err := b.init(seed, f); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *invokeBench) init(seed int64, f *fault) error {
	info := service.Info{Name: nluName, Category: "nlu"}
	remote, err := remoteService(&b.cs, b.rec, nlu.NewEngine(nlu.ProfileAlpha).Service(info), "nlu.engine")
	if err != nil {
		return err
	}
	b.sdk, err = core.NewClient(core.Config{Middleware: []core.Middleware{chainSpan(b.rec)}})
	if err != nil {
		return err
	}
	b.cs.add(b.sdk.Close)
	if err := b.sdk.Register(remote, core.WithCacheable()); err != nil {
		return err
	}
	var h http.Handler = timedHandler(b.rec, "core.api", core.NewAPI(b.sdk))
	h = corruptFacade(h, f)
	lb, err := serve(h)
	if err != nil {
		return err
	}
	b.cs.add(lb.close)
	b.url = lb.URL + "/v1/invoke"
	tr := newTransport()
	b.cs.add(tr.CloseIdleConnections)
	b.http = &http.Client{Transport: tr, Timeout: 10 * time.Second}
	for c := 0; c < clients; c++ {
		b.streams = append(b.streams, newInvokeStream(seed, c))
		b.bufs = append(b.bufs, new(bytes.Buffer))
	}
	// Warm the response cache: one call per hot document.
	for i := range b.in.bodies {
		if _, err := b.call(0, i); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (b *invokeBench) do(c int) (int, int, time.Duration, error) {
	lat, err := b.call(c, b.streams[c].next())
	return 0, 1, lat, err
}

// call posts hot document i through the facade and checks the response
// body against the engine's direct output.
func (b *invokeBench) call(c, i int) (time.Duration, error) {
	buf := b.bufs[c]
	buf.Reset()
	start := time.Now()
	ctx, sp := b.rec.start(context.Background(), "http.facade")
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url, bytes.NewReader(b.in.bodies[i]))
	if err != nil {
		sp.end()
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := b.http.Do(req)
	if err != nil {
		sp.end()
		return time.Since(start), err
	}
	_, err = buf.ReadFrom(resp.Body)
	_ = resp.Body.Close()
	sp.end()
	lat := time.Since(start)
	if err != nil {
		return lat, fmt.Errorf("read response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return lat, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	if bytes.Equal(buf.Bytes(), b.in.want[i]) {
		return lat, nil
	}
	var got service.Response
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		return lat, fmt.Errorf("decode response: %w", err)
	}
	if !bytes.Equal(got.Body, b.in.expected[i]) {
		return lat, fmt.Errorf("%w: hot document %d", errMismatch, i)
	}
	return lat, nil
}

func (b *invokeBench) counters() map[string]float64 {
	return sdkCounters(b.sdk)
}

func (b *invokeBench) close() { b.cs.closeAll() }

// sdkCounters reads the core client's cache and monitor statistics.
func sdkCounters(sdk *core.Client) map[string]float64 {
	cs := sdk.CacheStats()
	m := map[string]float64{
		"cache.hits":      float64(cs.Hits),
		"cache.misses":    float64(cs.Misses),
		"cache.evictions": float64(cs.Evictions),
	}
	for _, s := range sdk.Stats() {
		m["core.retries"] += float64(s.Retries)
		m["core.failures"] += float64(s.Failures)
	}
	return m
}

func reportInvoke(w io.Writer, p *phase) map[string]metric {
	rate := p.perSecond(float64(p.units))
	fmt.Fprintf(w, "%-34s %.6g 1/s (n=%d)\n", "invoke_per_s", rate, p.units)
	p50, p99 := printLatency(w, p.lat[0], "invoke_p50_us", "invoke_p99_us", 1, "us")
	return map[string]metric{
		"ops_per_s": {rate, "1/s"},
		"p50_us":    {p50, "us"},
		"p99_us":    {p99, "us"},
	}
}

// corruptFacade answers the first request after the fault is armed with a
// well-formed facade response whose body is not the engine's output.
func corruptFacade(h http.Handler, f *fault) http.Handler {
	if !f.enabled {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !f.fire() {
			h.ServeHTTP(w, r)
			return
		}
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"body":"e30=","contentType":"application/json"}` + "\n"))
	})
}
