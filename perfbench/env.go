package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

// clients is the number of closed-loop client goroutines of the
// two-client workloads: one per core of the two-core machine the
// benchmark is sized for.
const clients = 2

// loopback is one HTTP server on a 127.0.0.1 port.
type loopback struct {
	URL  string
	srv  *http.Server
	done chan struct{}
}

// serve starts h on a fresh loopback port.
func serve(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	lb := &loopback{
		URL:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(lb.done)
		_ = lb.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return lb, nil
}

// close stops the server, drops its connections and waits for Serve to
// return.
func (lb *loopback) close() {
	_ = lb.srv.Close()
	<-lb.done
}

// closers releases an environment's resources in reverse order.
type closers []func()

func (c *closers) add(f func()) { *c = append(*c, f) }

func (c closers) closeAll() {
	for i := len(c) - 1; i >= 0; i-- {
		c[i]()
	}
}

// newTransport returns the benchmark's client transport: at most one
// connection per client goroutine and host.
func newTransport() *http.Transport {
	return &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, IdleConnTimeout: time.Minute}
}

// remoteService serves svc behind service.Handler on a loopback port, its
// engine Invoke wrapped in a span named engineSpan, and returns the
// service.HTTPClient that reaches it, wrapped in a "service.call" span.
func remoteService(cs *closers, rec *recorder, svc service.Service, engineSpan string) (service.Service, error) {
	lb, err := serve(service.Handler(timedService{Service: svc, rec: rec, name: engineSpan}))
	if err != nil {
		return nil, err
	}
	cs.add(lb.close)
	client := service.NewHTTPClient(svc.Info(), lb.URL, 10*time.Second)
	return timedService{Service: client, rec: rec, name: "service.call"}, nil
}

// timedService records a span around every Invoke.
type timedService struct {
	service.Service
	rec  *recorder
	name string
}

func (t timedService) Invoke(ctx context.Context, req service.Request) (service.Response, error) {
	ctx, sp := t.rec.start(ctx, t.name)
	defer sp.end()
	return t.Service.Invoke(ctx, req)
}

// chainSpan is a client-wide core.Config.Middleware: outermost in every
// registration's chain, so its span covers the whole middleware chain.
func chainSpan(rec *recorder) core.Middleware {
	return func(next core.Invoker) core.Invoker {
		return func(ctx context.Context, call *core.Call) (service.Response, error) {
			ctx, sp := rec.start(ctx, "core.chain")
			defer sp.end()
			return next(ctx, call)
		}
	}
}

// timedHandler records a span around every request h serves.
func timedHandler(rec *recorder, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, sp := rec.start(r.Context(), name)
		if sp.req != nil {
			r = r.WithContext(ctx)
		}
		h.ServeHTTP(w, r)
		sp.end()
	})
}

// timedTransport records a span from sending a request until its response
// body is closed.
type timedTransport struct {
	base http.RoundTripper
	rec  *recorder
	name string
}

func (t timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	_, sp := t.rec.start(req.Context(), t.name)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		sp.end()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	sp   span
	done atomic.Bool
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	if b.done.CompareAndSwap(false, true) {
		b.sp.end()
	}
	return err
}

// fault, when armed, lets exactly one wrapped call corrupt its output. It
// is the benchmark's self-test: a run with an armed fault must report a
// failure and exit non-zero.
type fault struct {
	enabled bool
	armed   atomic.Bool
	fired   atomic.Bool
}

// arm makes the next fire return true, if the fault is enabled.
func (f *fault) arm() {
	if f != nil && f.enabled {
		f.armed.Store(true)
	}
}

// fire reports whether the caller should corrupt this output: true once,
// for the first call after arm.
func (f *fault) fire() bool {
	return f != nil && f.armed.Load() && f.fired.CompareAndSwap(false, true)
}

var errMismatch = errors.New("output mismatch")
