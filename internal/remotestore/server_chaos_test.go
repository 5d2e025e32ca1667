package remotestore

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestLatencyCancelReleasesHandler is the regression test for the
// context-blind latency sleep: with a 2s injected latency and a client that
// is already gone, the handler must return almost immediately instead of
// pinning its goroutine for the full injected duration. On the pre-fix code
// (bare time.Sleep) this test times out the 500ms budget.
func TestLatencyCancelReleasesHandler(t *testing.T) {
	srv := NewServer(nil)
	srv.SetLatency(2 * time.Second)
	h := srv.Handler()

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client has already disconnected
	req := httptest.NewRequest("GET", "/kv/some-key", nil).WithContext(ctx)

	start := time.Now()
	h.ServeHTTP(httptest.NewRecorder(), req)
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Fatalf("handler held for %v after client cancel; want near-immediate return", el)
	}
}

// TestPutOversizedRejected413 is the regression test for silent
// truncation: a body over the object limit must be rejected with 413 and
// must NOT be stored. On the pre-fix code the server stored the first
// maxBytes bytes and answered success.
func TestPutOversizedRejected413(t *testing.T) {
	srv := NewServer(nil, WithMaxBytes(1024))
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	big := bytes.Repeat([]byte("x"), 2048)
	req, _ := http.NewRequest("PUT", hs.URL+"/kv/big", bytes.NewReader(big))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized PUT status = %d, want 413", resp.StatusCode)
	}
	if got, _ := http.Get(hs.URL + "/kv/big"); got.StatusCode != http.StatusNotFound {
		t.Fatalf("oversized object was stored (GET = %d), want 404", got.StatusCode)
	}
	if n := srv.BytesIn(); n != 0 {
		t.Errorf("rejected payload counted toward BytesIn (%d), want 0", n)
	}
}

// TestPutExactLimitRoundTrips pins the boundary: a body of exactly the
// limit is accepted and round-trips byte-identically.
func TestPutExactLimitRoundTrips(t *testing.T) {
	srv := NewServer(nil, WithMaxBytes(1024))
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	body := bytes.Repeat([]byte("y"), 1024)
	req, _ := http.NewRequest("PUT", hs.URL+"/kv/edge", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("exact-limit PUT status = %d, want 204", resp.StatusCode)
	}
	got, err := http.Get(hs.URL + "/kv/edge")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(got.Body)
	got.Body.Close()
	if !bytes.Equal(data, body) {
		t.Fatalf("round-trip mismatch: got %d bytes, want %d identical bytes", len(data), len(body))
	}
}

// TestServerFailRateInjection scripts a random-5xx burst and verifies it is
// total at rate 1, absent at rate 0, and deterministic under a fixed seed.
func TestServerFailRateInjection(t *testing.T) {
	srv := NewServer(nil, WithSeed(42))
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	put := func(k string) int {
		req, _ := http.NewRequest("PUT", hs.URL+"/kv/"+k, strings.NewReader("v"))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	srv.SetFailRate(1)
	if code := put("a"); code != http.StatusServiceUnavailable {
		t.Fatalf("at failrate 1 status = %d, want 503", code)
	}
	srv.SetFailRate(0)
	if code := put("b"); code != http.StatusNoContent {
		t.Fatalf("at failrate 0 status = %d, want 204", code)
	}
}

// TestSlowDripBody verifies the slow-drip chaos mode: the full body still
// arrives, but paced across inter-chunk delays.
func TestSlowDripBody(t *testing.T) {
	srv := NewServer(nil)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	body := bytes.Repeat([]byte("d"), 64)
	req, _ := http.NewRequest("PUT", hs.URL+"/kv/drip", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	srv.SetSlowDrip(16, 5*time.Millisecond) // 64 bytes => 4 chunks, 3 delays
	start := time.Now()
	got, err := http.Get(hs.URL + "/kv/drip")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(got.Body)
	got.Body.Close()
	el := time.Since(start)
	if !bytes.Equal(data, body) {
		t.Fatalf("dripped body mismatch: got %d bytes", len(data))
	}
	if el < 12*time.Millisecond {
		t.Errorf("dripped GET took %v, want >= ~15ms across 3 inter-chunk delays", el)
	}

	srv.SetSlowDrip(0, 0)
	got2, err := http.Get(hs.URL + "/kv/drip")
	if err != nil {
		t.Fatal(err)
	}
	data2, _ := io.ReadAll(got2.Body)
	got2.Body.Close()
	if !bytes.Equal(data2, body) {
		t.Fatalf("post-drip body mismatch")
	}
}

// oversizedNode is a hostile store node: Put succeeds, but every Get
// answers 200 with a body one byte over DefaultMaxObjectBytes. With
// declared set the body carries that Content-Length; otherwise it is
// streamed chunked, so only the client's read limit can stop it.
func oversizedNode(t *testing.T, declared bool) *httptest.Server {
	t.Helper()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		total := int64(DefaultMaxObjectBytes) + 1
		if declared {
			w.Header().Set("Content-Length", strconv.FormatInt(total, 10))
		}
		w.WriteHeader(http.StatusOK)
		chunk := make([]byte, 1<<20)
		for sent := int64(0); sent < total; {
			n := min(int64(len(chunk)), total-sent)
			if _, err := w.Write(chunk[:n]); err != nil {
				return // the client hung up
			}
			sent += n
		}
	}))
	t.Cleanup(hs.Close)
	return hs
}

// TestGetOversizedResponseRejected is the regression test for the
// unbounded Get body read: a node that answers with more than
// DefaultMaxObjectBytes fails the read with ErrTooLarge, whether it declares
// the length up front or streams it chunked. On the pre-fix code both
// bodies were read whole into memory and returned as the value.
func TestGetOversizedResponseRejected(t *testing.T) {
	for _, declared := range []bool{true, false} {
		name := "chunked"
		if declared {
			name = "content-length"
		}
		t.Run(name, func(t *testing.T) {
			hs := oversizedNode(t, declared)
			tr := &transport{base: hs.URL, http: hs.Client()}
			data, err := tr.get(context.Background(), "k")
			if !errors.Is(err, ErrTooLarge) {
				t.Fatalf("get = %d bytes, err %v; want ErrTooLarge", len(data), err)
			}
		})
	}
}

// TestClusterGetOversizedReplica drives the bound through the cluster
// client: with the only replica hostile, Get reports ErrTooLarge instead of
// handing the caller an oversized value.
func TestClusterGetOversizedReplica(t *testing.T) {
	hs := oversizedNode(t, true)
	cl, err := NewCluster(ClusterConfig{Nodes: []string{hs.URL}, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get("k"); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Get err = %v, want ErrTooLarge", err)
	}
}

// TestGetDeclaredLengthExact pins the pre-sized read: a body of a declared
// length round-trips byte-identically into a buffer of exactly that size.
func TestGetDeclaredLengthExact(t *testing.T) {
	srv := NewServer(nil)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	tr := &transport{base: hs.URL, http: hs.Client()}
	body := bytes.Repeat([]byte("z"), 3000)
	if err := tr.put(context.Background(), "k", body); err != nil {
		t.Fatal(err)
	}
	got, err := tr.get(context.Background(), "k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) || cap(got) != len(body) {
		t.Fatalf("get = %d bytes (cap %d), want %d identical bytes", len(got), cap(got), len(body))
	}
}
