package codec

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// freshGzip compresses data with a newly allocated writer: the output the
// reused compressors must reproduce byte for byte.
func freshGzip(t testing.TB, level int, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := gzip.NewWriterLevel(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// effectiveLevel maps a Gzip.Level to the compress/gzip level it selects.
func effectiveLevel(level int) int {
	if level == 0 {
		return gzip.DefaultCompression
	}
	return level
}

var (
	reusePayloadA = []byte(strings.Repeat("the market improved in Germany. ", 300))
	reusePayloadB = []byte(strings.Repeat("Acme acquired Globex; analysts were unsure. ", 90))
)

// TestGzipEncodeMatchesFreshWriter pins that reuse changes no stored byte:
// at every level, Encode equals a fresh gzip.NewWriterLevel, also after the
// level's retained writer has compressed a different payload.
func TestGzipEncodeMatchesFreshWriter(t *testing.T) {
	for level := gzip.HuffmanOnly; level <= gzip.BestCompression; level++ {
		t.Run(fmt.Sprint(level), func(t *testing.T) {
			g := Gzip{Level: level}
			for i, data := range [][]byte{reusePayloadA, reusePayloadB, reusePayloadA, nil} {
				got, err := g.Encode(data)
				if err != nil {
					t.Fatal(err)
				}
				if want := freshGzip(t, effectiveLevel(level), data); !bytes.Equal(got, want) {
					t.Fatalf("encode %d: %d bytes differ from a fresh writer's %d", i, len(got), len(want))
				}
			}
		})
	}
}

func TestGzipInvalidLevel(t *testing.T) {
	for _, level := range []int{gzip.HuffmanOnly - 1, gzip.BestCompression + 1} {
		_, err := Gzip{Level: level}.Encode([]byte("x"))
		if err == nil || !strings.HasPrefix(err.Error(), "codec: gzip level:") {
			t.Errorf("level %d: err = %v, want a codec: gzip level: error", level, err)
		}
	}
}

// TestGzipConcurrentMixedLevels runs Encode and Decode from many goroutines
// at once across levels, so retained writers and the retained reader change
// hands under contention; run it with -race.
func TestGzipConcurrentMixedLevels(t *testing.T) {
	payloads := [][]byte{reusePayloadA, reusePayloadB}
	want := map[[2]int][]byte{}
	for level := gzip.HuffmanOnly; level <= gzip.BestCompression; level++ {
		for p, data := range payloads {
			want[[2]int{level, p}] = freshGzip(t, effectiveLevel(level), data)
		}
	}
	const goroutines, rounds = 8, 24
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				level := gzip.HuffmanOnly + (g+i)%(gzip.BestCompression-gzip.HuffmanOnly+1)
				p := (g + i) % len(payloads)
				enc, err := Gzip{Level: level}.Encode(payloads[p])
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(enc, want[[2]int{level, p}]) {
					errs <- fmt.Errorf("level %d payload %d: output differs from a fresh writer", level, p)
					return
				}
				dec, err := Gzip{}.Decode(enc)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(dec, payloads[p]) {
					errs <- fmt.Errorf("level %d payload %d: round trip corrupted data", level, p)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestGzipEncodeSteadyStateAllocs guards the compressor reuse: a fresh
// flate compressor is ~814 KB, so a single goroutine encoding 4 KB payloads
// must average far below that once its level's writer is retained.
func TestGzipEncodeSteadyStateAllocs(t *testing.T) {
	data := bytes.Repeat([]byte("statement about markets, "), 4096/25+1)[:4096]
	if _, err := (Gzip{}).Encode(data); err != nil { // retain the writer
		t.Fatal(err)
	}
	const calls = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := (Gzip{}).Encode(data); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 64<<10 {
		t.Fatalf("Gzip.Encode allocates %d B per call, want < %d", per, 64<<10)
	}
}

// watchFree returns a channel closed once the allocation backing b is
// collected.
func watchFree(b []byte) <-chan struct{} {
	freed := make(chan struct{})
	runtime.SetFinalizer(&b[0], func(*byte) { close(freed) })
	return freed
}

// collected runs the collector until freed closes or a deadline passes.
func collected(freed <-chan struct{}) bool {
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		select {
		case <-freed:
			return true
		case <-time.After(10 * time.Millisecond):
		}
	}
	return false
}

// TestGzipIdleStateRetainsNoPayload pins that the retained compressor and
// decompressor keep neither the last Encode's output nor the last Decode's
// input alive: with kb persistence those can be many megabytes.
func TestGzipIdleStateRetainsNoPayload(t *testing.T) {
	// Incompressible, so the output is about as large as the input.
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(i*2654435761>>13) ^ byte(i>>7)
	}
	enc, err := Gzip{Level: gzip.BestSpeed}.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	input := bytes.Clone(enc)
	outFreed := watchFree(enc)
	enc = nil
	if !collected(outFreed) {
		t.Error("an idle compressor keeps its last output alive")
	}
	inFreed := watchFree(input)
	if _, err := (Gzip{}).Decode(input); err != nil {
		t.Fatal(err)
	}
	input = nil
	if !collected(inFreed) {
		t.Error("the idle decompressor keeps its last input alive")
	}
}

// TestAESGCMEncodeSingleAlloc pins that Encode seals into the slice that
// already holds the nonce.
func TestAESGCMEncodeSingleAlloc(t *testing.T) {
	c, err := NewAESGCM("k")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("confidential knowledge base record")
	if n := testing.AllocsPerRun(100, func() { _, _ = c.Encode(data) }); n > 1 {
		t.Errorf("AESGCM.Encode allocates %v times, want 1", n)
	}
}

// zeroBomb gzips size zero bytes at BestSpeed without materialising them.
func zeroBomb(t testing.TB, size int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([]byte, 1<<20)
	for left := size; left > 0; left -= len(chunk) {
		if _, err := w.Write(chunk[:min(left, len(chunk))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGzipDecodeBombRejected is the regression test for the unbounded
// decode: a stream that inflates past MaxDecodedBytes fails with
// ErrTooLarge instead of being read whole into memory.
func TestGzipDecodeBombRejected(t *testing.T) {
	bomb := zeroBomb(t, MaxDecodedBytes+1)
	out, err := Gzip{}.Decode(bomb)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("decoding a %d-byte bomb: %d bytes, err %v; want ErrTooLarge", len(bomb), len(out), err)
	}
}

func TestGzipEncodeRejectsOversizedInput(t *testing.T) {
	if _, err := (Gzip{}).Encode(make([]byte, MaxDecodedBytes+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

// TestGzipDecodeForgedTrailer feeds a stream whose trailer claims a 4 GiB
// output: the size hint is capped, and the length mismatch is an error.
func TestGzipDecodeForgedTrailer(t *testing.T) {
	enc := freshGzip(t, gzip.DefaultCompression, reusePayloadA)
	copy(enc[len(enc)-4:], []byte{0xff, 0xff, 0xff, 0xff})
	if _, err := (Gzip{}).Decode(enc); err == nil {
		t.Fatal("forged trailer accepted")
	}
	if got := decodedSizeHint(enc); got > maxDeflateRatio*len(enc) {
		t.Fatalf("size hint %d exceeds what %d input bytes can inflate to", got, len(enc))
	}
}

// TestGzipDecodeMultistream keeps concatenated gzip members decoding as one
// stream, as compress/gzip does, although the trailer hint then covers only
// the last member.
func TestGzipDecodeMultistream(t *testing.T) {
	enc := append(freshGzip(t, gzip.BestSpeed, reusePayloadA), freshGzip(t, gzip.BestSpeed, reusePayloadB)...)
	got, err := Gzip{}.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if want := append(append([]byte{}, reusePayloadA...), reusePayloadB...); !bytes.Equal(got, want) {
		t.Fatalf("multistream decode = %d bytes, want %d", len(got), len(want))
	}
}
