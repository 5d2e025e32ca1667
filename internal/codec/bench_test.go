package codec

import (
	"strings"
	"testing"
)

var benchPayload = []byte(strings.Repeat("knowledge base statement about markets. ", 256))

func benchCodec(b *testing.B, c Codec) {
	b.Helper()
	b.ReportAllocs()
	b.SetBytes(int64(len(benchPayload)))
	for i := 0; i < b.N; i++ {
		enc, err := c.Encode(benchPayload)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func benchChain(b *testing.B) Chain {
	b.Helper()
	enc, err := NewAESGCM("bench key")
	if err != nil {
		b.Fatal(err)
	}
	return Chain{Gzip{}, enc}
}

// BenchmarkGzipEncode measures compression alone: with a reused compressor
// it allocates roughly the output, not a fresh ~814 KB flate state.
func BenchmarkGzipEncode(b *testing.B) {
	b.ReportAllocs()
	b.SetBytes(int64(len(benchPayload)))
	for i := 0; i < b.N; i++ {
		if _, err := (Gzip{}).Encode(benchPayload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGzipDecode measures decompression alone into a buffer sized once
// from the gzip trailer.
func BenchmarkGzipDecode(b *testing.B) {
	enc, err := Gzip{}.Encode(benchPayload)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(benchPayload)))
	for i := 0; i < b.N; i++ {
		if _, err := (Gzip{}).Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAESGCMRoundTrip(b *testing.B) {
	c, err := NewAESGCM("bench key")
	if err != nil {
		b.Fatal(err)
	}
	benchCodec(b, c)
}

func BenchmarkChainGzipAESRoundTrip(b *testing.B) { benchCodec(b, benchChain(b)) }

// BenchmarkChainGzipAESRoundTripParallel runs the chain from GOMAXPROCS
// goroutines at once. Only one compressor per level is kept idle, so
// goroutines that find it taken allocate a fresh one; -benchmem shows that
// contended fallback as bytes per op above the serial benchmark's.
func BenchmarkChainGzipAESRoundTripParallel(b *testing.B) {
	c := benchChain(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(benchPayload)))
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			enc, err := c.Encode(benchPayload)
			if err != nil {
				b.Error(err)
				return
			}
			if _, err := c.Decode(enc); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
