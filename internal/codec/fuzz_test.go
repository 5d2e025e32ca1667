package codec

import (
	"bytes"
	"compress/gzip"
	"testing"
)

// FuzzCodecDecode feeds arbitrary bytes to Gzip.Decode, directly and behind
// a valid AES-GCM envelope through Chain{Gzip{}, aes}.Decode. Decoding must
// not panic or return more than MaxDecodedBytes, and Encode then Decode must
// round-trip the input through both codecs.
func FuzzCodecDecode(f *testing.F) {
	valid := freshGzip(f, gzip.DefaultCompression, []byte("the market improved in Germany. Acme praised it."))
	bomb := zeroBomb(f, 1<<20)
	forged := append([]byte{}, bomb...)
	copy(forged[len(forged)-4:], []byte{0xff, 0xff, 0xff, 0xff})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(append(append([]byte{}, valid...), valid...))
	f.Add([]byte("definitely not gzip"))
	f.Add(bomb)
	f.Add(forged)
	f.Add([]byte{})

	aes, err := NewAESGCM("fuzz")
	if err != nil {
		f.Fatal(err)
	}
	chain := Chain{Gzip{}, aes}
	f.Fuzz(func(t *testing.T, data []byte) {
		if out, err := (Gzip{}).Decode(data); err == nil && len(out) > MaxDecodedBytes {
			t.Fatalf("Gzip.Decode returned %d bytes, over the bound", len(out))
		}
		sealed, err := aes.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		if out, err := chain.Decode(sealed); err == nil && len(out) > MaxDecodedBytes {
			t.Fatalf("Chain.Decode returned %d bytes, over the bound", len(out))
		}
		for name, c := range map[string]Codec{"gzip": Gzip{}, "chain": chain} {
			enc, err := c.Encode(data)
			if err != nil {
				t.Fatalf("%s encode: %v", name, err)
			}
			dec, err := c.Decode(enc)
			if err != nil {
				t.Fatalf("%s decode: %v", name, err)
			}
			if !bytes.Equal(dec, data) {
				t.Fatalf("%s round trip: got %d bytes, want %d", name, len(dec), len(data))
			}
		}
	})
}
