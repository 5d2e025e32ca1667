// Package codec provides the encryption and compression envelopes the
// personalized knowledge base applies before persisting data or sending it
// to a remote store (paper §3: encrypt before storing so confidential data
// cannot leak even from an untrusted store; compress before sending to save
// bandwidth and storage charges). Encryption is AES-256-GCM (authenticated);
// compression is gzip. Codecs compose: Chain(Compress, Encrypt) compresses
// then encrypts, which is the correct order (ciphertext does not compress).
package codec

import (
	"bytes"
	"compress/gzip"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
)

// Codec transforms byte payloads symmetrically.
type Codec interface {
	// Encode transforms plaintext into the stored form.
	Encode(data []byte) ([]byte, error)
	// Decode inverts Encode.
	Decode(data []byte) ([]byte, error)
}

// Identity passes data through unchanged.
type Identity struct{}

var _ Codec = Identity{}

// Encode implements Codec.
func (Identity) Encode(data []byte) ([]byte, error) { return data, nil }

// Decode implements Codec.
func (Identity) Decode(data []byte) ([]byte, error) { return data, nil }

// MaxDecodedBytes bounds the plaintext size Gzip accepts in either
// direction, matching the 64 MiB body limit used everywhere else in the
// repo. Decode stops a decompression bomb at this size; Encode refuses
// larger inputs so nothing the codec writes is unreadable.
const MaxDecodedBytes = 64 << 20

// ErrTooLarge reports a payload over MaxDecodedBytes.
var ErrTooLarge = errors.New("codec: payload exceeds size bound")

// maxDeflateRatio is deflate's worst-case expansion factor (a 258-byte match
// coded in about two bits), used to cap the trailer's size claim.
const maxDeflateRatio = 1032

// Gzip compresses with gzip at the given level.
type Gzip struct {
	// Level is a compress/gzip level; 0 means gzip.DefaultCompression.
	Level int
}

var _ Codec = Gzip{}

// idleWriters holds at most one idle compressor per gzip level, indexed by
// level-gzip.HuffmanOnly. A flate compressor is ~814 KB, so allocating one
// per Encode dominated the store's write path; one retained per level keeps
// the steady-state heap small, and a goroutine that finds its slot taken
// simply allocates a fresh writer.
var idleWriters [gzip.BestCompression - gzip.HuffmanOnly + 1]atomic.Pointer[gzipWriter]

// idleReader holds at most one idle decompressor (~41 KB) for Decode.
var idleReader atomic.Pointer[gzipReader]

// gzipWriter is a reusable compressor. The compressor writes through it, so
// an idle one holds no reference to the last Encode's output.
type gzipWriter struct {
	gz  *gzip.Writer
	out *bytes.Buffer // the Encode in progress's output; nil while idle
}

func (w *gzipWriter) Write(p []byte) (int, error) { return w.out.Write(p) }

// gzipReader is a reusable decompressor. It reads through src, which is
// emptied while idle so the last Decode's input can be collected.
type gzipReader struct {
	gz  *gzip.Reader
	src bytes.Reader
}

// Encode implements Codec. The output is byte-identical to a fresh
// gzip.NewWriterLevel at the same level.
func (g Gzip) Encode(data []byte) ([]byte, error) {
	if len(data) > MaxDecodedBytes {
		return nil, fmt.Errorf("%w: %d-byte input", ErrTooLarge, len(data))
	}
	level := g.Level
	if level == 0 {
		level = gzip.DefaultCompression
	}
	var buf bytes.Buffer
	var w *gzipWriter
	// An invalid level has no slot; NewWriterLevel below rejects it.
	var slot *atomic.Pointer[gzipWriter]
	if level >= gzip.HuffmanOnly && level <= gzip.BestCompression {
		slot = &idleWriters[level-gzip.HuffmanOnly]
		w = slot.Swap(nil)
	}
	if w != nil {
		w.out = &buf
		w.gz.Reset(w)
	} else {
		w = &gzipWriter{out: &buf}
		var err error
		if w.gz, err = gzip.NewWriterLevel(w, level); err != nil {
			return nil, fmt.Errorf("codec: gzip level: %w", err)
		}
	}
	if _, err := w.gz.Write(data); err != nil {
		return nil, fmt.Errorf("codec: gzip write: %w", err)
	}
	if err := w.gz.Close(); err != nil {
		return nil, fmt.Errorf("codec: gzip close: %w", err)
	}
	w.out = nil
	slot.CompareAndSwap(nil, w)
	return buf.Bytes(), nil
}

// Decode implements Codec. It fails with ErrTooLarge once the output passes
// MaxDecodedBytes.
func (g Gzip) Decode(data []byte) ([]byte, error) {
	r := idleReader.Swap(nil)
	var err error
	if r != nil {
		r.src.Reset(data)
		err = r.gz.Reset(&r.src)
	} else {
		r = &gzipReader{}
		r.src.Reset(data)
		r.gz, err = gzip.NewReader(&r.src)
	}
	if err != nil {
		return nil, fmt.Errorf("codec: gzip open: %w", err)
	}
	out, err := readBounded(r.gz, decodedSizeHint(data))
	if err != nil {
		return nil, err
	}
	if err := r.gz.Close(); err != nil {
		return nil, fmt.Errorf("codec: gzip close: %w", err)
	}
	r.src.Reset(nil)
	idleReader.CompareAndSwap(nil, r)
	return out, nil
}

// decodedSizeHint reads the gzip trailer's ISIZE field (the last member's
// uncompressed length mod 2^32) as the expected output size, capped by what
// deflate can expand the input to and by MaxDecodedBytes so a forged trailer
// cannot force a large allocation.
func decodedSizeHint(data []byte) int {
	if len(data) < 4 {
		return 0
	}
	isize := int(binary.LittleEndian.Uint32(data[len(data)-4:]))
	return min(isize, maxDeflateRatio*len(data), MaxDecodedBytes)
}

// readBounded reads r to EOF into a buffer sized once from hint, failing
// with ErrTooLarge past MaxDecodedBytes. ReadFrom keeps bytes.MinRead free
// space before each read, so that much slack spares an exactly sized buffer
// a final regrowth.
func readBounded(r io.Reader, hint int) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(hint + bytes.MinRead)
	if _, err := buf.ReadFrom(io.LimitReader(r, MaxDecodedBytes+1)); err != nil {
		return nil, fmt.Errorf("codec: gzip read: %w", err)
	}
	if buf.Len() > MaxDecodedBytes {
		return nil, fmt.Errorf("%w: gzip output over %d bytes", ErrTooLarge, MaxDecodedBytes)
	}
	return buf.Bytes(), nil
}

// AESGCM encrypts with AES-256-GCM. Construct with NewAESGCM.
type AESGCM struct {
	aead cipher.AEAD
}

var _ Codec = (*AESGCM)(nil)

// NewAESGCM derives a 256-bit key from the passphrase (SHA-256) and returns
// an authenticated encryption codec.
func NewAESGCM(passphrase string) (*AESGCM, error) {
	if passphrase == "" {
		return nil, errors.New("codec: empty passphrase")
	}
	key := sha256.Sum256([]byte(passphrase))
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("codec: cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("codec: gcm: %w", err)
	}
	return &AESGCM{aead: aead}, nil
}

// Encode implements Codec: output is nonce || ciphertext.
func (a *AESGCM) Encode(data []byte) ([]byte, error) {
	ns := a.aead.NonceSize()
	out := make([]byte, ns, ns+len(data)+a.aead.Overhead())
	if _, err := rand.Read(out); err != nil {
		return nil, fmt.Errorf("codec: nonce: %w", err)
	}
	return a.aead.Seal(out, out, data, nil), nil
}

// Decode implements Codec. Tampered or wrongly keyed data fails
// authentication.
func (a *AESGCM) Decode(data []byte) ([]byte, error) {
	ns := a.aead.NonceSize()
	if len(data) < ns {
		return nil, errors.New("codec: ciphertext too short")
	}
	out, err := a.aead.Open(nil, data[:ns], data[ns:], nil)
	if err != nil {
		return nil, fmt.Errorf("codec: decrypt: %w", err)
	}
	return out, nil
}

// Chain composes codecs: Encode applies them left to right, Decode right to
// left.
type Chain []Codec

var _ Codec = Chain(nil)

// Encode implements Codec.
func (c Chain) Encode(data []byte) ([]byte, error) {
	var err error
	for _, step := range c {
		data, err = step.Encode(data)
		if err != nil {
			return nil, err
		}
	}
	return data, nil
}

// Decode implements Codec.
func (c Chain) Decode(data []byte) ([]byte, error) {
	var err error
	for i := len(c) - 1; i >= 0; i-- {
		data, err = c[i].Decode(data)
		if err != nil {
			return nil, err
		}
	}
	return data, nil
}
