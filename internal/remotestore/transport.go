package remotestore

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// transport is the raw HTTP edge shared by the single-node Client and the
// sharded Cluster: one store node's /kv and /keys endpoints, context-aware
// so callers can cancel in-flight network I/O. It holds no policy — no
// caching, codecs, offline queues, or retries — just the wire protocol and
// the transport/application error split.
type transport struct {
	base string
	http *http.Client
}

func (t *transport) put(ctx context.Context, key string, encoded []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, t.base+"/kv/"+key, bytes.NewReader(encoded))
	if err != nil {
		return fmt.Errorf("remotestore: build put: %w", err)
	}
	resp, err := t.http.Do(req)
	if err != nil {
		return &transportError{err}
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusNoContent {
		if resp.StatusCode == http.StatusServiceUnavailable {
			return &transportError{&remoteError{status: resp.StatusCode, msg: "put"}}
		}
		return &remoteError{status: resp.StatusCode, msg: "put"}
	}
	return nil
}

func (t *transport) get(ctx context.Context, key string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+"/kv/"+key, nil)
	if err != nil {
		return nil, fmt.Errorf("remotestore: build get: %w", err)
	}
	resp, err := t.http.Do(req)
	if err != nil {
		return nil, &transportError{err}
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	case http.StatusServiceUnavailable:
		return nil, &transportError{&remoteError{status: resp.StatusCode, msg: "get"}}
	default:
		return nil, &remoteError{status: resp.StatusCode, msg: "get"}
	}
	return readObject(resp)
}

// ErrTooLarge is returned when a node answers a Get with a body over
// DefaultMaxObjectBytes, the most any node accepts on Put.
var ErrTooLarge = errors.New("remotestore: object exceeds size bound")

// readObject reads a Get body of at most DefaultMaxObjectBytes. A declared
// Content-Length over the bound fails before any byte is read; a declared
// length within it is read into one exactly sized buffer.
func readObject(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n > DefaultMaxObjectBytes {
		return nil, fmt.Errorf("%w: node declared %d bytes", ErrTooLarge, n)
	}
	body := io.LimitReader(resp.Body, DefaultMaxObjectBytes+1)
	if n >= 0 {
		data := make([]byte, n)
		if _, err := io.ReadFull(body, data); err != nil {
			return nil, fmt.Errorf("remotestore: read body: %w", err)
		}
		return data, nil
	}
	data, err := io.ReadAll(body)
	if err != nil {
		return nil, fmt.Errorf("remotestore: read body: %w", err)
	}
	if len(data) > DefaultMaxObjectBytes {
		return nil, fmt.Errorf("%w: node sent over %d bytes", ErrTooLarge, int64(DefaultMaxObjectBytes))
	}
	return data, nil
}

func (t *transport) del(ctx context.Context, key string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, t.base+"/kv/"+key, nil)
	if err != nil {
		return fmt.Errorf("remotestore: build delete: %w", err)
	}
	resp, err := t.http.Do(req)
	if err != nil {
		return &transportError{err}
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusNoContent {
		if resp.StatusCode == http.StatusServiceUnavailable {
			return &transportError{&remoteError{status: resp.StatusCode, msg: "delete"}}
		}
		return &remoteError{status: resp.StatusCode, msg: "delete"}
	}
	return nil
}

func (t *transport) keys(ctx context.Context) ([]string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+"/keys", nil)
	if err != nil {
		return nil, fmt.Errorf("remotestore: build keys: %w", err)
	}
	resp, err := t.http.Do(req)
	if err != nil {
		return nil, &transportError{err}
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode == http.StatusServiceUnavailable {
			return nil, &transportError{&remoteError{status: resp.StatusCode, msg: "keys"}}
		}
		return nil, &remoteError{status: resp.StatusCode, msg: "keys"}
	}
	var keys []string
	if err := jsonDecode(resp.Body, &keys); err != nil {
		return nil, err
	}
	return keys, nil
}

// transportError marks failures that indicate lost connectivity (as opposed
// to application errors like 404).
type transportError struct{ err error }

func (t *transportError) Error() string { return "remotestore: transport: " + t.err.Error() }
func (t *transportError) Unwrap() error { return t.err }

func isTransport(err error) bool {
	var te *transportError
	return errors.As(err, &te)
}

// maxDrain bounds how much of an unread body drain discards so the
// connection can be reused; a longer body is cut off by closing it.
const maxDrain = 64 << 10

func drain(resp *http.Response) {
	_, _ = io.CopyN(io.Discard, resp.Body, maxDrain)
	_ = resp.Body.Close()
}

func jsonDecode(r io.Reader, v any) error {
	if err := json.NewDecoder(io.LimitReader(r, 16<<20)).Decode(v); err != nil {
		return fmt.Errorf("remotestore: decode: %w", err)
	}
	return nil
}
