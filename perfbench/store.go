package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/kvstore"
	"repro/internal/nlu"
	"repro/internal/remotestore"
	"repro/internal/webcorpus"
)

// kb-store: the knowledge base's enhanced cloud-store client — a
// three-node remotestore.Cluster, R=2, gzip+AES-GCM codec, client cache
// on — under a 70% Get / 30% Put mix of NLU-analysis JSON values. Keys
// are Zipf-distributed over a keyspace several times the client cache,
// so reads miss the cache often and writes sit beside reads on the same
// store layer. Each client owns half of the keys.
func init() {
	workloads["kb-store"] = &workload{
		name:    "kb-store",
		clients: clients,
		kinds:   2, // get, put
		inputs: func(seed int64) (any, error) {
			return newStoreInputs(genCorpus(seed), seed)
		},
		setup:  setupStore,
		report: reportStore,
		predictions: []prediction{
			{"remotestore.read_failovers = 0", func(m map[string]float64, _ *recorder) bool { return m["remotestore.read_failovers"] == 0 }},
			{"remotestore.dropped_writes = 0", func(m map[string]float64, _ *recorder) bool { return m["remotestore.dropped_writes"] == 0 }},
		},
	}
}

const (
	storeNodes    = 3
	storeReplicas = 2
	keysPerClient = 2048
	storeCache    = 1024 // client cache entries: a quarter of the keyspace
	storeSkew     = 0.5  // Zipf exponent over each client's keys
	putShare      = 0.3
	valuePool     = 256 // distinct values: analyses of this many documents
)

// storeInputs are the values clients write and the initial value of
// every key.
type storeInputs struct {
	values  [][]byte
	keys    [][]string // per client
	initial [][]int    // per client, per key: index into values
}

func newStoreInputs(c *webcorpus.Corpus, seed int64) (*storeInputs, error) {
	rng := streamRNG(seed, "kb-store/values", 0)
	engine := nlu.NewEngine(nlu.ProfileAlpha)
	in := &storeInputs{}
	for _, i := range rng.Perm(len(c.Docs))[:valuePool] {
		v, err := json.Marshal(engine.Analyze(c.Docs[i].Body))
		if err != nil {
			return nil, err
		}
		in.values = append(in.values, v)
	}
	for cl := 0; cl < clients; cl++ {
		keys := make([]string, keysPerClient)
		initial := make([]int, keysPerClient)
		for k := range keys {
			keys[k] = fmt.Sprintf("c%d-%05d", cl, k)
			initial[k] = rng.Intn(valuePool)
		}
		in.keys = append(in.keys, keys)
		in.initial = append(in.initial, initial)
	}
	return in, nil
}

// storeOp is one request of a kb-store stream.
type storeOp struct {
	put bool
	key int // index into the client's keys
	val int // index into values, for a put
}

type storeStream struct {
	rng *rand.Rand
	z   zipf
}

func newStoreStream(seed int64, client int) *storeStream {
	return &storeStream{rng: streamRNG(seed, "kb-store", client), z: newZipf(keysPerClient, storeSkew)}
}

func (s *storeStream) next() storeOp {
	op := storeOp{put: s.rng.Float64() < putShare, key: s.z.draw(s.rng)}
	if op.put {
		op.val = s.rng.Intn(valuePool)
	}
	return op
}

type storeBench struct {
	in        *storeInputs
	streams   []*storeStream
	cur       [][]int // per client: the value index it last wrote to each key
	cluster   *remotestore.Cluster
	servers   []*remotestore.Server
	rec       *recorder
	userBytes atomic.Int64
	plain     atomic.Int64
	encoded   atomic.Int64
	cs        closers
}

func setupStore(seed int64, in any, rec *recorder, f *fault) (bench, error) {
	b := &storeBench{in: in.(*storeInputs), rec: rec}
	if err := b.init(seed, f); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *storeBench) init(seed int64, f *fault) error {
	in := b.in
	var urls []string
	for i := 0; i < storeNodes; i++ {
		srv := remotestore.NewServer(timedStore{Store: kvstore.NewMemory(), rec: b.rec})
		lb, err := serve(timedHandler(b.rec, "remotestore.node", srv.Handler()))
		if err != nil {
			return err
		}
		b.cs.add(lb.close)
		b.servers = append(b.servers, srv)
		urls = append(urls, lb.URL)
	}
	aes, err := codec.NewAESGCM("perfbench")
	if err != nil {
		return err
	}
	b.cluster, err = remotestore.NewCluster(remotestore.ClusterConfig{
		Nodes:     urls,
		Replicas:  storeReplicas,
		Codec:     timedCodec{Codec: codec.Chain{codec.Gzip{}, aes}, b: b, f: f},
		CacheSize: storeCache,
	})
	if err != nil {
		return err
	}
	b.cs.add(b.cluster.Close)
	// Preload every key, each client's half on its own goroutine.
	errs := make([]error, len(in.keys))
	var wg sync.WaitGroup
	for c := range in.keys {
		b.streams = append(b.streams, newStoreStream(seed, c))
		b.cur = append(b.cur, append([]int(nil), in.initial[c]...))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k, key := range in.keys[c] {
				if err := b.cluster.Put(key, in.values[in.initial[c][k]]); err != nil {
					errs[c] = fmt.Errorf("preload %s: %w", key, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (b *storeBench) do(c int) (int, int, time.Duration, error) {
	op := b.streams[c].next()
	key := b.in.keys[c][op.key]
	start := time.Now()
	if op.put {
		val := b.in.values[op.val]
		ctx, sp := b.rec.start(context.Background(), "remotestore.put")
		err := b.cluster.PutCtx(ctx, key, val)
		sp.end()
		lat := time.Since(start)
		if err != nil {
			return 1, 0, lat, err
		}
		b.cur[c][op.key] = op.val
		b.userBytes.Add(int64(len(val)))
		return 1, 1, lat, nil
	}
	ctx, sp := b.rec.start(context.Background(), "remotestore.get")
	got, err := b.cluster.GetCtx(ctx, key)
	sp.end()
	lat := time.Since(start)
	if err != nil {
		return 0, 0, lat, err
	}
	if !bytes.Equal(got, b.in.values[b.cur[c][op.key]]) {
		return 0, 0, lat, fmt.Errorf("%w: %s is not the value last written", errMismatch, key)
	}
	return 0, 1, lat, nil
}

func (b *storeBench) counters() map[string]float64 {
	s := b.cluster.Stats()
	m := map[string]float64{
		"remotestore.gets":           float64(s.CacheHits + s.RemoteGets),
		"remotestore.cache_hits":     float64(s.CacheHits),
		"remotestore.bytes_sent":     float64(s.BytesSent),
		"remotestore.user_bytes":     float64(b.userBytes.Load()),
		"remotestore.read_failovers": float64(s.ReadFailovers),
		"remotestore.dropped_writes": float64(s.DroppedWrites),
		"codec.plain_bytes":          float64(b.plain.Load()),
		"codec.encoded_bytes":        float64(b.encoded.Load()),
	}
	for _, srv := range b.servers {
		m["remotestore.node_requests"] += float64(srv.Requests())
	}
	return m
}

func (b *storeBench) close() { b.cs.closeAll() }

func reportStore(w io.Writer, p *phase) map[string]metric {
	rate := p.perSecond(float64(p.units))
	fmt.Fprintf(w, "%-34s %.6g 1/s (n=%d: %d gets, %d puts)\n", "store_ops_per_s", rate, p.units, p.byKind[0], p.byKind[1])
	printLatency(w, p.lat[0], "get_p50_us", "get_p99_us", 1, "us")
	printLatency(w, p.lat[1], "put_p50_us", "put_p99_us", 1, "us")
	all := append(append([]time.Duration(nil), p.lat[0]...), p.lat[1]...)
	p50, p99 := printLatency(w, all, "op_p50_us", "op_p99_us", 1, "us")
	return map[string]metric{
		"ops_per_s": {rate, "1/s"},
		"p50_us":    {p50, "us"},
		"p99_us":    {p99, "us"},
	}
}

// timedStore is a node's backing store with a span around every Get and
// Put.
type timedStore struct {
	kvstore.Store
	rec *recorder
}

func (t timedStore) Get(key string) ([]byte, error) {
	_, sp := t.rec.start(context.Background(), "kvstore.op")
	defer sp.end()
	return t.Store.Get(key)
}

func (t timedStore) Put(key string, value []byte) error {
	_, sp := t.rec.start(context.Background(), "kvstore.op")
	defer sp.end()
	return t.Store.Put(key, value)
}

// timedCodec is the cluster's codec with spans around Encode and Decode
// and byte counters for the compression ratio. When the fault is armed it
// corrupts one decoded value, as if the store had returned a wrong one.
type timedCodec struct {
	codec.Codec
	b *storeBench
	f *fault
}

func (t timedCodec) Encode(data []byte) ([]byte, error) {
	_, sp := t.b.rec.start(context.Background(), "codec.encode")
	out, err := t.Codec.Encode(data)
	sp.end()
	t.b.plain.Add(int64(len(data)))
	t.b.encoded.Add(int64(len(out)))
	return out, err
}

func (t timedCodec) Decode(data []byte) ([]byte, error) {
	_, sp := t.b.rec.start(context.Background(), "codec.decode")
	out, err := t.Codec.Decode(data)
	sp.end()
	if err == nil && len(out) > 0 && t.f.fire() {
		out = append([]byte(nil), out...)
		out[len(out)/2] ^= 0x20
	}
	return out, err
}
