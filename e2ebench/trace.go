package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ecstore/internal/memproto"
	"ecstore/internal/transport"
)

// The traced run observes the stack only at its boundaries: a timing
// wrapper around the proxy's memproto.Backend, counting wrappers
// around the client's and the servers' transport.Network, and the
// generator's own request spans. Nothing inside the program changes.

// Span layers.
const (
	layerRequest  = "request" // generator: send to verified reply
	layerSet      = "core.set"
	layerGet      = "core.get"
	layerGetMulti = "core.getmulti"
)

// traceSpan is one timed interval; spans of one generator request
// share req.
type traceSpan struct {
	req        uint64
	layer      string
	start, end int64 // ns since the tracer's epoch
}

// inflight is a generator request the proxy has not yet picked up.
type inflight struct {
	id  uint64
	op  opKind
	key string
}

type tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu      sync.Mutex
	pending []inflight // at most one per generator connection
	spans   []traceSpan
	on      bool // record spans (only inside the timed window)

	clientNet, serverNet *countingNet
}

func newTracer() *tracer {
	return &tracer{
		epoch:     time.Now(),
		clientNet: &countingNet{inner: transport.TCP{}},
		serverNet: &countingNet{inner: transport.TCP{}},
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) setRecording(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// begin registers a generator request about to be sent and returns
// its id. key is the request's first key.
func (t *tracer) begin(op opKind, key string) uint64 {
	id := t.ids.Add(1)
	t.mu.Lock()
	t.pending = append(t.pending, inflight{id: id, op: op, key: key})
	t.mu.Unlock()
	return id
}

// claim matches a backend call to the pending generator request it
// serves: the proxy handles each connection's one request at a time,
// so the pending request with the same command and first key is it.
// Two connections issuing the same command on the same key at once
// are interchangeable. It returns 0 when nothing matches.
func (t *tracer) claim(op opKind, key string) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, p := range t.pending {
		if p.op == op && p.key == key {
			t.pending = append(t.pending[:i], t.pending[i+1:]...)
			return p.id
		}
	}
	return 0
}

// end drops a request that no backend call claimed (a failed one).
func (t *tracer) end(id uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, p := range t.pending {
		if p.id == id {
			t.pending = append(t.pending[:i], t.pending[i+1:]...)
			return
		}
	}
}

func (t *tracer) record(id uint64, layer string, start, end int64) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	if t.on {
		t.spans = append(t.spans, traceSpan{req: id, layer: layer, start: start, end: end})
	}
	t.mu.Unlock()
}

// write saves the spans as CSV (req,layer,start_ns,end_ns) to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "req,layer,start_ns,end_ns")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d,%s,%d,%d\n", s.req, s.layer, s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanSummary is what the per-layer metrics need from the spans.
type spanSummary struct {
	requests   int
	memprotoNs int64 // Σ (request span − its backend spans)
	layerNs    map[string]int64
	layerCalls map[string]int
}

func (t *tracer) summarize() spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := spanSummary{layerNs: map[string]int64{}, layerCalls: map[string]int{}}
	reqNs := map[uint64]int64{}
	childNs := map[uint64]int64{}
	for _, sp := range t.spans {
		d := sp.end - sp.start
		if sp.layer == layerRequest {
			reqNs[sp.req] = d
			continue
		}
		childNs[sp.req] += d
		s.layerNs[sp.layer] += d
		s.layerCalls[sp.layer]++
	}
	for id, d := range reqNs {
		c, ok := childNs[id]
		if !ok {
			continue
		}
		s.requests++
		s.memprotoNs += d - c
	}
	return s
}

// timedBackend wraps the proxy's backend with spans around the three
// calls the workloads reach.
type timedBackend struct {
	memproto.Backend
	tr *tracer
}

func (b *timedBackend) Set(key string, value []byte, ttl time.Duration) (uint64, error) {
	id := b.tr.claim(opSet, key)
	t0 := b.tr.now()
	v, err := b.Backend.Set(key, value, ttl)
	b.tr.record(id, layerSet, t0, b.tr.now())
	return v, err
}

func (b *timedBackend) Get(key string) (memproto.Item, error) {
	id := b.tr.claim(opMG, key)
	t0 := b.tr.now()
	it, err := b.Backend.Get(key)
	b.tr.record(id, layerGet, t0, b.tr.now())
	return it, err
}

func (b *timedBackend) GetMulti(keys []string) (map[string]memproto.Item, map[string]error) {
	var id uint64
	if len(keys) > 0 {
		id = b.tr.claim(opGet, keys[0])
	}
	t0 := b.tr.now()
	found, errs := b.Backend.GetMulti(keys)
	b.tr.record(id, layerGetMulti, t0, b.tr.now())
	return found, errs
}

// countingNet wraps a Network and counts what crosses its connections.
// Wrapping hides the TCP connection's vectored write, so a multi-
// vector frame counts (and is sent) as one Write per vector.
type countingNet struct {
	inner transport.Network

	writes, writeNs, txBytes, rxBytes atomic.Int64
}

type netCounts struct{ writes, writeNs, txBytes, rxBytes int64 }

func (n *countingNet) counts() netCounts {
	return netCounts{n.writes.Load(), n.writeNs.Load(), n.txBytes.Load(), n.rxBytes.Load()}
}

func (n *countingNet) Listen(addr string) (transport.Listener, error) {
	l, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &countingListener{Listener: l, n: n}, nil
}

func (n *countingNet) Dial(addr string) (transport.Conn, error) {
	c, err := n.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: n}, nil
}

type countingListener struct {
	transport.Listener
	n *countingNet
}

func (l *countingListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: l.n}, nil
}

type countingConn struct {
	transport.Conn
	n *countingNet
}

func (c *countingConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	k, err := c.Conn.Write(p)
	c.n.writeNs.Add(int64(time.Since(t0)))
	c.n.writes.Add(1)
	c.n.txBytes.Add(int64(k))
	return k, err
}

func (c *countingConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.rxBytes.Add(int64(k))
	return k, err
}
