package server_test

import (
	"bytes"
	"fmt"
	"testing"

	"ecstore/internal/rpc"
	"ecstore/internal/server"
	"ecstore/internal/transport"
	"ecstore/internal/wire"
)

// BenchmarkEncodeSetWorkers measures server-side-encode (Era-SE-*)
// throughput as the coordinator's worker pool grows. Before the codec
// cache was unserialized, every encode took a global mutex and worker
// counts beyond 1 bought nothing on this path.
func BenchmarkEncodeSetWorkers(b *testing.B) {
	const valueSize = 128 << 10
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			n := transport.NewInproc(transport.Shape{})
			addrs := make([]string, 5) // RS(3,2) placement
			for i := range addrs {
				addrs[i] = fmt.Sprintf("s%d", i)
			}
			servers := make([]*server.Server, len(addrs))
			for i, addr := range addrs {
				srv, err := server.New(server.Config{
					Addr: addr, Network: n, Peers: addrs, Workers: workers,
					Logf: func(string, ...any) {},
				})
				if err != nil {
					b.Fatal(err)
				}
				servers[i] = srv
			}
			defer func() {
				for _, s := range servers {
					s.Close()
				}
			}()
			value := bytes.Repeat([]byte{0xEC}, valueSize)
			meta := wire.ECMeta{K: 3, M: 2, TotalLen: valueSize}
			b.ReportAllocs()
			b.SetBytes(valueSize)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				p := rpc.NewPool(n)
				defer p.Close()
				i := 0
				for pb.Next() {
					i++
					resp, err := p.Roundtrip(addrs[0], &wire.Request{
						Op: wire.OpEncodeSet, Key: fmt.Sprintf("bench/%d", i),
						Value: value, Meta: meta,
					})
					if err != nil {
						b.Fatal(err)
					}
					releaseBenchResp(resp)
				}
			})
		})
	}
}

// releaseBenchResp returns a response's pooled frame body. Replace the
// body with a no-op when running against pre-pooling revisions for a
// before/after comparison.
func releaseBenchResp(r *wire.Response) { r.Release() }

// BenchmarkApplyDelta measures one OpApplyDelta round trip through an
// in-proc server: a 64 B patch to one ~350 KB RS(3,2) chunk, the
// per-holder server work of a 64 B edit to a 1 MB value. Each
// iteration moves the chunk to the next stripe.
func BenchmarkApplyDelta(b *testing.B) {
	const shardLen = 350 << 10
	n := transport.NewInproc(transport.Shape{})
	srv, err := server.New(server.Config{
		Addr: "s0", Network: n, Peers: []string{"s0"}, Logf: func(string, ...any) {},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	p := rpc.NewPool(n)
	defer p.Close()
	meta := func(stripe uint64) wire.ECMeta {
		return wire.ECMeta{ChunkIndex: 1, K: 3, M: 2, TotalLen: 3 * shardLen, Stripe: stripe}
	}
	chunk := bytes.Repeat([]byte{0xEC}, shardLen)
	if err := srv.Store().SetVersioned("c", wire.EncodeChunkPayload(meta(1), chunk), 0, 1); err != nil {
		b.Fatal(err)
	}
	patch := wire.EncodeDeltaPatch(shardLen, []wire.DeltaRun{{Offset: shardLen / 2, Data: bytes.Repeat([]byte{0x5A}, 64)}})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := p.Roundtrip("s0", &wire.Request{
			Op: wire.OpApplyDelta, Key: "c", Value: patch,
			Compare: uint64(i + 1), Meta: meta(uint64(i + 2)),
		})
		if err != nil {
			b.Fatal(err)
		}
		releaseBenchResp(resp)
	}
}
