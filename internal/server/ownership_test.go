package server

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"ecstore/internal/bufpool"
	"ecstore/internal/rpc"
	"ecstore/internal/transport"
	"ecstore/internal/wire"
)

// These tests pin the store's byte-ownership rule from the server's
// side: the store keeps the slice it is given and hands out read-only
// views, so every server path that writes must give it bytes nobody
// else will touch, and no path may patch a view in place.

const ownChunkLen = 8 << 10

// ownChunkMeta is the geometry of the single RS(3,2) data chunk the
// tests store and patch.
func ownChunkMeta(stripe uint64) wire.ECMeta {
	return wire.ECMeta{ChunkIndex: 0, K: 3, M: 2, TotalLen: 3 * ownChunkLen, Stripe: stripe}
}

// startOwnServer runs one server with its own frame pool, so the
// tests can watch request buffers being recycled.
func startOwnServer(t *testing.T) (*Server, *rpc.Pool, *bufpool.Pool) {
	t.Helper()
	network := transport.NewInproc(transport.Shape{})
	frames := bufpool.New()
	srv, err := New(Config{
		Addr: "own", Network: network, Peers: []string{"own"},
		FramePool: frames, Logf: func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	pool := rpc.NewPool(network)
	t.Cleanup(pool.Close)
	return srv, pool, frames
}

// applyDelta sends one OpApplyDelta that XORs data into the chunk at
// off, moving it from stripe base to stripe next.
func applyDelta(pool *rpc.Pool, key string, base, next uint64, off uint32, data []byte) (*wire.Response, error) {
	patch := wire.EncodeDeltaPatch(ownChunkLen, []wire.DeltaRun{{Offset: off, Data: data}})
	return pool.Roundtrip("own", &wire.Request{
		Op: wire.OpApplyDelta, Key: key, Value: patch,
		Compare: base, Meta: ownChunkMeta(next),
	})
}

// TestApplyDeltaLeavesEarlierViewIntact: a chunk view read before an
// OpApplyDelta keeps its old bytes and its old (valid) CRC; the apply
// installs a patched clone.
func TestApplyDeltaLeavesEarlierViewIntact(t *testing.T) {
	srv, pool, _ := startOwnServer(t)
	chunk := bytes.Repeat([]byte{0xA5}, ownChunkLen)
	if err := srv.Store().SetVersioned("c", wire.EncodeChunkPayload(ownChunkMeta(1), chunk), 0, 1); err != nil {
		t.Fatal(err)
	}
	before, _, _, _ := srv.Store().GetMeta("c")
	snapshot := bytes.Clone(before)

	resp, err := applyDelta(pool, "c", 1, 2, 100, []byte{0xFF, 0xFF, 0xFF, 0xFF})
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	resp.Release()

	if !bytes.Equal(before, snapshot) {
		t.Fatal("apply wrote into a previously returned store view")
	}
	if m, _, err := wire.DecodeChunkPayload(before); err != nil || m.Stripe != 1 {
		t.Fatalf("old view: stripe %d, err %v", m.Stripe, err)
	}
	after, version, _, _ := srv.Store().GetMeta("c")
	m, got, err := wire.DecodeChunkPayload(after)
	if err != nil || m.Stripe != 2 || version != 2 {
		t.Fatalf("patched chunk: stripe %d version %d err %v", m.Stripe, version, err)
	}
	want := bytes.Clone(chunk)
	for i := 100; i < 104; i++ {
		want[i] ^= 0xFF
	}
	if !bytes.Equal(got, want) {
		t.Fatal("patched chunk bytes differ from the expected XOR")
	}
}

// TestChunkReadersDuringApplies runs readers that decode the stored
// chunk in a loop while one writer chains delta applies and another
// replaces the chunk outright. Every view a reader gets must pass its
// CRC: a chunk patched in place would tear under a reader.
func TestChunkReadersDuringApplies(t *testing.T) {
	srv, pool, _ := startOwnServer(t)
	st := srv.Store()
	var nextStripe atomic.Uint64
	nextStripe.Store(1)
	put := func() {
		s := nextStripe.Add(1)
		chunk := bytes.Repeat([]byte{byte(s)}, ownChunkLen)
		resp, err := pool.Roundtrip("own", &wire.Request{
			Op: wire.OpSetChunk, Key: "c", Value: wire.EncodeChunkPayload(ownChunkMeta(s), chunk),
			Meta: ownChunkMeta(s),
		})
		if err != nil {
			t.Errorf("set chunk: %v", err)
			return
		}
		resp.Release()
	}
	put()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	var reads atomic.Int64
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, _, _, ok := st.GetMeta("c")
				if !ok {
					t.Error("chunk vanished")
					return
				}
				if _, _, err := wire.DecodeChunkPayload(v); err != nil {
					t.Errorf("reader saw a bad chunk: %v", err)
					return
				}
				reads.Add(1)
			}
		}()
	}

	var writers sync.WaitGroup
	writers.Add(2)
	go func() { // chained applies; losing a race to the setter is fine
		defer writers.Done()
		for i := 0; i < 200; i++ {
			_, base, _, _ := st.GetMeta("c")
			resp, err := applyDelta(pool, "c", base, nextStripe.Add(1), uint32(i*37%ownChunkLen), []byte{byte(i), 1, 2, 3})
			if err != nil && !errors.Is(err, wire.ErrExists) {
				t.Errorf("apply %d: %v", i, err)
				return
			}
			resp.Release()
		}
	}()
	go func() {
		defer writers.Done()
		for i := 0; i < 50; i++ {
			put()
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
	if reads.Load() == 0 {
		t.Fatal("readers never ran")
	}
}

// TestSetSurvivesFrameReuse: a value written through a pooled request
// frame (plain and batched) must not change when the server recycles
// that frame's buffer for later requests.
func TestSetSurvivesFrameReuse(t *testing.T) {
	srv, pool, frames := startOwnServer(t)
	want := bytes.Repeat([]byte("keep"), ownChunkLen/4)
	sub, err := wire.AppendBatchRequests(nil, []wire.BatchReq{{Op: wire.OpSet, Key: "batched", Value: want}})
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []*wire.Request{
		{Op: wire.OpSet, Key: "plain", Value: want},
		{Op: wire.OpCompareSet, Key: "cas", Value: want, Compare: wire.CompareAbsent, Meta: wire.ECMeta{Stripe: 7}},
		{Op: wire.OpBatch, Key: "b", Value: sub},
	} {
		resp, err := pool.Roundtrip("own", req)
		if err != nil {
			t.Fatalf("%v: %v", req.Op, err)
		}
		resp.Release()
	}

	// Same-sized frames with other bytes land in the recycled buffers.
	hits := frames.Stats().Hits
	junk := bytes.Repeat([]byte{0xEE}, len(want))
	for i := 0; i < 64; i++ {
		resp, err := pool.Roundtrip("own", &wire.Request{Op: wire.OpSet, Key: fmt.Sprintf("junk-%d", i%4), Value: junk})
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
	}
	if frames.Stats().Hits == hits {
		t.Fatal("frame pool never recycled a buffer; the test proves nothing")
	}
	for _, key := range []string{"plain", "cas", "batched"} {
		got, ok := srv.Store().Get(key)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("%s: stored value changed after its request frame was reused", key)
		}
	}
}
