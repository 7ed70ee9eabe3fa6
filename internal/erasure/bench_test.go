package erasure

import (
	"fmt"
	"math/rand"
	"testing"
)

// Codec benchmarks in benchstat-readable form. The serial-vs-parallel
// pairs share the path=... label so that
//
//	go test -bench=Encode -run='^$' ./internal/erasure | benchstat -col /path -
//
// lines them up, and the pooled-vs-unpooled pairs do the same with the
// pool=... label (run with -benchmem to compare allocs/op).

var benchSizes = []int{1 << 10, 64 << 10, 256 << 10, 1 << 20}

func benchValue(size int) []byte {
	v := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(v)
	return v
}

func benchCode(b *testing.B, opts ...Option) *RSVan {
	b.Helper()
	code, err := NewRSVan(3, 2, opts...)
	if err != nil {
		b.Fatal(err)
	}
	return code
}

// BenchmarkEncode compares the serial and striped-parallel encode paths
// for RS(3,2) across Figure 4's value-size range. Both run unpooled so
// the delta is pure coding time.
func BenchmarkEncode(b *testing.B) {
	paths := []struct {
		name string
		opts []Option
	}{
		{"serial", []Option{WithParallel(false), WithPool(nil)}},
		{"parallel", []Option{WithParallelThreshold(1), WithPool(nil)}},
	}
	for _, p := range paths {
		for _, size := range benchSizes {
			b.Run(fmt.Sprintf("path=%s/size=%d", p.name, size), func(b *testing.B) {
				code := benchCode(b, p.opts...)
				shards := Split(benchValue(size), 3, 2)
				if err := code.Encode(shards); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := code.Encode(shards); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkReconstruct compares serial and parallel decode with the
// worst-case erasure (two data shards lost).
func BenchmarkReconstruct(b *testing.B) {
	paths := []struct {
		name string
		opts []Option
	}{
		{"serial", []Option{WithParallel(false), WithPool(nil)}},
		{"parallel", []Option{WithParallelThreshold(1), WithPool(nil)}},
	}
	for _, p := range paths {
		for _, size := range benchSizes {
			b.Run(fmt.Sprintf("path=%s/size=%d", p.name, size), func(b *testing.B) {
				code := benchCode(b, p.opts...)
				shards := Split(benchValue(size), 3, 2)
				if err := code.Encode(shards); err != nil {
					b.Fatal(err)
				}
				work := make([][]byte, len(shards))
				b.SetBytes(int64(size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(work, shards)
					work[0], work[1] = nil, nil
					if err := code.ReconstructData(work); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkEncodeAlloc measures the full per-Set codec cycle — split,
// encode, release — pooled against unpooled. Run with -benchmem: the
// pool=on rows show the allocation win.
func BenchmarkEncodeAlloc(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("pool=off/size=%d", size), func(b *testing.B) {
			code := benchCode(b, WithPool(nil))
			value := benchValue(size)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				shards := Split(value, 3, 2)
				if err := code.Encode(shards); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("pool=on/size=%d", size), func(b *testing.B) {
			pool := NewBufferPool()
			code := benchCode(b, WithPool(pool))
			value := benchValue(size)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ps := SplitPooled(value, 3, 2, pool)
				if err := code.Encode(ps.Shards); err != nil {
					b.Fatal(err)
				}
				ps.Release()
			}
		})
	}
}

// BenchmarkReconstructData isolates the degraded-read fast path: data-only
// reconstruction against full Reconstruct (which also recomputes the
// missing parity shard).
func BenchmarkReconstructData(b *testing.B) {
	const size = 1 << 20
	for _, mode := range []string{"data-only", "full"} {
		b.Run(fmt.Sprintf("mode=%s/size=%d", mode, size), func(b *testing.B) {
			code := benchCode(b)
			shards := Split(benchValue(size), 3, 2)
			if err := code.Encode(shards); err != nil {
				b.Fatal(err)
			}
			work := make([][]byte, len(shards))
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(work, shards)
				work[1], work[4] = nil, nil
				var err error
				if mode == "data-only" {
					err = code.ReconstructData(work)
				} else {
					err = code.Reconstruct(work)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncodeDelta measures the delta encode of an overwrite of a
// 1 MB RS(3,2) value, per edit shape: a 64 B body edit plus a 4 B
// header edit (a checksummed value), one 4 KB edit, and one 256 KB
// edit. impl=sparse is EncodeDelta; impl=dense is the full-width
// reference (delta_test.go) plus its run scan, the encoder EncodeDelta
// replaced. Run with -benchmem.
func BenchmarkEncodeDelta(b *testing.B) {
	const size = 1 << 20
	edits := []struct {
		name  string
		spans [][2]int // {offset, length}
	}{
		{"64B+hdr4B", [][2]int{{0, 4}, {size / 2, 64}}},
		{"4KB", [][2]int{{size / 2, 4 << 10}}},
		{"256KB", [][2]int{{size / 4, 256 << 10}}},
	}
	oldValue := benchValue(size)
	for _, e := range edits {
		newValue := append([]byte(nil), oldValue...)
		for _, sp := range e.spans {
			for i := sp[0]; i < sp[0]+sp[1]; i++ {
				newValue[i] ^= 0x5A
			}
		}
		b.Run(fmt.Sprintf("impl=sparse/edit=%s", e.name), func(b *testing.B) {
			code, pool := benchCode(b), NewBufferPool()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := EncodeDelta(code, oldValue, newValue, pool)
				if err != nil {
					b.Fatal(err)
				}
				d.Release()
			}
		})
		b.Run(fmt.Sprintf("impl=dense/edit=%s", e.name), func(b *testing.B) {
			pool := NewBufferPool()
			code := benchCode(b, WithPool(pool)) // parity from the pool Release returns it to
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ps, err := encodeDeltaDense(code, oldValue, newValue, pool)
				if err != nil {
					b.Fatal(err)
				}
				denseRuns(ps)
				ps.Release()
			}
		})
	}
}
