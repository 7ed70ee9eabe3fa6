package store

import (
	"fmt"
	"testing"
)

func BenchmarkSet(b *testing.B) {
	for _, size := range []int{128, 4 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			s := New(Config{})
			value := make([]byte, size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Set(fmt.Sprintf("key-%d", i%1024), value, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGet(b *testing.B) {
	for _, size := range []int{128, 64 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			s := New(Config{})
			value := make([]byte, size)
			for i := 0; i < 1024; i++ {
				_ = s.Set(fmt.Sprintf("key-%d", i), value, 0)
			}
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := s.Get(fmt.Sprintf("key-%d", i%1024)); !ok {
					b.Fatal("miss")
				}
			}
		})
	}
}

func BenchmarkSetWithEviction(b *testing.B) {
	// Every set evicts: the worst-case write path.
	value := make([]byte, 4<<10)
	per := itemSize("key-0000", value)
	s := New(Config{MaxBytes: per * 64, Shards: 1})
	b.SetBytes(int64(len(value)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Set(fmt.Sprintf("key-%04d", i%100000), value, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConcurrentMixed(b *testing.B) {
	s := New(Config{})
	value := make([]byte, 1024)
	for i := 0; i < 1024; i++ {
		_ = s.Set(fmt.Sprintf("key-%d", i), value, 0)
	}
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			key := fmt.Sprintf("key-%d", i%1024)
			if i%4 == 0 {
				_ = s.Set(key, value, 0)
			} else {
				_, _ = s.Get(key)
			}
		}
	})
}

// sinkValue keeps benchmarked reads from being optimised away.
var sinkValue []byte

// BenchmarkStoreGetMeta reads one present key: the server's OpGet and
// delta-apply read path. Sizes are a small record and one RS(3,2)
// chunk of a 1 MB value.
func BenchmarkStoreGetMeta(b *testing.B) {
	for _, size := range []int{1 << 10, 350 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			s := New(Config{})
			_ = s.Set("k", make([]byte, size), 0)
			b.ReportAllocs()
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, _, _, ok := s.GetMeta("k")
				if !ok {
					b.Fatal("miss")
				}
				sinkValue = v
			}
		})
	}
}
