package erasure

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"ecstore/internal/gf256"
)

// ErrDeltaShape is returned by EncodeDelta when the old and new values
// do not share a shard layout (different shard sizes for the code's K),
// so a linear per-chunk patch cannot express the overwrite and the
// caller must fall back to a full re-stripe.
var ErrDeltaShape = errors.New("erasure: old and new values have different shard layouts")

// deltaBlock is the column-block width, in bytes per shard, at which
// EncodeDelta looks for an overwrite's dirty columns. It must exceed
// DefaultRunMergeGap: a clean block between two dirty windows is then
// a zero gap no run can merge across, which is what keeps per-window
// run extraction identical to a scan of the full-width delta shard.
const deltaBlock = 1 << 10

// DeltaRun is one contiguous non-zero range of a delta shard: Data
// holds the XOR bytes to apply at Offset.
type DeltaRun struct {
	Offset int
	Data   []byte
}

// DefaultRunMergeGap is the zero-gap below which two adjacent non-zero
// ranges of a delta shard share one run: carrying a few literal zeros
// is cheaper than another run header on the wire.
const DefaultRunMergeGap = 16

// Delta is the sparse patch set of one overwrite: for each of the
// code's K+M shards, the XOR runs that turn the old value's chunk into
// the new value's.
type Delta struct {
	// ShardLen is the per-shard size both values share.
	ShardLen int
	// Runs holds one run list per shard, K data shards then M parity,
	// each in ascending offset order with absolute shard offsets. The
	// runs alias buffers the Delta owns: serialize them before Release.
	Runs [][]DeltaRun

	bufs [][]byte
	pool *BufferPool
}

// Release returns the Delta's window buffers to the pool and drops its
// runs. Extra calls are no-ops.
func (d *Delta) Release() {
	for _, b := range d.bufs {
		d.pool.Put(b)
	}
	d.bufs, d.Runs = nil, nil
}

// EncodeDelta encodes the XOR difference between two versions of a
// value as per-shard sparse runs. Reed-Solomon over GF(256) is linear,
// so encode(new) = encode(old) XOR encode(new XOR old): a server holding
// a chunk of the old stripe can XOR the matching runs onto it — data
// and parity chunks alike — and end up holding exactly the chunk a full
// re-encode of the new value would have produced.
//
// The work is proportional to the edit, not the value. RS-Vandermonde
// parity byte j depends only on data byte j of each data shard, so a
// column that no data shard changes has a zero delta in every shard.
// EncodeDelta compares the two values per deltaBlock-wide column block
// across the K data shards (both zero-padded to the shard size, exactly
// as Split pads them), groups consecutive dirty blocks into windows,
// and XORs and encodes only each window's columns. The runs equal those
// of a full-width delta encode scanned with DefaultRunMergeGap, byte
// for byte. A value with a checksummed header and a far body edit thus
// costs two small windows, not the span between them.
//
// Both values must round to the same shard size for the code's K,
// otherwise ErrDeltaShape is returned. Each window leases K+M buffers
// from pool (DefaultPool when nil); the caller must Release the Delta
// once its runs have been serialized.
func EncodeDelta(code *RSVan, oldValue, newValue []byte, pool *BufferPool) (*Delta, error) {
	k, m := code.K(), code.M()
	per := ShardSize(len(newValue), k, packetAlign)
	if ShardSize(len(oldValue), k, packetAlign) != per {
		return nil, fmt.Errorf("%w: %d -> %d bytes (K=%d)", ErrDeltaShape, len(oldValue), len(newValue), k)
	}
	if pool == nil {
		pool = DefaultPool
	}
	d := &Delta{ShardLen: per, Runs: make([][]DeltaRun, k+m), bufs: make([][]byte, 0, k+m), pool: pool}
	shards := make([][]byte, k+m)
	lo := -1 // first column of the open window; -1 when none is open
	for col := 0; col < per; col += deltaBlock {
		if columnsDiffer(oldValue, newValue, k, per, col, min(col+deltaBlock, per)) {
			if lo < 0 {
				lo = col
			}
			continue
		}
		if lo >= 0 {
			if err := d.encodeWindow(code, shards, oldValue, newValue, lo, col); err != nil {
				d.Release()
				return nil, err
			}
			lo = -1
		}
	}
	if lo >= 0 {
		if err := d.encodeWindow(code, shards, oldValue, newValue, lo, per); err != nil {
			d.Release()
			return nil, err
		}
	}
	return d, nil
}

// encodeWindow builds the delta shards of columns [lo, hi) in pooled
// buffers, encodes their parity and appends every shard's runs.
func (d *Delta) encodeWindow(code *RSVan, shards [][]byte, oldValue, newValue []byte, lo, hi int) error {
	k, w := code.K(), hi-lo
	for i := range shards {
		s := d.pool.GetRaw(w)
		d.bufs = append(d.bufs, s)
		shards[i] = s
		if i >= k {
			continue // parity: Encode overwrites every byte
		}
		off := i*d.ShardLen + lo
		n := copy(s, segment(newValue, off, w))
		clear(s[n:]) // zero the padding a raw pool buffer may carry
		// s ^= old columns; the zero padding beyond either value's tail
		// XORs to the other's bytes, exactly as Split would pad.
		old := segment(oldValue, off, w)
		gf256.AddSlice(old, s[:len(old)])
	}
	if err := code.Encode(shards); err != nil {
		return err
	}
	for i, s := range shards {
		d.Runs[i] = appendNonzeroRuns(d.Runs[i], s, lo, DefaultRunMergeGap)
	}
	return nil
}

// columnsDiffer reports whether the two values differ anywhere in
// columns [lo, hi) of any of the k data shards of size per, reading
// each value as zero-padded past its end.
func columnsDiffer(oldValue, newValue []byte, k, per, lo, hi int) bool {
	for i := 0; i < k; i++ {
		a := segment(oldValue, i*per+lo, hi-lo)
		b := segment(newValue, i*per+lo, hi-lo)
		if len(a) > len(b) {
			a, b = b, a
		}
		if !bytes.Equal(a, b[:len(a)]) || !allZero(b[len(a):]) {
			return true
		}
	}
	return false
}

// segment returns v[off:off+n] cut short at v's end: the part of a
// zero-padded shard window the value itself holds.
func segment(v []byte, off, n int) []byte {
	if off >= len(v) {
		return nil
	}
	return v[off:min(off+n, len(v))]
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// appendNonzeroRuns appends the sparse runs of a delta shard (or of a
// window of one starting at shard offset base) to runs: every non-zero
// byte is covered by exactly one run, runs are in ascending offset
// order, and ranges separated by fewer than mergeGap zero bytes are
// coalesced. The appended runs alias shard.
func appendNonzeroRuns(runs []DeltaRun, shard []byte, base, mergeGap int) []DeltaRun {
	i := 0
	for i < len(shard) {
		// Skip zeros a word at a time: delta shards are mostly zero.
		for i+8 <= len(shard) && binary.LittleEndian.Uint64(shard[i:]) == 0 {
			i += 8
		}
		for i < len(shard) && shard[i] == 0 {
			i++
		}
		if i == len(shard) {
			break
		}
		start, last := i, i
		for j := i + 1; j < len(shard) && j-last <= mergeGap; j++ {
			if shard[j] != 0 {
				last = j
			}
		}
		runs = append(runs, DeltaRun{Offset: base + start, Data: shard[start : last+1]})
		i = last + 1 + mergeGap
	}
	return runs
}

// ApplyRuns XORs runs onto shard in place — the server-side half of a
// delta write, shared with tests. It fails if any run falls outside the
// shard.
func ApplyRuns(shard []byte, runs []DeltaRun) error {
	for _, r := range runs {
		if r.Offset < 0 || r.Offset+len(r.Data) > len(shard) {
			return fmt.Errorf("erasure: delta run [%d,%d) outside shard of %d bytes",
				r.Offset, r.Offset+len(r.Data), len(shard))
		}
		gf256.AddSlice(r.Data, shard[r.Offset:r.Offset+len(r.Data)])
	}
	return nil
}
