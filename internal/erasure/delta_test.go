package erasure

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ecstore/internal/gf256"
)

// encodeDeltaDense is the full-width reference for EncodeDelta: it XORs
// the two zero-padded values over every column of every data shard and
// runs the code's Encode across the whole shard width. It works for any
// linear code; EncodeDelta must reproduce its runs exactly.
func encodeDeltaDense(code Code, oldValue, newValue []byte, pool *BufferPool) (*PooledShards, error) {
	k := code.K()
	per := ShardSize(len(newValue), k, packetAlign)
	if ShardSize(len(oldValue), k, packetAlign) != per {
		return nil, fmt.Errorf("%w: %d -> %d bytes (K=%d)", ErrDeltaShape, len(oldValue), len(newValue), k)
	}
	ps := SplitPooled(newValue, k, code.M(), pool)
	for i := 0; i < k; i++ {
		old := segment(oldValue, i*per, per)
		gf256.AddSlice(old, ps.Shards[i][:len(old)])
	}
	if err := code.Encode(ps.Shards); err != nil {
		ps.Release()
		return nil, err
	}
	return ps, nil
}

// denseRuns is the reference run set: the full-width delta shards
// scanned with DefaultRunMergeGap. The runs alias ps.
func denseRuns(ps *PooledShards) [][]DeltaRun {
	runs := make([][]DeltaRun, len(ps.Shards))
	for i, s := range ps.Shards {
		runs[i] = appendNonzeroRuns(nil, s, 0, DefaultRunMergeGap)
	}
	return runs
}

// applyDeltaToEncoded XOR-applies every shard's runs onto the
// corresponding encoded old-value shard — what the K+M servers
// collectively do during a delta overwrite.
func applyDeltaToEncoded(t testing.TB, oldShards [][]byte, runs [][]DeltaRun) {
	t.Helper()
	for i, rr := range runs {
		if err := ApplyRuns(oldShards[i], rr); err != nil {
			t.Fatalf("ApplyRuns shard %d: %v", i, err)
		}
	}
}

func encodeValue(t testing.TB, code Code, value []byte) [][]byte {
	t.Helper()
	shards := Split(value, code.K(), code.M())
	if err := code.Encode(shards); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return shards
}

// mutate returns a copy of value with every byte of [off, off+span)
// changed (clamped to the value's end).
func mutate(value []byte, off, span int, rng *rand.Rand) []byte {
	out := append([]byte(nil), value...)
	xorEdit(out, off, span, rng)
	return out
}

// xorEdit changes every byte of v[off:off+span] in place (clamped to
// v's end).
func xorEdit(v []byte, off, span int, rng *rand.Rand) {
	for i := off; i < off+span && i < len(v); i++ {
		v[i] ^= byte(1 + rng.Intn(255)) // never XOR with 0: the byte must change
	}
}

// checkAgainstDense asserts that EncodeDelta returns exactly the
// reference's runs — same shards, offsets and bytes — or, for a
// layout-crossing resize, that both refuse with ErrDeltaShape.
func checkAgainstDense(t testing.TB, code *RSVan, oldValue, newValue []byte) *Delta {
	t.Helper()
	ref, refErr := encodeDeltaDense(code, oldValue, newValue, nil)
	got, err := EncodeDelta(code, oldValue, newValue, nil)
	if refErr != nil {
		if !errors.Is(err, ErrDeltaShape) || !errors.Is(refErr, ErrDeltaShape) {
			t.Fatalf("%d -> %d bytes: got err %v, reference err %v", len(oldValue), len(newValue), err, refErr)
		}
		return nil
	}
	defer ref.Release()
	if err != nil {
		t.Fatalf("EncodeDelta %d -> %d bytes: %v", len(oldValue), len(newValue), err)
	}
	if got.ShardLen != len(ref.Shards[0]) {
		t.Fatalf("ShardLen = %d, reference %d", got.ShardLen, len(ref.Shards[0]))
	}
	want := denseRuns(ref)
	if len(got.Runs) != len(want) {
		t.Fatalf("%d run lists, reference %d", len(got.Runs), len(want))
	}
	for i := range want {
		if len(got.Runs[i]) != len(want[i]) {
			t.Fatalf("shard %d: %d runs, reference %d", i, len(got.Runs[i]), len(want[i]))
		}
		for j, r := range want[i] {
			g := got.Runs[i][j]
			if g.Offset != r.Offset || !bytes.Equal(g.Data, r.Data) {
				t.Fatalf("shard %d run %d: [%d,+%d), reference [%d,+%d)",
					i, j, g.Offset, len(g.Data), r.Offset, len(r.Data))
			}
		}
	}
	return got
}

// TestEncodeDeltaMatchesDense pins the block-sparse encoder to the
// full-width reference run for run, across edit shapes that exercise
// the column-block and window logic and every K/M from 1 to 8.
func TestEncodeDeltaMatchesDense(t *testing.T) {
	type edit func(old []byte, per, k int, rng *rand.Rand) []byte
	resize := func(old []byte, n int) []byte {
		out := make([]byte, n)
		copy(out, old)
		for i := len(old); i < n; i++ {
			out[i] = byte(i*7 + 1)
		}
		return out
	}
	cases := []struct {
		name string
		edit edit
	}{
		{"identical", func(old []byte, _, _ int, _ *rand.Rand) []byte {
			return append([]byte(nil), old...)
		}},
		{"header+far-body", func(old []byte, _, _ int, rng *rand.Rand) []byte {
			v := mutate(old, 0, 4, rng)
			xorEdit(v, len(v)*3/4, 64, rng)
			return v
		}},
		{"several", func(old []byte, _, _ int, rng *rand.Rand) []byte {
			v := append([]byte(nil), old...)
			for i := 0; i < 6; i++ {
				xorEdit(v, rng.Intn(len(v)), 1+rng.Intn(300), rng)
			}
			return v
		}},
		{"adjacent-blocks", func(old []byte, _, _ int, rng *rand.Rand) []byte {
			// Two edits 1.5 blocks apart: one window with a zero
			// stretch longer than the merge gap inside it.
			v := mutate(old, 10, 8, rng)
			xorEdit(v, 10+deltaBlock*3/2, 8, rng)
			return v
		}},
		{"merge-across-block-edge", func(old []byte, _, _ int, rng *rand.Rand) []byte {
			// Two edits 12 zero bytes apart on either side of a block
			// edge: the reference merges them into one run.
			v := mutate(old, deltaBlock-4, 2, rng)
			xorEdit(v, deltaBlock+10, 2, rng)
			return v
		}},
		{"block-straddle", func(old []byte, per, k int, rng *rand.Rand) []byte {
			v := mutate(old, deltaBlock-2, 4, rng)
			xorEdit(v, (k-1)*per+3*deltaBlock-1, 2, rng)
			return v
		}},
		{"shard-straddle", func(old []byte, per, _ int, rng *rand.Rand) []byte {
			return mutate(old, per-3, 6, rng)
		}},
		{"last-byte", func(old []byte, _, _ int, rng *rand.Rand) []byte {
			return mutate(old, len(old)-1, 1, rng)
		}},
		{"whole-value", func(old []byte, _, _ int, rng *rand.Rand) []byte {
			return mutate(old, 0, len(old), rng)
		}},
		{"grow-in-layout", func(old []byte, per, k int, _ *rand.Rand) []byte {
			return resize(old, min(len(old)+5, per*k))
		}},
		{"shrink-in-layout", func(old []byte, per, k int, _ *rand.Rand) []byte {
			return resize(old, max(len(old)-5, (per-packetAlign)*k+1))
		}},
		{"grow-across-layout", func(old []byte, per, k int, _ *rand.Rand) []byte {
			return resize(old, per*k+1)
		}},
		{"shrink-across-layout", func(old []byte, per, k int, _ *rand.Rand) []byte {
			return resize(old, (per-packetAlign)*k)
		}},
	}
	rng := rand.New(rand.NewSource(12))
	const size = 20_011
	oldValue := make([]byte, size)
	rng.Read(oldValue)
	for k := 1; k <= 8; k++ {
		for m := 1; m <= 8; m++ {
			code, err := NewRSVan(k, m)
			if err != nil {
				t.Fatal(err)
			}
			per := ShardSize(size, k, packetAlign)
			for _, tc := range cases {
				newValue := tc.edit(oldValue, per, k, rng)
				t.Run(fmt.Sprintf("k=%d/m=%d/%s", k, m, tc.name), func(t *testing.T) {
					d := checkAgainstDense(t, code, oldValue, newValue)
					crossing := ShardSize(len(newValue), k, packetAlign) != per
					if crossing != (d == nil) {
						t.Fatalf("layout crossing = %v but delta = %v", crossing, d)
					}
					if d == nil {
						return
					}
					defer d.Release()
					if tc.name == "identical" {
						for i, rr := range d.Runs {
							if len(rr) != 0 {
								t.Fatalf("identical values: shard %d has %d runs", i, len(rr))
							}
						}
					}
				})
			}
		}
	}

	// The paper's case at full size: a checksummed header plus a far
	// body edit of a 1 MB RS(3,2) value.
	code, err := NewRSVan(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 1<<20)
	rng.Read(big)
	edited := mutate(big, 0, 4, rng)
	xorEdit(edited, 700_000, 64, rng)
	checkAgainstDense(t, code, big, edited).Release()
}

// TestEncodeDeltaWindowLeases pins the encoder's work to the edit: a
// 4 B header edit and a 64 B body edit of a 1 MB RS(3,2) value touch
// two column blocks in different shards, so the encoder leases one
// window of K+M buffers per edit and nothing else from its pool.
func TestEncodeDeltaWindowLeases(t *testing.T) {
	code, err := NewRSVan(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	oldValue := make([]byte, 1<<20)
	rng.Read(oldValue)
	// Byte 512 KiB is column 174760 of shard 1 (shard size 349528),
	// inside block [174080, 175104) with room for 64 bytes.
	newValue := mutate(oldValue, 0, 4, rng)
	xorEdit(newValue, 512<<10, 64, rng)

	pool := NewBufferPool()
	d, err := EncodeDelta(code, oldValue, newValue, pool)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Release()
	if got, want := pool.Stats().Gets, uint64((3+2)*2); got != want {
		t.Fatalf("EncodeDelta leased %d buffers, want (K+M)x2 = %d", got, want)
	}
	if len(d.Runs[0]) == 0 || len(d.Runs[1]) == 0 || len(d.Runs[2]) != 0 {
		t.Fatalf("data runs per shard = %d/%d/%d, want the edits in shards 0 and 1 only",
			len(d.Runs[0]), len(d.Runs[1]), len(d.Runs[2]))
	}
}

// TestEncodeDeltaParity is the core linearity property: applying the
// delta runs onto the encoded old value yields byte-identical shards to
// re-encoding the new value — data AND parity.
func TestEncodeDeltaParity(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cases := []struct {
		k, m, size, off, span int
	}{
		{3, 2, 1 << 20, 512, 64},        // paper case: tiny edit in 1 MB
		{3, 2, 1 << 20, 0, 4096},        // edit at the very front
		{3, 2, 1 << 20, 1<<20 - 64, 64}, // edit at the very tail
		{3, 2, 999, 100, 50},            // unaligned size, k does not divide
		{2, 1, 64, 0, 64},               // whole value rewritten
		{4, 3, 8192, 3000, 1},           // single-byte edit spanning shard 1
		{6, 3, 100_000, 33_000, 40_000}, // edit spanning several shards
		{1, 1, 4096, 17, 3},             // k=1 degenerate stripe
		{10, 4, 123_456, 61_000, 8},     // wide stripe
	}
	for _, tc := range cases {
		code, err := NewRSVan(tc.k, tc.m)
		if err != nil {
			t.Fatalf("NewRSVan(%d,%d): %v", tc.k, tc.m, err)
		}
		oldValue := make([]byte, tc.size)
		rng.Read(oldValue)
		newValue := mutate(oldValue, tc.off, tc.span, rng)

		delta, err := EncodeDelta(code, oldValue, newValue, nil)
		if err != nil {
			t.Fatalf("EncodeDelta k=%d m=%d size=%d: %v", tc.k, tc.m, tc.size, err)
		}
		oldShards := encodeValue(t, code, oldValue)
		applyDeltaToEncoded(t, oldShards, delta.Runs)
		delta.Release()

		newShards := encodeValue(t, code, newValue)
		for i := range newShards {
			if !bytes.Equal(oldShards[i], newShards[i]) {
				t.Errorf("k=%d m=%d size=%d off=%d span=%d: shard %d differs after delta apply",
					tc.k, tc.m, tc.size, tc.off, tc.span, i)
			}
		}
	}
}

func TestEncodeDeltaShapeMismatch(t *testing.T) {
	code, err := NewRSVan(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 300 -> 400 bytes crosses a shard-size boundary for K=3.
	if _, err := EncodeDelta(code, make([]byte, 300), make([]byte, 400), nil); !errors.Is(err, ErrDeltaShape) {
		t.Fatalf("EncodeDelta across shard layouts: err = %v, want ErrDeltaShape", err)
	}
	// 97 -> 100: both round to the same aligned shard size; the delta
	// must cover the reshaped tail so the grown value decodes exactly.
	oldValue := make([]byte, 97)
	newValue := make([]byte, 100)
	rand.New(rand.NewSource(7)).Read(oldValue)
	copy(newValue, oldValue)
	newValue[98] = 0xAB
	delta, err := EncodeDelta(code, oldValue, newValue, nil)
	if err != nil {
		t.Fatalf("EncodeDelta same-layout resize: %v", err)
	}
	oldShards := encodeValue(t, code, oldValue)
	applyDeltaToEncoded(t, oldShards, delta.Runs)
	delta.Release()
	got, err := Join(oldShards, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, newValue) {
		t.Fatal("same-layout resize did not round-trip through the delta")
	}
}

func TestNonzeroRuns(t *testing.T) {
	// All-zero shards produce no runs at all: an untouched shard costs
	// only the patch header on the wire.
	if runs := appendNonzeroRuns(nil, make([]byte, 4096), 0, DefaultRunMergeGap); len(runs) != 0 {
		t.Fatalf("zero shard produced %d runs", len(runs))
	}
	if runs := appendNonzeroRuns(nil, nil, 0, DefaultRunMergeGap); len(runs) != 0 {
		t.Fatalf("nil shard produced %d runs", len(runs))
	}

	// Coverage property under random sparse patterns and gap settings:
	// rebuilding a zero shard from the runs reproduces the original.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		size := 1 + rng.Intn(5000)
		shard := make([]byte, size)
		for i := 0; i < rng.Intn(20); i++ {
			shard[rng.Intn(size)] = byte(rng.Intn(256)) // may place zeros too
		}
		gap := rng.Intn(64)
		runs := appendNonzeroRuns(nil, shard, 0, gap)
		rebuilt := make([]byte, size)
		if err := ApplyRuns(rebuilt, runs); err != nil {
			t.Fatalf("ApplyRuns: %v", err)
		}
		if !bytes.Equal(rebuilt, shard) {
			t.Fatalf("trial %d (size=%d gap=%d): runs did not reproduce the shard", trial, size, gap)
		}
		// Runs must be ordered, non-overlapping, and start/end non-zero
		// (no run ever wastes its first or last byte on a zero).
		prevEnd := -1
		for _, r := range runs {
			if r.Offset <= prevEnd {
				t.Fatalf("trial %d: run at %d overlaps or disorders previous end %d", trial, r.Offset, prevEnd)
			}
			if len(r.Data) == 0 || r.Data[0] == 0 || r.Data[len(r.Data)-1] == 0 {
				t.Fatalf("trial %d: run at %d has zero boundary bytes", trial, r.Offset)
			}
			prevEnd = r.Offset + len(r.Data) - 1
		}
	}

	// Merge behaviour: two bytes closer than the gap share one run.
	shard := make([]byte, 100)
	shard[10], shard[20] = 1, 2
	if runs := appendNonzeroRuns(nil, shard, 0, 16); len(runs) != 1 {
		t.Fatalf("gap-10 bytes with mergeGap=16: got %d runs, want 1", len(runs))
	}
	if runs := appendNonzeroRuns(nil, shard, 0, 4); len(runs) != 2 {
		t.Fatalf("gap-10 bytes with mergeGap=4: got %d runs, want 2", len(runs))
	}
	// A window's runs carry its base offset and append after earlier
	// windows' runs.
	runs := appendNonzeroRuns([]DeltaRun{{Offset: 3, Data: []byte{9}}}, shard, 1000, 4)
	if len(runs) != 3 || runs[1].Offset != 1010 || runs[2].Offset != 1020 {
		t.Fatalf("based runs = %+v, want offsets 3, 1010, 1020", runs)
	}
}

func TestApplyRunsBounds(t *testing.T) {
	shard := make([]byte, 16)
	if err := ApplyRuns(shard, []DeltaRun{{Offset: 10, Data: make([]byte, 7)}}); err == nil {
		t.Fatal("run past the shard end was accepted")
	}
	if err := ApplyRuns(shard, []DeltaRun{{Offset: -1, Data: []byte{1}}}); err == nil {
		t.Fatal("negative offset was accepted")
	}
}

// FuzzDeltaParity fuzzes the end-to-end delta property across K/M,
// value sizes, and arbitrary edits: XOR-applying the delta runs onto
// every encoded old-value chunk must reproduce the re-encoded new value
// byte-identically, and joining the patched data chunks must yield the
// new value.
func FuzzDeltaParity(f *testing.F) {
	f.Add(uint8(3), uint8(2), []byte("hello world, this is the old value"), uint16(4), []byte("HELLO"))
	f.Add(uint8(1), uint8(1), []byte{0}, uint16(0), []byte{0xFF})
	f.Add(uint8(4), uint8(4), bytes.Repeat([]byte{7}, 1000), uint16(999), []byte{1, 2, 3})
	f.Add(uint8(2), uint8(1), []byte{}, uint16(0), []byte("created"))
	f.Fuzz(func(t *testing.T, k, m uint8, oldValue []byte, editOff uint16, edit []byte) {
		ki, mi := int(k%8)+1, int(m%8)+1
		code, err := NewRSVan(ki, mi)
		if err != nil {
			t.Skip()
		}
		// Build the new value: same length as old (delta requires the
		// same shard layout for most edits), with edit XORed in at
		// editOff, wrapping around. A zero-length old value gets the
		// edit appended instead, exercising the grow-within-one-shard
		// case.
		newValue := append([]byte(nil), oldValue...)
		if len(newValue) == 0 {
			newValue = append(newValue, edit...)
		} else {
			for i, b := range edit {
				newValue[(int(editOff)+i)%len(newValue)] ^= b
			}
		}
		delta, err := EncodeDelta(code, oldValue, newValue, nil)
		if err != nil {
			// Only a genuine layout mismatch may refuse.
			if ShardSize(len(oldValue), ki, 8) == ShardSize(len(newValue), ki, 8) {
				t.Fatalf("EncodeDelta refused same-layout values: %v", err)
			}
			return
		}
		defer delta.Release()

		oldShards := encodeValue(t, code, oldValue)
		applyDeltaToEncoded(t, oldShards, delta.Runs)
		newShards := encodeValue(t, code, newValue)
		for i := range newShards {
			if !bytes.Equal(oldShards[i], newShards[i]) {
				t.Fatalf("k=%d m=%d len=%d: shard %d differs after delta apply", ki, mi, len(oldValue), i)
			}
		}
		joined, err := Join(oldShards, ki, len(newValue))
		if err != nil {
			t.Fatalf("Join: %v", err)
		}
		if !bytes.Equal(joined, newValue) {
			t.Fatal("patched data chunks do not join to the new value")
		}
	})
}

// FuzzEncodeDeltaMatchesDense fuzzes run-for-run equality between
// EncodeDelta and the full-width reference: a seeded random value of up
// to 64 KiB (so edits land across many column blocks), two arbitrary
// XOR edits, and a resize that may or may not cross the shard layout.
func FuzzEncodeDeltaMatchesDense(f *testing.F) {
	f.Add(uint8(3), uint8(2), uint16(40_000), int64(1), uint16(0), []byte{1, 2, 3, 4}, uint16(30_000), bytes.Repeat([]byte{0x5A}, 64), int8(0))
	f.Add(uint8(2), uint8(1), uint16(5_000), int64(2), uint16(1023), []byte{1, 1}, uint16(2047), []byte{2}, int8(3))
	f.Add(uint8(4), uint8(3), uint16(9_000), int64(3), uint16(2249), []byte{7, 7, 7}, uint16(8_999), []byte{8}, int8(-4))
	f.Add(uint8(1), uint8(1), uint16(0), int64(4), uint16(0), []byte{}, uint16(0), []byte("x"), int8(9))
	f.Fuzz(func(t *testing.T, k, m uint8, size uint16, seed int64, offA uint16, editA []byte, offB uint16, editB []byte, resize int8) {
		code, err := NewRSVan(int(k%8)+1, int(m%8)+1)
		if err != nil {
			t.Skip()
		}
		oldValue := make([]byte, size)
		rand.New(rand.NewSource(seed)).Read(oldValue)
		n := max(int(size)+int(resize), 0)
		newValue := make([]byte, n)
		copy(newValue, oldValue)
		for i := len(oldValue); i < n; i++ {
			newValue[i] = byte(i) | 1
		}
		if n > 0 {
			for _, e := range []struct {
				off  uint16
				data []byte
			}{{offA, editA}, {offB, editB}} {
				for i, b := range e.data {
					newValue[(int(e.off)+i)%n] ^= b
				}
			}
		}
		if d := checkAgainstDense(t, code, oldValue, newValue); d != nil {
			d.Release()
		}
	})
}
