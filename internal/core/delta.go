package core

import (
	"errors"
	"fmt"
	"time"

	"ecstore/internal/erasure"
	"ecstore/internal/nearcache"
	"ecstore/internal/rpc"
	"ecstore/internal/wire"
)

// Delta-encoded EC overwrites (DESIGN §14). RS-Vandermonde is linear,
// so encode(new) = encode(old) XOR encode(new XOR old): when the client
// knows the exact old value (and the stripe version it was written at),
// an overwrite can ship K+M tiny sparse patches instead of re-striping
// the whole value. Every patch applies under a version-conditional
// check against the base stripe, so the path degrades to the full
// re-stripe on any disagreement instead of ever blending two writes.

// errDeltaFallback is the internal sentinel the delta path returns when
// the overwrite should take the full re-stripe path instead. It never
// escapes to callers.
var errDeltaFallback = errors.New("core: delta write not applicable")

// deltaFallbackReasons labels the per-reason fallback counters:
//
//	no-base    – the near cache missed, and read-before-write was
//	             skipped or found nothing
//	stale-base – cached version differs from the CAS token, so a patch
//	             against it would be conditioned on the wrong stripe
//	resize     – old and new values have different shard layouts
//	oversized  – patch bytes >= ~50% of the value; re-striping is cheaper
//	conflict   – a holder's chunk moved past the base version mid-write
//	missing    – a holder lost its chunk (a delta cannot re-materialise)
//	error      – transport failure mid-delta
var deltaFallbackReasons = []string{
	"no-base", "stale-base", "resize", "oversized", "conflict", "missing", "error",
}

// deltaMaxPatchFraction caps the patch size at value/deltaMaxPatchFraction;
// beyond it the full re-stripe is within a small factor of the patch
// anyway and skips the version-conditional round's conflict surface.
const deltaMaxPatchFraction = 2

func (e *ecStrategy) deltaFallback(reason string) (uint64, error) {
	e.c.mDeltaFallback.Inc()
	if ctr, ok := e.c.mDeltaReasons[reason]; ok {
		ctr.Inc()
	}
	return 0, errDeltaFallback
}

// deltaBase resolves the old logical value an overwrite of key can be
// patched against: the near cache first (version-stamped by DESIGN
// §11), then — for plain Sets of values large enough that one read
// costs less than the re-stripe it may save — a read-before-write.
// CAS overwrites never read-before-write: the caller's token came from
// its own Gets, so if the cache cannot produce the matching value the
// base is gone and the full path should decide the race.
func (e *ecStrategy) deltaBase(key string, valueLen int, isCas bool) (nearcache.Value, bool) {
	if base, ok := e.c.cache.Get(key); ok {
		return base, true
	}
	if !e.readsBeforeWrite(valueLen, isCas) {
		return nearcache.Value{}, false
	}
	item, err := e.get(key)
	if err != nil {
		return nearcache.Value{}, false
	}
	return nearcache.Value{Data: item.Value, Version: item.Version, TTL: item.TTL}, true
}

// readsBeforeWrite reports whether deltaBase may read an overwrite's
// base from the cluster when the near cache has none.
func (e *ecStrategy) readsBeforeWrite(valueLen int, isCas bool) bool {
	min := e.c.cfg.DeltaReadBeforeMin
	return !isCas && min > 0 && valueLen >= min
}

// trySetDelta attempts the delta overwrite for a Set (expect == 0,
// isCas == false) or a Cas (expect == the caller's token). It returns
// errDeltaFallback when the full re-stripe path should run instead;
// any other return is the operation's final outcome.
//
// The wire round sends one OpApplyDelta per chunk holder, conditioned
// on the base stripe. Outcomes:
//
//   - every holder patched: the write is complete — the patched chunks
//     are byte-identical to a full re-encode of the new value.
//   - any holder answered Exists (its chunk moved past the base): the
//     round lost a race. Committed patches are rolled back by applying
//     the SAME patch conditioned on the new stripe — XOR is its own
//     inverse — then a Cas reports ErrCASConflict (the holder's answer
//     is authoritative: its version differed from the token) and a Set
//     falls back to the unconditional full re-stripe.
//   - any holder answered NotFound (chunk lost): a delta cannot
//     re-materialise a chunk, so roll back and fall back to the full
//     path, which can.
//   - transport failure: roll back whatever may have landed and fall
//     back (Set) or report the failure (Cas — mirroring the full
//     conditional path, which fails rather than silently retries once
//     chunk writes have been issued).
//
// The rollback is best-effort with the same exposure as the full
// path's stripe-conditional delete unwind: a holder that stays down
// keeps a sub-K orphan that can never decode and that the scrubber
// heals from parity.
func (e *ecStrategy) trySetDelta(key string, value []byte, ttl time.Duration, expect uint64, isCas bool) (uint64, error) {
	c := e.c
	// Without a near cache the only possible base is a read-before-write;
	// when that would not run either, no base can exist, so the write is
	// not a delta candidate and counts no fallback.
	if c.cfg.DisableDeltaWrites || (c.cache == nil && !e.readsBeforeWrite(len(value), isCas)) {
		return 0, errDeltaFallback
	}
	base, ok := e.deltaBase(key, len(value), isCas)
	if !ok || base.Version == 0 {
		return e.deltaFallback("no-base")
	}
	if isCas && base.Version != expect {
		return e.deltaFallback("stale-base")
	}

	op := "set"
	if isCas {
		op = "cas"
	}
	start := time.Now()
	delta, err := erasure.EncodeDelta(e.code, base.Data, value, nil)
	if err != nil {
		return e.deltaFallback("resize")
	}
	defer delta.Release()
	n := e.k + e.m
	per := delta.ShardLen
	runs := make([][]wire.DeltaRun, n)
	patchBytes := 0
	for i, rr := range delta.Runs {
		wrr := make([]wire.DeltaRun, len(rr))
		for j, r := range rr {
			wrr[j] = wire.DeltaRun{Offset: uint32(r.Offset), Data: r.Data}
		}
		runs[i] = wrr
		patchBytes += wire.DeltaPatchSize(wrr)
	}
	if patchBytes*deltaMaxPatchFraction >= len(value) {
		return e.deltaFallback("oversized")
	}
	encoded := time.Now()
	c.instrument(op, phaseCode, encoded.Sub(start))

	placement, epoch := c.placement(key, n)
	if placement == nil {
		return e.deltaFallback("error")
	}
	meta := wire.ECMeta{
		K:        uint8(e.k),
		M:        uint8(e.m),
		TotalLen: uint32(len(value)),
		Stripe:   wire.NewStripeID(),
	}
	calls := make([]*rpc.Call, 0, n)
	var firstErr error
	for i, addr := range placement {
		cm := meta
		cm.ChunkIndex = uint8(i)
		fp := c.pool.FramePool()
		call, err := c.pool.Send(addr, &wire.Request{
			Op:         wire.OpApplyDelta,
			Key:        wire.ChunkKey(key, i),
			Value:      wire.EncodeDeltaPatchPooled(fp, uint32(per), runs[i]),
			ValuePool:  fp,
			TTLSeconds: ttlSeconds(ttl),
			Compare:    base.Version,
			Meta:       cm,
			Epoch:      epoch,
		})
		if err != nil {
			firstErr = fmt.Errorf("chunk %d delta to %s: %w", i, addr, err)
			break
		}
		calls = append(calls, call)
	}
	issued := time.Now()
	c.instrument(op, phaseRequest, issued.Sub(encoded))
	conflicts, missing := 0, 0
	for i, call := range calls {
		resp, err := call.Wait()
		if err == nil {
			err = resp.Err()
		}
		resp.Release()
		switch {
		case err == nil:
		case errors.Is(err, wire.ErrExists):
			conflicts++
		case errors.Is(err, wire.ErrNotFound):
			missing++
		default:
			if firstErr == nil {
				firstErr = fmt.Errorf("chunk %d delta write: %w", i, err)
			}
		}
	}
	c.instrument(op, phaseWait, time.Since(issued))

	if conflicts == 0 && missing == 0 && firstErr == nil {
		c.instrumentOp()
		full := int64(n) * int64(wire.ChunkPayloadOverhead+per)
		c.mDeltaWrites.Inc()
		c.mDeltaSaved.Add(full - int64(patchBytes))
		c.mECWriteBytes.Add(int64(patchBytes))
		c.hDeltaPatch.Record(time.Duration(patchBytes))
		return meta.Stripe, nil
	}

	e.unwindDelta(key, placement, runs, per, base, meta, len(calls), epoch)
	switch {
	case conflicts > 0 && isCas:
		c.instrumentOp()
		return 0, ErrCASConflict
	case conflicts > 0:
		return e.deltaFallback("conflict")
	case missing > 0:
		return e.deltaFallback("missing")
	case isCas:
		c.instrumentOp()
		return 0, firstErr
	default:
		return e.deltaFallback("error")
	}
}

// unwindDelta rolls a partially applied delta round back by re-sending
// the SAME patches conditioned on the new stripe: XOR is self-inverse,
// so a holder that committed the patch is restored to the exact base
// chunk (bytes, stripe ID, CRC and all), while a holder that never
// committed answers Exists/NotFound and is untouched. This is why a
// torn delta round can never strand a mixed stripe: every chunk is
// either the base or rolled back to it, and sub-K leftovers of the new
// stripe can never decode.
//
// A delete-based unwind would be UNSAFE here: with j new-stripe chunks
// committed, M < j < K+M-x deletes could leave NEITHER stripe with K
// chunks — the inverse patch restores instead of removing.
func (e *ecStrategy) unwindDelta(key string, placement []string, runs [][]wire.DeltaRun, shardLen int, base nearcache.Value, meta wire.ECMeta, issued int, epoch uint64) {
	e.c.mUnwinds.Inc()
	// Same budget as unwindStripe: half a deadline keeps the whole
	// write within the documented 2x OpTimeout bound.
	timeout := e.c.cfg.OpTimeout / 2
	inv := wire.ECMeta{
		K:        meta.K,
		M:        meta.M,
		TotalLen: uint32(len(base.Data)),
		Stripe:   base.Version,
	}
	calls := make([]*rpc.Call, 0, issued)
	for i := 0; i < issued; i++ {
		cm := inv
		cm.ChunkIndex = uint8(i)
		fp := e.c.pool.FramePool()
		call, err := e.c.pool.SendTimeout(placement[i], &wire.Request{
			Op:         wire.OpApplyDelta,
			Key:        wire.ChunkKey(key, i),
			Value:      wire.EncodeDeltaPatchPooled(fp, uint32(shardLen), runs[i]),
			ValuePool:  fp,
			TTLSeconds: base.TTL,
			Compare:    meta.Stripe, // only chunks that committed the delta roll back
			Meta:       cm,
			Epoch:      epoch,
		}, timeout)
		if err != nil {
			continue
		}
		calls = append(calls, call)
	}
	for _, call := range calls {
		resp, _ := call.Wait()
		resp.Release()
	}
}

// recordDeltaBase re-installs the value a successful Set/Cas just
// wrote as the key's near-cache entry, stamped with the new version.
// The write-side invalidate has already run (it must: a failed or
// conflicted write leaves the cached value unknown), so this is a
// fresh fill under a fresh generation — and it is what lets the NEXT
// overwrite of a hot key find a same-version base and take the delta
// path, instead of only overwrites that follow a read. Gated on the
// delta path being live: without it the refresh would spend cache
// space on write-heavy keys for no benefit.
func (c *Client) recordDeltaBase(key string, value []byte, version uint64, ttl time.Duration) {
	if version == 0 || !c.deltaCapable() {
		return
	}
	c.cache.Put(key, nearcache.Value{
		Data:    value,
		Version: version,
		TTL:     ttlSeconds(ttl),
	}, c.cache.Begin(key))
}

// deltaCapable reports whether this client can ever take the delta
// overwrite path: the near cache must exist to hold base values, the
// escape hatch must be off, and the resilience mode must have an
// erasure-coded write path.
func (c *Client) deltaCapable() bool {
	if c.cache == nil || c.cfg.DisableDeltaWrites {
		return false
	}
	switch c.cfg.Resilience {
	case ResilienceErasure, ResilienceHybrid:
		return true
	default:
		return false
	}
}
