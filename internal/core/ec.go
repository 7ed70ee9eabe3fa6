package core

import (
	"errors"
	"fmt"
	"time"

	"ecstore/internal/erasure"
	"ecstore/internal/rpc"
	"ecstore/internal/wire"
)

// ecStrategy implements online Reed-Solomon erasure coding with the
// four client/server encode/decode placements of Section IV-B.
type ecStrategy struct {
	c      *Client
	code   *erasure.RSVan // concrete: EncodeDelta needs a byte-column code
	k, m   int
	scheme Scheme
}

var _ strategy = (*ecStrategy)(nil)

func newECStrategy(c *Client) (*ecStrategy, error) {
	// The code draws reconstruction buffers from erasure.DefaultPool;
	// the get/repair paths rely on that when they hand rebuilt chunks
	// back to the pool.
	code, err := erasure.NewRSVan(c.cfg.K, c.cfg.M, erasure.WithPool(erasure.DefaultPool))
	if err != nil {
		return nil, err
	}
	return &ecStrategy{
		c:      c,
		code:   code,
		k:      c.cfg.K,
		m:      c.cfg.M,
		scheme: c.cfg.Scheme,
	}, nil
}

func (e *ecStrategy) clientEncodes() bool {
	return e.scheme == SchemeCECD || e.scheme == SchemeCESD
}

func (e *ecStrategy) clientDecodes() bool {
	return e.scheme == SchemeCECD || e.scheme == SchemeSECD
}

func (e *ecStrategy) set(key string, value []byte, ttl time.Duration) (uint64, error) {
	// Overwrite of a known base: ship K+M sparse patches instead of
	// re-striping the whole value (DESIGN §14). Any disagreement —
	// no base, resized value, oversized patch, version conflict, lost
	// chunk — falls through to the full path below.
	if version, err := e.trySetDelta(key, value, ttl, 0, false); !errors.Is(err, errDeltaFallback) {
		return version, err
	}
	n := e.k + e.m
	placement, epoch := e.c.placement(key, n)
	if placement == nil {
		return 0, ErrUnavailable
	}
	if !e.clientEncodes() {
		return e.serverEncodeSet(key, value, ttl, placement, epoch)
	}

	// Client-side encode: split, compute parity, distribute all K+M
	// chunks with non-blocking writes (Equation 7: T_encode + max over
	// chunks of (L + D/(B·K))). Shard buffers come from the shared
	// pool; the chunk payloads below copy them, so releasing when the
	// writes have completed is safe.
	start := time.Now()
	ps := erasure.SplitPooled(value, e.k, e.m, nil)
	defer ps.Release()
	shards := ps.Shards
	if err := e.code.Encode(shards); err != nil {
		return 0, err
	}
	encoded := time.Now()
	e.c.instrument("set", phaseCode, encoded.Sub(start))
	e.c.mECWriteBytes.Add(int64(n) * int64(wire.ChunkPayloadOverhead+len(shards[0])))

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
		// Chunk payloads are leased from the frame pool and handed over
		// with the request (ValuePool): the connection's frame writer
		// releases each one as its bytes hit the wire, success or not.
		fp := e.c.pool.FramePool()
		call, err := e.c.pool.Send(addr, &wire.Request{
			Op:         wire.OpSetChunk,
			Key:        wire.ChunkKey(key, i),
			Value:      wire.EncodeChunkPayloadPooled(fp, cm, shards[i]),
			ValuePool:  fp,
			TTLSeconds: ttlSeconds(ttl),
			Meta:       cm,
			Epoch:      epoch,
		})
		if err != nil {
			firstErr = fmt.Errorf("chunk %d to %s: %w", i, addr, err)
			break
		}
		calls = append(calls, call)
	}
	issued := time.Now()
	e.c.instrument("set", phaseRequest, issued.Sub(encoded))
	// Wait out every issued call even after a failure: returning early
	// would let the remaining in-flight chunk writes keep landing after
	// the error is reported, leaving a torn stripe of this write that
	// can shadow the previous complete one.
	for i, call := range calls {
		resp, err := call.Wait()
		if err == nil {
			err = resp.Err()
		}
		resp.Release()
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("chunk %d write: %w", i, err)
		}
	}
	e.c.instrument("set", phaseWait, time.Since(issued))
	e.c.instrumentOp()
	if firstErr != nil {
		// calls[i] carries chunk i (the issue loop stops at the first
		// Send failure), so exactly chunks [0, len(calls)) may have
		// landed with this stripe ID.
		e.unwindStripe(key, placement, meta.Stripe, len(calls), epoch)
		return 0, firstErr
	}
	return meta.Stripe, nil
}

// compareSet implements the conditional write for erasure coding: the
// stripe ID doubles as the version, and every chunk write is a
// per-holder CompareSwap against the expected old stripe. The write is
// always client-encoded, whatever the read/write scheme — the
// conditional decision must happen at each chunk holder, which the
// server-encode path cannot express.
//
// A holder whose chunk is missing (evicted, or crashed and restarted
// empty) accepts the conditional write and reports prior version 0;
// the stripe as a whole still existed if ANY holder reports the
// expected prior, so a strict CAS succeeds across partial chunk loss
// exactly when a plain Get would still have decoded the old value —
// and the successful CAS re-materialises the lost chunks. When NO
// holder held the old stripe the key is authoritatively absent:
// the freshly written chunks are unwound and ErrNotFound returned.
// Any holder answering StatusExists is a lost race: the new stripe is
// unwound (stripe-conditional deletes, so a newer write is never
// collateral damage) and ErrCASConflict returned.
func (e *ecStrategy) compareSet(key string, value []byte, ttl time.Duration, expect uint64) (uint64, error) {
	// A CAS against a near-cached base at exactly the expected version
	// can be expressed as K+M version-conditional patches — the delta
	// round's per-holder Compare IS the CAS check (DESIGN §14). An add
	// (expect == absent) has nothing to patch.
	if expect != wire.CompareAbsent {
		if version, err := e.trySetDelta(key, value, ttl, expect, true); !errors.Is(err, errDeltaFallback) {
			return version, err
		}
	}
	n := e.k + e.m
	placement, epoch := e.c.placement(key, n)
	if placement == nil {
		return 0, ErrUnavailable
	}
	start := time.Now()
	ps := erasure.SplitPooled(value, e.k, e.m, nil)
	defer ps.Release()
	shards := ps.Shards
	if err := e.code.Encode(shards); err != nil {
		return 0, err
	}
	encoded := time.Now()
	e.c.instrument("cas", phaseCode, encoded.Sub(start))
	e.c.mECWriteBytes.Add(int64(n) * int64(wire.ChunkPayloadOverhead+len(shards[0])))

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
		fp := e.c.pool.FramePool()
		call, err := e.c.pool.Send(addr, &wire.Request{
			Op:         wire.OpCompareSet,
			Key:        wire.ChunkKey(key, i),
			Value:      wire.EncodeChunkPayloadPooled(fp, cm, shards[i]),
			ValuePool:  fp,
			TTLSeconds: ttlSeconds(ttl),
			Compare:    expect,
			Meta:       cm,
			Epoch:      epoch,
		})
		if err != nil {
			firstErr = fmt.Errorf("chunk %d to %s: %w", i, addr, err)
			break
		}
		calls = append(calls, call)
	}
	issued := time.Now()
	e.c.instrument("cas", phaseRequest, issued.Sub(encoded))
	conflicts, priors := 0, 0
	for i, call := range calls {
		resp, err := call.Wait()
		if err == nil {
			err = resp.Err()
		}
		switch {
		case err == nil:
			if resp.Meta.Stripe != 0 {
				priors++ // this holder really held the old stripe
			}
		case errors.Is(err, wire.ErrExists):
			conflicts++
		default:
			if firstErr == nil {
				firstErr = fmt.Errorf("chunk %d conditional write: %w", i, err)
			}
		}
		resp.Release()
	}
	e.c.instrument("cas", phaseWait, time.Since(issued))
	e.c.instrumentOp()
	switch {
	case conflicts > 0:
		e.unwindStripe(key, placement, meta.Stripe, len(calls), epoch)
		return 0, ErrCASConflict
	case firstErr != nil:
		e.unwindStripe(key, placement, meta.Stripe, len(calls), epoch)
		return 0, firstErr
	case expect != wire.CompareAbsent && priors == 0:
		// Every holder accepted, but none of them held the old stripe:
		// the key did not exist, so a strict CAS must not create it.
		e.unwindStripe(key, placement, meta.Stripe, len(calls), epoch)
		return 0, ErrNotFound
	}
	return meta.Stripe, nil
}

// unwindStripe best-effort deletes the chunks a failed Set may have
// written, using stripe-conditional deletes so a concurrent newer
// overwrite is never deleted by mistake. Errors are ignored: a chunk
// holder that is down keeps its stale chunk, but with fewer than K
// chunks the dead stripe can never be decoded or shadow an older one.
func (e *ecStrategy) unwindStripe(key string, placement []string, stripe uint64, issued int, epoch uint64) {
	e.c.mUnwinds.Inc()
	// Cleanup runs after the failed write already spent up to one full
	// deadline waiting; half a deadline here keeps the whole Set within
	// the documented 2x OpTimeout bound even when the same hung holder
	// eats both phases.
	timeout := e.c.cfg.OpTimeout / 2
	calls := make([]*rpc.Call, 0, issued)
	for i := 0; i < issued; i++ {
		call, err := e.c.pool.SendTimeout(placement[i], &wire.Request{
			Op:    wire.OpDelete,
			Key:   wire.ChunkKey(key, i),
			Meta:  wire.ECMeta{Stripe: stripe},
			Epoch: epoch,
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

// serverEncodeSet sends the whole value to the primary, which encodes
// and distributes the chunks itself (Era-SE-*). If the primary is
// down, the next server in the placement takes over as coordinator.
func (e *ecStrategy) serverEncodeSet(key string, value []byte, ttl time.Duration, placement []string, epoch uint64) (uint64, error) {
	meta := wire.ECMeta{K: uint8(e.k), M: uint8(e.m), TotalLen: uint32(len(value))}
	e.c.mECWriteBytes.Add(int64(len(value)))
	start := time.Now()
	defer func() {
		e.c.instrument("set", phaseWait, time.Since(start))
		e.c.instrumentOp()
	}()
	var lastErr error
	// Healthy coordinators first: a suspect primary is tried last (its
	// probe window still lets recovery be noticed) instead of eating a
	// dial or deadline on every write.
	for i, addr := range e.c.orderByHealth(distinct(placement)) {
		if i > 0 {
			e.c.mFailovers.Inc()
		}
		resp, err := e.c.pool.Roundtrip(addr, &wire.Request{
			Op: wire.OpEncodeSet, Key: key, Value: value,
			TTLSeconds: ttlSeconds(ttl), Meta: meta, Epoch: epoch,
		})
		if err == nil {
			// The coordinator minted the stripe ID; it is this write's
			// version.
			version := resp.Meta.Stripe
			resp.Release()
			return version, nil
		}
		resp.Release()
		lastErr = err
		// Fail over only when the coordinator was unreachable (down or
		// suspect). A timeout is NOT failed over: the write may be
		// mid-flight on the first coordinator, and re-running it
		// elsewhere would be a silent retry past the stripe-write
		// stage.
		if !errors.Is(err, rpc.ErrServerDown) {
			return 0, err
		}
	}
	return 0, fmt.Errorf("%w: %v", ErrUnavailable, lastErr)
}

func (e *ecStrategy) get(key string) (Item, error) {
	n := e.k + e.m
	placement, epoch := e.c.placement(key, n)
	if placement == nil {
		return Item{}, ErrUnavailable
	}
	// Reads are idempotent, so transient failures (timeouts, down
	// servers) are retried with backoff; authoritative answers are not.
	// WrongEpoch is not retried here: it propagates to the client's
	// epoch-retry layer, which re-resolves placement first.
	var item Item
	err := e.c.withRetry(func() error {
		var err error
		if e.clientDecodes() {
			item, err = e.clientDecodeGet(key, placement, epoch)
		} else {
			item, err = e.serverDecodeGet(key, placement, epoch)
		}
		return err
	})
	return item, err
}

// clientDecodeGet aggregates chunks (data first, parity on failure)
// grouped by stripe so concurrent writes never produce a torn value,
// then reconstructs if needed (Equation 8).
func (e *ecStrategy) clientDecodeGet(key string, placement []string, epoch uint64) (Item, error) {
	n := e.k + e.m
	start := time.Now()
	collector := wire.NewChunkCollector(e.k, n)
	// reachable counts locations that answered at all (chunk, not-found
	// or another status); notFound counts authoritative misses among
	// them. Timed-out and unreachable locations are in neither.
	// wrongEpoch remembers a membership rejection so a non-decodable
	// outcome surfaces as the retriable epoch error, not unavailability.
	reachable, notFound := 0, 0
	var wrongEpoch bool
	// Remaining TTL as reported by the first holder of each stripe, so
	// the winning stripe's lifetime rides along with the value.
	ttlByStripe := make(map[uint64]uint32)

	// Chunks in the collector alias the pooled bodies of the responses
	// that carried them; the leases are held until Join has copied the
	// value out, then returned to the frame pool.
	var retained []*wire.Response
	defer func() {
		for _, r := range retained {
			r.Release()
		}
	}()

	fetch := func(lo, hi int) {
		calls := make(map[int]*rpc.Call, hi-lo)
		for i := lo; i < hi; i++ {
			call, err := e.c.pool.Send(placement[i], &wire.Request{
				Op: wire.OpGetChunk, Key: wire.ChunkKey(key, i), Epoch: epoch,
			})
			if err != nil {
				continue // server down; parity will cover it
			}
			calls[i] = call
		}
		for _, call := range calls {
			resp, err := call.Wait()
			if err != nil {
				continue // hung or dead mid-call; parity covers it
			}
			reachable++
			if respErr := resp.Err(); respErr != nil {
				if errors.Is(respErr, wire.ErrNotFound) {
					notFound++
				}
				if errors.Is(respErr, wire.ErrWrongEpoch) {
					wrongEpoch = true
				}
				resp.Release()
				continue
			}
			meta, chunk, err := wire.DecodeChunkPayload(resp.Value)
			if err != nil {
				resp.Release()
				continue // corrupt or torn chunk: parity covers it
			}
			collector.Add(meta, chunk)
			if _, seen := ttlByStripe[meta.Stripe]; !seen {
				ttlByStripe[meta.Stripe] = resp.TTLSeconds
			}
			retained = append(retained, resp)
		}
	}

	fetch(0, e.k)
	if !collector.Decodable() {
		fetch(e.k, n)
	}
	gathered := time.Now()
	e.c.instrument("get", phaseWait, gathered.Sub(start))
	stripe, totalLen, chunks, ok := collector.Best()
	if !ok {
		e.c.instrumentOp()
		// A membership rejection anywhere means this placement was
		// computed against the wrong ring: let the epoch-retry layer
		// refresh and re-resolve instead of misreporting availability.
		if wrongEpoch {
			return Item{}, wire.ErrWrongEpoch
		}
		// Not-found only on conclusive evidence: every reachable chunk
		// location answered an authoritative miss, and the unreachable
		// ones could not hold K chunks between them — so the key
		// cannot exist in decodable form. Anything weaker (a hung
		// majority, partial stripes, corrupt chunks) is unavailability,
		// not absence.
		if reachable > 0 && notFound == reachable && n-reachable < e.k {
			return Item{}, ErrNotFound
		}
		return Item{}, fmt.Errorf("%w: no stripe of %q has %d chunks available", ErrUnavailable, key, e.k)
	}

	// Degraded read: rebuild only the missing data chunks (parity is
	// not needed once the value is joined).
	var rebuilt []int
	for i := 0; i < e.k; i++ {
		if chunks[i] == nil {
			rebuilt = append(rebuilt, i)
		}
	}
	if len(rebuilt) > 0 {
		e.c.mDegraded.Inc()
		e.c.mRebuilt.Add(int64(len(rebuilt)))
		if err := erasure.ReconstructData(e.code, chunks); err != nil {
			return Item{}, err
		}
	}
	value, err := erasure.Join(chunks, e.k, int(totalLen))
	// Join copied the data out; the chunks the codec pool-allocated can
	// go back. Network-owned chunk buffers are never released.
	for _, i := range rebuilt {
		erasure.DefaultPool.Put(chunks[i])
	}
	e.c.instrument("get", phaseCode, time.Since(gathered))
	e.c.instrumentOp()
	if err != nil {
		return Item{}, err
	}
	return Item{Value: value, Version: stripe, TTL: ttlByStripe[stripe]}, nil
}

// serverDecodeGet asks the primary to aggregate and decode
// (Era-*-SD), falling over to the next placement server if it is down.
func (e *ecStrategy) serverDecodeGet(key string, placement []string, epoch uint64) (Item, error) {
	meta := wire.ECMeta{K: uint8(e.k), M: uint8(e.m)}
	start := time.Now()
	defer func() {
		e.c.instrument("get", phaseWait, time.Since(start))
		e.c.instrumentOp()
	}()
	var lastErr error
	// Unlike serverEncodeSet, a decode coordinator that times out IS
	// failed over: the read is idempotent, so asking another server is
	// always safe.
	for i, addr := range e.c.orderByHealth(distinct(placement)) {
		if i > 0 {
			e.c.mFailovers.Inc()
		}
		resp, err := e.c.pool.Roundtrip(addr, &wire.Request{
			Op: wire.OpDecodeGet, Key: key, Meta: meta, Epoch: epoch,
		})
		switch {
		case err == nil:
			// The joined value escapes to the caller; copy it out of the
			// pooled frame body before the lease goes back.
			item := Item{
				Value:   append([]byte(nil), resp.Value...),
				Version: resp.Meta.Stripe,
				TTL:     resp.TTLSeconds,
			}
			resp.Release()
			return item, nil
		case errors.Is(err, wire.ErrNotFound):
			resp.Release()
			return Item{}, ErrNotFound
		case rpc.IsUnavailable(err):
			resp.Release()
			lastErr = err
			continue
		default:
			resp.Release()
			return Item{}, err
		}
	}
	return Item{}, fmt.Errorf("%w: %v", ErrUnavailable, lastErr)
}

func (e *ecStrategy) del(key string) error {
	n := e.k + e.m
	placement, epoch := e.c.placement(key, n)
	if placement == nil {
		return ErrUnavailable
	}
	calls := make([]*rpc.Call, 0, n)
	// deleted / notFound count authoritative answers; failed counts
	// unreachable or timed-out chunk holders (including Send failures).
	deleted, notFound, failed := 0, 0, 0
	var failErr error
	for i, addr := range placement {
		call, err := e.c.pool.Send(addr, &wire.Request{
			Op: wire.OpDelete, Key: wire.ChunkKey(key, i), Epoch: epoch,
		})
		if err != nil {
			failed++
			if failErr == nil {
				failErr = err
			}
			continue
		}
		calls = append(calls, call)
	}
	for _, call := range calls {
		resp, err := call.Wait()
		if err != nil {
			failed++
			if failErr == nil {
				failErr = err
			}
			continue
		}
		respErr := resp.Err()
		resp.Release()
		switch {
		case respErr == nil:
			deleted++
		case errors.Is(respErr, wire.ErrNotFound):
			notFound++
		default:
			return respErr
		}
	}
	switch {
	case deleted == 0 && failed >= e.k:
		// Nothing confirmed deleted and enough holders unreached to
		// hold a decodable stripe between them: the key may still
		// exist.
		return fmt.Errorf("%w: delete %q: %v", ErrUnavailable, key, failErr)
	case deleted == 0:
		// Every reachable location answered authoritatively not-found,
		// and the unreached ones (fewer than K) cannot hold a decodable
		// stripe between them: the key does not exist (memcached delete
		// semantics). Mirrors the get-side classification.
		return ErrNotFound
	case failed >= e.k:
		// Some chunks were deleted but K or more holders never answered;
		// enough chunks may survive to still decode the old value, so
		// the delete cannot be reported as durable.
		return fmt.Errorf("%w: delete %q left %d chunk holders unreached", ErrUnavailable, key, failed)
	default:
		return nil
	}
}

// compareDelete for erasure coding: the stripe ID doubles as the
// version and every chunk store entry carries it, so the decision is a
// per-chunk conditional delete against the expected stripe, walked in
// FIXED placement order. A holder that answers NotFound merely evicted
// (or crashed and restarted without) its chunk — the stripe as a whole
// may still be readable, so the walk continues to the next holder,
// succeeding exactly when a plain Get would still have decoded the old
// value. A holder answering Exists is a lost race; nothing was
// removed, so ErrCASConflict is safe to report. Once one holder
// decides, the remaining chunks are removed with STRIPE-conditional
// deletes (Meta.Stripe = expect) so a concurrent newer write's chunks
// are never collateral damage.
func (e *ecStrategy) compareDelete(key string, expect uint64) error {
	n := e.k + e.m
	placement, epoch := e.c.placement(key, n)
	if placement == nil {
		return ErrUnavailable
	}
	start := time.Now()
	defer func() {
		e.c.instrument("delete", phaseWait, time.Since(start))
		e.c.instrumentOp()
	}()
	decided := -1
	failed := 0
	var lastErr error
walk:
	for i := 0; i < n; i++ {
		resp, err := e.c.pool.Roundtrip(placement[i], &wire.Request{
			Op: wire.OpDelete, Key: wire.ChunkKey(key, i), Compare: expect, Epoch: epoch,
		})
		resp.Release()
		switch {
		case err == nil:
			decided = i
			break walk
		case errors.Is(err, wire.ErrExists):
			return ErrCASConflict
		case errors.Is(err, wire.ErrNotFound):
			continue
		case errors.Is(err, wire.ErrWrongEpoch):
			return err
		default:
			failed++
			lastErr = err
		}
	}
	if decided < 0 {
		if failed >= e.k {
			// Enough holders unreached to hold a decodable stripe between
			// them: absence is not provable.
			return fmt.Errorf("%w: delete %q: %v", ErrUnavailable, key, lastErr)
		}
		return ErrNotFound
	}
	// Decided: converge the remaining holders with stripe-conditional
	// deletes. Best-effort — a down holder keeps an orphan chunk, but a
	// sub-K remnant can never decode, and the scrubber purges it.
	for i := 0; i < n; i++ {
		if i == decided {
			continue
		}
		resp, _ := e.c.pool.Roundtrip(placement[i], &wire.Request{
			Op:    wire.OpDelete,
			Key:   wire.ChunkKey(key, i),
			Meta:  wire.ECMeta{Stripe: expect},
			Epoch: epoch,
		})
		resp.Release()
	}
	return nil
}

// hybridStrategy is the paper's future-work policy: replicate small
// values (replication reads are one cheap round trip), erasure-code
// large ones (where EC's bandwidth and memory savings dominate).
type hybridStrategy struct {
	rep       *repStrategy
	ec        *ecStrategy
	threshold int
}

var _ strategy = (*hybridStrategy)(nil)

func (h *hybridStrategy) set(key string, value []byte, ttl time.Duration) (uint64, error) {
	// After the write lands, purge the OTHER representation: a previous
	// write of this key may have been on the far side of the size
	// threshold, and its leftovers would shadow this value on the
	// rep-first read path or fail verification forever. The purge is
	// best-effort — the new value is already durable, and the
	// anti-entropy scrubber converges whatever a down holder makes this
	// miss — but it must run AFTER the write succeeds, never before:
	// purging first and then failing the write would lose the old value
	// without installing the new one.
	if len(value) < h.threshold {
		version, err := h.rep.set(key, value, ttl)
		if err != nil {
			return 0, err
		}
		_ = h.ec.del(key)
		return version, nil
	}
	version, err := h.ec.set(key, value, ttl)
	if err != nil {
		return 0, err
	}
	_ = h.rep.del(key)
	return version, nil
}

// compareSet for the hybrid policy. The new value's size picks the
// representation the conditional write decides in; when the current
// item lives on the far side of the threshold no single conditional
// primitive spans both forms, so the version check degrades to a
// verified read followed by a plain hybrid set — atomic within each
// representation, best-effort across them (the same consistency class
// as hybrid get/del).
func (h *hybridStrategy) compareSet(key string, value []byte, ttl time.Duration, expect uint64) (uint64, error) {
	var target, other strategy = h.ec, h.rep
	if len(value) < h.threshold {
		target, other = h.rep, h.ec
	}
	otherItem, otherErr := other.get(key)
	switch {
	case otherErr == nil:
		// The key currently lives in the other representation.
		if expect == wire.CompareAbsent || otherItem.Version != expect {
			return 0, ErrCASConflict
		}
		// Cross-threshold CAS: checked, then written (hybrid set purges
		// the old form after the new one lands).
		return h.set(key, value, ttl)
	case errors.Is(otherErr, ErrNotFound):
		// Normal case: the key is absent from the other form, so the
		// conditional write is atomic within the target representation.
		return target.compareSet(key, value, ttl, expect)
	default:
		// The other form is unreachable: its state is unknown, and a
		// blind decision could resurrect or clobber it.
		return 0, otherErr
	}
}

func (h *hybridStrategy) get(key string) (Item, error) {
	// The write-side size is unknown at read time: probe the cheap
	// replicated form first, then the erasure-coded form.
	item, repErr := h.rep.get(key)
	if repErr == nil {
		return item, nil
	}
	if !errors.Is(repErr, ErrNotFound) && !errors.Is(repErr, ErrUnavailable) {
		return Item{}, repErr
	}
	item, ecErr := h.ec.get(key)
	if ecErr == nil {
		return item, nil
	}
	// "Not found" is conclusive only when BOTH probes answered
	// authoritatively. An EC-side miss proves nothing about the
	// replicated form: a small value whose replica holders are all
	// unreachable would otherwise be misreported as absent when it
	// still exists — so the replicated probe's unavailability wins.
	if errors.Is(ecErr, ErrNotFound) && errors.Is(repErr, ErrUnavailable) {
		return Item{}, repErr
	}
	return Item{}, ecErr
}

func (h *hybridStrategy) del(key string) error {
	// The write-side form is unknown, so delete both. A real failure on
	// either side must surface even when the other side succeeded:
	// swallowing it would leave the value resurrectable through the
	// failed form. Only authoritative not-found is ignorable.
	repErr := h.rep.del(key)
	ecErr := h.ec.del(key)
	if repErr != nil && !errors.Is(repErr, ErrNotFound) {
		return repErr
	}
	if ecErr != nil && !errors.Is(ecErr, ErrNotFound) {
		return ecErr
	}
	if errors.Is(repErr, ErrNotFound) && errors.Is(ecErr, ErrNotFound) {
		return ErrNotFound
	}
	return nil
}

// compareDelete for the hybrid policy: the live representation is
// unknown at delete time, so probe in the read path's order — the
// replicated form decides when it holds the key; an authoritative
// rep-side miss falls through to the erasure-coded conditional delete.
// After a rep-side decision the EC form is purged best-effort, exactly
// as a hybrid set purges the other representation. Any other rep-side
// outcome (conflict, unavailability) is final: guessing against an
// unreachable form could delete a value whose version no longer
// matches.
func (h *hybridStrategy) compareDelete(key string, expect uint64) error {
	repErr := h.rep.compareDelete(key, expect)
	switch {
	case repErr == nil:
		_ = h.ec.del(key)
		return nil
	case errors.Is(repErr, ErrNotFound):
		return h.ec.compareDelete(key, expect)
	default:
		return repErr
	}
}

// distinct returns addrs with duplicates (from wrapped placements on
// small clusters) removed, preserving order.
func distinct(addrs []string) []string {
	seen := make(map[string]bool, len(addrs))
	out := make([]string, 0, len(addrs))
	for _, a := range addrs {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}
