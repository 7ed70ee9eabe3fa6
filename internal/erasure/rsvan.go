package erasure

import (
	"bytes"
	"fmt"
)

// RSVan is classic Reed-Solomon coding with a systematic generator
// matrix derived from a Vandermonde matrix (Jerasure's reed_sol_van, the
// scheme the paper selects as RS(K,M)). Encoding and decoding are dense
// GF(2^8) matrix-vector products executed with split-table slice
// kernels.
//
// Large shards are striped into cache-friendly segments and coded
// concurrently on a bounded worker pool, and parity/reconstruction
// buffers come from a shard BufferPool — both on by default and
// tunable through Options (WithParallel, WithWorkers,
// WithParallelThreshold, WithPool).
type RSVan struct {
	k, m int
	// gen is the (k+m)×k systematic generator matrix: the top k rows
	// are the identity, the bottom m rows produce parity.
	gen  *Matrix
	opts codecOpts
	exec executor
}

var _ Code = (*RSVan)(nil)

// NewRSVan constructs an RS(k, m) Vandermonde code. k and m must be
// positive with k+m <= 256. With no options the code stripes large
// shards across the shared GOMAXPROCS worker pool and draws scratch
// buffers from DefaultPool.
func NewRSVan(k, m int, opts ...Option) (*RSVan, error) {
	if err := checkKM(k, m); err != nil {
		return nil, err
	}
	v := Vandermonde(k+m, k)
	top := v.SubMatrix(seq(0, k))
	topInv, err := top.Invert()
	if err != nil {
		// Vandermonde square submatrices are always invertible.
		return nil, fmt.Errorf("rs-van generator: %w", err)
	}
	o := defaultCodecOpts()
	for _, opt := range opts {
		opt(&o)
	}
	return &RSVan{k: k, m: m, gen: v.Mul(topInv), opts: o, exec: o.newExecutor()}, nil
}

func checkKM(k, m int) error {
	if k <= 0 || m <= 0 {
		return fmt.Errorf("erasure: k and m must be positive (k=%d, m=%d)", k, m)
	}
	if k+m > 256 {
		return fmt.Errorf("erasure: k+m must be <= 256 (k=%d, m=%d)", k, m)
	}
	return nil
}

func seq(lo, hi int) []int {
	s := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		s = append(s, i)
	}
	return s
}

// K returns the number of data shards.
func (r *RSVan) K() int { return r.k }

// M returns the number of parity shards.
func (r *RSVan) M() int { return r.m }

// Name returns "rs-van".
func (r *RSVan) Name() string { return "rs-van" }

// Generator returns a copy of the systematic generator matrix, exposed
// for tests and for the analytical model.
func (r *RSVan) Generator() *Matrix { return r.gen.Clone() }

// Encode computes the m parity shards from the k data shards.
func (r *RSVan) Encode(shards [][]byte) error {
	size, _, err := checkShards(shards, r.k, r.m, true)
	if err != nil {
		return err
	}
	jobs := make([]codeJob, 0, r.m)
	for row := 0; row < r.m; row++ {
		idx := r.k + row
		if shards[idx] == nil {
			// The first generator column overwrites the output, so a
			// dirty pool buffer is fine here.
			shards[idx] = r.opts.alloc(size)
		}
		jobs = append(jobs, codeJob{
			out:    shards[idx],
			coeffs: r.gen.Row(idx)[:r.k],
			srcs:   shards[:r.k],
		})
	}
	r.exec.run(jobs, size)
	return nil
}

// Reconstruct recovers every nil shard (data and parity) from any k
// present shards.
func (r *RSVan) Reconstruct(shards [][]byte) error {
	return r.reconstruct(shards, true)
}

// ReconstructData recovers only the missing data shards, leaving nil
// parity shards nil. Degraded reads need just the data, so skipping the
// parity recompute removes up to m dot products from the hot path.
func (r *RSVan) ReconstructData(shards [][]byte) error {
	return r.reconstruct(shards, false)
}

func (r *RSVan) reconstruct(shards [][]byte, withParity bool) error {
	size, present, err := checkShards(shards, r.k, r.m, false)
	if err != nil {
		return err
	}
	if present < r.k {
		return fmt.Errorf("%w: have %d of %d", ErrTooFewShards, present, r.k)
	}
	missingData := false
	for i := 0; i < r.k; i++ {
		if shards[i] == nil {
			missingData = true
			break
		}
	}
	if missingData {
		if err := r.reconstructData(shards, size); err != nil {
			return err
		}
	}
	if !withParity {
		return nil
	}
	// Recompute any missing parity directly from the (now complete)
	// data shards.
	jobs := make([]codeJob, 0, r.m)
	for row := 0; row < r.m; row++ {
		idx := r.k + row
		if shards[idx] != nil {
			continue
		}
		shards[idx] = r.opts.alloc(size)
		jobs = append(jobs, codeJob{
			out:    shards[idx],
			coeffs: r.gen.Row(idx)[:r.k],
			srcs:   shards[:r.k],
		})
	}
	r.exec.run(jobs, size)
	return nil
}

func (r *RSVan) reconstructData(shards [][]byte, size int) error {
	// Pick the first k present shards and build the square decode
	// matrix from their generator rows.
	rows := make([]int, 0, r.k)
	srcs := make([][]byte, 0, r.k)
	for i := 0; i < len(shards) && len(rows) < r.k; i++ {
		if shards[i] != nil {
			rows = append(rows, i)
			srcs = append(srcs, shards[i])
		}
	}
	dec, err := r.gen.SubMatrix(rows).Invert()
	if err != nil {
		return fmt.Errorf("rs-van decode: %w", err)
	}
	jobs := make([]codeJob, 0, r.k)
	for d := 0; d < r.k; d++ {
		if shards[d] != nil {
			continue
		}
		shards[d] = r.opts.alloc(size)
		jobs = append(jobs, codeJob{
			out:    shards[d],
			coeffs: dec.Row(d)[:r.k],
			srcs:   srcs,
		})
	}
	r.exec.run(jobs, size)
	return nil
}

// Verify recomputes parity and compares it with the stored parity.
func (r *RSVan) Verify(shards [][]byte) (bool, error) {
	size, _, err := checkShards(shards, r.k, r.m, true)
	if err != nil {
		return false, err
	}
	for row := 0; row < r.m; row++ {
		if shards[r.k+row] == nil {
			return false, nil
		}
	}
	buf := r.opts.alloc(size)
	defer r.opts.release(buf)
	for row := 0; row < r.m; row++ {
		jobs := []codeJob{{
			out:    buf,
			coeffs: r.gen.Row(r.k + row)[:r.k],
			srcs:   shards[:r.k],
		}}
		r.exec.run(jobs, size)
		if !bytes.Equal(buf, shards[r.k+row]) {
			return false, nil
		}
	}
	return true, nil
}

func clearSlice(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// ReconstructData recovers only the missing data shards of c, using the
// code's native data-only path when it has one (RSVan) and falling back
// to a full Reconstruct otherwise. Degraded reads want this: the caller
// is about to Join the data shards and discard parity.
func ReconstructData(c Code, shards [][]byte) error {
	if rd, ok := c.(interface{ ReconstructData([][]byte) error }); ok {
		return rd.ReconstructData(shards)
	}
	return c.Reconstruct(shards)
}
