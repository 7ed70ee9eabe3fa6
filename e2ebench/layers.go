package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"ecstore/internal/bufpool"
	"ecstore/internal/metrics"
	"ecstore/internal/stats"
)

// layerSnap is every counter the per-layer metrics are deltas of,
// taken at one instant outside the timed window.
type layerSnap struct {
	client     metrics.Snapshot
	rpcCall    *stats.Histogram // copy of ecstore_rpc_call_seconds
	handle     *stats.Histogram // copy of ecstore_server_handle_seconds, live servers merged
	serverOps  int64
	opErrors   int64
	storeSets  int64
	storeGets  int64
	storeHits  int64
	evictions  int64
	pool       bufpool.Stats
	mem        runtime.MemStats
	cnet, snet netCounts
}

func takeSnap(s *stack, tr *tracer) layerSnap {
	var ls layerSnap
	reg := s.client.Metrics()
	ls.client = reg.Snapshot()
	ls.rpcCall = copyHistogram(reg.Histogram("ecstore_rpc_call_seconds"))
	var handles []*stats.Histogram
	for _, i := range s.live() {
		srv := s.cl.Server(i)
		snap := srv.Metrics().Snapshot()
		for name, v := range snap.Counters {
			if strings.HasPrefix(name, "ecstore_server_ops_total{") {
				ls.serverOps += v
			}
		}
		ls.opErrors += snap.Counter("ecstore_server_op_errors_total")
		handles = append(handles, srv.Metrics().Histogram("ecstore_server_handle_seconds"))
		st := srv.Store().Stats()
		ls.storeSets += st.Sets
		ls.storeGets += st.Gets
		ls.storeHits += st.Hits
		ls.evictions += st.Evictions
	}
	ls.handle = copyHistogram(handles...)
	ls.pool = bufpool.Default.Stats()
	runtime.ReadMemStats(&ls.mem)
	ls.cnet, ls.snet = tr.clientNet.counts(), tr.serverNet.counts()
	return ls
}

// queueSampler records the deepest server job queue seen while it runs.
type queueSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	max  int64
}

const queueSampleEvery = 20 * time.Millisecond

func startQueueSampler(s *stack) *queueSampler {
	q := &queueSampler{stop: make(chan struct{})}
	q.wg.Add(1)
	go func() {
		defer q.wg.Done()
		t := time.NewTicker(queueSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-q.stop:
				return
			case <-t.C:
				for _, i := range s.live() {
					if d := s.cl.Server(i).Metrics().Snapshot().Gauges["ecstore_server_job_queue_depth"]; d > q.max {
						q.max = d
					}
				}
			}
		}
	}()
	return q
}

// Stop ends sampling and returns the maximum depth seen.
func (q *queueSampler) Stop() int64 {
	close(q.stop)
	q.wg.Wait()
	return q.max
}

// metric is one named, unit-carrying result.
type metric struct {
	name  string
	value float64
	unit  string
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// phaseNames maps the benchmark's short phase names onto the
// ecstore_client_phase_seconds labels.
var phaseNames = []struct{ short, label string }{
	{"request", "request"},
	{"wait", "wait-response"},
	{"code", "encode-decode"},
}

// layerMetrics derives every per-layer metric from the window's
// spans, the snapshots around it and the generator's counts.
func layerMetrics(w window, ss spanSummary, a, b layerSnap, queueMax int64) []metric {
	reqs := float64(w.attempted)
	dc := func(name string) float64 { return float64(b.client.Counter(name) - a.client.Counter(name)) }
	dhSum := func(name string) float64 {
		return float64(b.client.Histograms[name].Sum - a.client.Histograms[name].Sum)
	}
	dhCount := func(name string) float64 {
		return float64(b.client.Histograms[name].Count - a.client.Histograms[name].Count)
	}
	spanUs := func(layer string) float64 {
		return ratio(float64(ss.layerNs[layer]), float64(ss.layerCalls[layer])) / 1e3
	}

	out := []metric{
		{"memproto.self_us", ratio(float64(ss.memprotoNs), float64(ss.requests)) / 1e3, "us"},
		{"core.set_us", spanUs(layerSet), "us"},
		{"core.get_us", spanUs(layerGet), "us"},
		{"core.getmulti_us", spanUs(layerGetMulti), "us"},
	}
	for _, op := range []string{"set", "get", "mget"} {
		ops := dc(fmt.Sprintf("ecstore_client_ops_total{op=%q}", op))
		for _, ph := range phaseNames {
			h := fmt.Sprintf("ecstore_client_phase_seconds{op=%q,phase=%q}", op, ph.label)
			out = append(out, metric{"core.phase." + ph.short + "_us." + op, ratio(dhSum(h), ops) / 1e3, "us"})
		}
	}
	deltas := dc("ecstore_client_delta_writes_total")
	frames := dc("ecstore_client_bulk_frames_total")
	out = append(out,
		metric{"core.delta.hit_ratio", ratio(deltas, deltas+dc("ecstore_client_delta_fallbacks_total")), "ratio"},
		metric{"core.delta.patch_bytes_per_write", ratio(dhSum("ecstore_client_delta_patch_bytes"), dhCount("ecstore_client_delta_patch_bytes")), "B"},
		metric{"core.degraded_ratio", ratio(dc("ecstore_client_degraded_reads_total"), float64(w.keysRead)), "ratio"},
		metric{"core.retries_per_req", ratio(dc("ecstore_client_retries_total"), reqs), "count"},
		metric{"core.failovers_per_req", ratio(dc("ecstore_client_failovers_total"), reqs), "count"},
		metric{"core.bulk.frames_per_req", ratio(frames, reqs), "count"},
		metric{"core.bulk.subops_per_frame", ratio(dc("ecstore_client_bulk_subops_total"), frames), "count"},
		metric{"rpc.calls_per_req", ratio(dc("ecstore_rpc_calls_total"), reqs), "count"},
		metric{"rpc.call_us_p50", us(windowQuantile(a.rpcCall, b.rpcCall, 0.50)), "us"},
		metric{"rpc.call_us_p99", us(windowQuantile(a.rpcCall, b.rpcCall, 0.99)), "us"},
		metric{"rpc.failfast_per_req", ratio(dc("ecstore_rpc_failfast_total"), reqs), "count"},
		metric{"wire.client_tx_bytes_per_req", ratio(float64(b.cnet.txBytes-a.cnet.txBytes), reqs), "B"},
		metric{"wire.client_rx_bytes_per_req", ratio(float64(b.cnet.rxBytes-a.cnet.rxBytes), reqs), "B"},
		metric{"transport.client_writes_per_req", ratio(float64(b.cnet.writes-a.cnet.writes), reqs), "count"},
		metric{"transport.server_writes_per_req", ratio(float64(b.snet.writes-a.snet.writes), reqs), "count"},
		metric{"transport.client_write_us_per_req", ratio(float64(b.cnet.writeNs-a.cnet.writeNs), reqs) / 1e3, "us"},
	)
	handled := float64(b.handle.Count() - a.handle.Count())
	out = append(out,
		metric{"server.handle_us_mean", ratio(float64(b.handle.Sum()-a.handle.Sum()), handled) / 1e3, "us"},
		metric{"server.handle_us_p99", us(windowQuantile(a.handle, b.handle, 0.99)), "us"},
		metric{"server.ops_per_req", ratio(float64(b.serverOps-a.serverOps), reqs), "count"},
		metric{"server.queue_depth_max", float64(queueMax), "count"},
		metric{"server.op_errors", float64(b.opErrors - a.opErrors), "count"},
		metric{"store.sets_per_req", ratio(float64(b.storeSets-a.storeSets), reqs), "count"},
		metric{"store.gets_per_req", ratio(float64(b.storeGets-a.storeGets), reqs), "count"},
		metric{"store.hit_ratio", ratio(float64(b.storeHits-a.storeHits), float64(b.storeGets-a.storeGets)), "ratio"},
		metric{"store.evictions", float64(b.evictions - a.evictions), "count"},
	)
	poolGets := float64(b.pool.Gets - a.pool.Gets)
	out = append(out,
		metric{"bufpool.gets_per_req", ratio(poolGets, reqs), "count"},
		metric{"bufpool.hit_ratio", ratio(float64(b.pool.Hits-a.pool.Hits), poolGets), "ratio"},
		metric{"go.allocs_per_req", ratio(float64(b.mem.Mallocs-a.mem.Mallocs), reqs), "count"},
		metric{"go.alloc_bytes_per_req", ratio(float64(b.mem.TotalAlloc-a.mem.TotalAlloc), reqs), "B"},
		metric{"go.gc_per_kreq", ratio(float64(b.mem.NumGC-a.mem.NumGC), reqs) * 1e3, "count"},
		metric{"go.gc_pause_us_per_req", ratio(float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs), reqs) / 1e3, "us"},
	)
	return out
}
