package main

import (
	"fmt"
	"time"

	"ecstore/internal/calib"
	"ecstore/internal/perfmodel"
	"ecstore/internal/simnet"
)

// Probe sizes for fitting the fabric: one value per size class of the
// workloads, read back through the proxy so each read issues K chunk
// rpc calls of size/K bytes.
var probeSizes = []struct {
	size, count int
}{
	{1 << 10, 64},
	{1 << 20, 8},
}

// rpcPoint is the mean rpc call time observed at one chunk payload.
type rpcPoint struct {
	chunk int
	mean  time.Duration
}

// probeFabric stores probe values through the proxy, reads each back
// with mg, and returns the mean rpc call time during the reads at each
// probe size. The probe keys are disjoint from the workload's.
func probeFabric(s *stack, seed int64) ([]rpcPoint, error) {
	mc, err := dialMC(s.proxy.Addr())
	if err != nil {
		return nil, err
	}
	defer mc.Close()
	hist := s.client.Metrics().Histogram("ecstore_rpc_call_seconds")
	var pts []rpcPoint
	for _, p := range probeSizes {
		keys := make([]string, p.count)
		v := make([]byte, p.size)
		for i := range keys {
			keys[i] = fmt.Sprintf("probe%d-%d", p.size, i)
			encodeValue(v, keys[i], streamID(seed, -1-i, p.size))
			if err := mc.set(keys[i], v); err != nil {
				return nil, fmt.Errorf("probe set %s: %w", keys[i], err)
			}
		}
		n0, s0 := hist.Count(), hist.Sum()
		for _, k := range keys {
			if err := mc.mg(k); err != nil {
				return nil, fmt.Errorf("probe get %s: %w", k, err)
			}
			if msg := verifyRead(&mc.rr, []string{k}); msg != "" {
				return nil, fmt.Errorf("probe get: %s", msg)
			}
		}
		n := hist.Count() - n0
		if n == 0 {
			return nil, fmt.Errorf("probe at %d B made no rpc calls", p.size)
		}
		// The proxy stores 4 bytes of client flags in front of the value.
		pts = append(pts, rpcPoint{chunk: (p.size + 4 + 2) / 3, mean: (hist.Sum() - s0) / time.Duration(n)})
	}
	return pts, nil
}

// fitFabric solves T(d) = L + d/B through two probe points.
func fitFabric(a, b rpcPoint) simnet.Profile {
	p := simnet.Profile{Name: "loopback-tcp"}
	dt := float64(b.mean - a.mean)
	if dt > 0 {
		p.BytesPerSec = float64(b.chunk-a.chunk) / (dt / float64(time.Second))
		p.Latency = a.mean - time.Duration(float64(a.chunk)/p.BytesPerSec*float64(time.Second))
	} else {
		p.Latency = a.mean
	}
	if p.Latency < 0 {
		p.Latency = 0
	}
	return p
}

// modelGaps compares the measured core time with the paper's fully
// overlapped Equations 7 (Set) and 8 (Get) at the workload's value
// size; a gap of 1 means the stack matches the model. The gaps are
// diagnostics only. A gap is 0 when the workload has no such call.
func modelGaps(w workload, pts []rpcPoint, cm calib.Model, ms []metric) []metric {
	get := func(name string) float64 {
		for _, m := range ms {
			if m.name == name {
				return m.value
			}
		}
		return 0
	}
	p := perfmodel.Params{Profile: fitFabric(pts[0], pts[1]), Calib: cm, K: 3, M: 2}
	d := w.size + 4
	setUs := get("core.set_us")
	readUs := get("core.get_us")
	if readUs == 0 {
		readUs = get("core.getmulti_us") / float64(w.batch)
	}
	return []metric{
		{"perfmodel.set_gap", ratio(setUs, us(p.EraSetIdeal(d))), "ratio"},
		{"perfmodel.get_gap", ratio(readUs, us(p.EraGetIdeal(d, w.kill))), "ratio"},
		{"perfmodel.latency_us", us(p.Profile.Latency), "us"},
		{"perfmodel.bandwidth_mbps", p.Profile.BytesPerSec / 1e6, "MB/s"},
	}
}
