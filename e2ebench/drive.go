package main

import (
	"fmt"
	"sort"
	"sync"
	"syscall"
	"time"
)

// sample is one completed request: when it completed, relative to the
// start of the window, and how long it took, both in ns.
type sample struct{ done, lat int64 }

// connResult is what one generator connection observed.
type connResult struct {
	samples   []sample
	attempted int64
	failed    int64
	keysRead  int64
	firstFail string
	fatal     error // the connection broke; it stopped early
}

// window is the outcome of one timed drive over all connections.
type window struct {
	elapsed   time.Duration
	cpu       time.Duration // user+system CPU time of the whole process
	samples   []sample      // in completion order
	attempted int64
	failed    int64
	keysRead  int64
	failures  []string
	fatal     error
}

// drive runs the closed loop: each connection sends its next request
// only after the previous reply arrived, until d has passed.
func drive(conns []*mcConn, gens []*generator, d time.Duration, tr *tracer) window {
	res := make([]connResult, len(conns))
	cpu0 := processCPU()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i] = runConn(conns[i], gens[i], start, deadline, tr)
		}(i)
	}
	wg.Wait()
	w := window{elapsed: time.Since(start), cpu: processCPU() - cpu0}
	for _, r := range res {
		w.samples = append(w.samples, r.samples...)
		w.attempted += r.attempted
		w.failed += r.failed
		w.keysRead += r.keysRead
		if r.firstFail != "" {
			w.failures = append(w.failures, r.firstFail)
		}
		if r.fatal != nil && w.fatal == nil {
			w.fatal = r.fatal
		}
	}
	sort.Slice(w.samples, func(a, b int) bool { return w.samples[a].done < w.samples[b].done })
	return w
}

// processCPU returns the CPU time this process has used. On a shared
// host it excludes time the hypervisor gave to other guests.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// subWindow is the throughput and latency of one slice of a window.
type subWindow struct {
	opsPerSec float64
	lat       []int64 // sorted
}

// split cuts the window into k slices of equal length by completion
// time; requests completing after the deadline fall in the last slice.
func (w window) split(d time.Duration, k int) []subWindow {
	subs := make([]subWindow, k)
	for _, s := range w.samples {
		i := int(s.done * int64(k) / int64(d))
		if i >= k {
			i = k - 1
		}
		subs[i].lat = append(subs[i].lat, s.lat)
	}
	slice := d / time.Duration(k)
	for i := range subs {
		length := slice
		if i == k-1 {
			length = w.elapsed - slice*time.Duration(k-1)
		}
		subs[i].opsPerSec = float64(len(subs[i].lat)) / length.Seconds()
		sort.Slice(subs[i].lat, func(a, b int) bool { return subs[i].lat[a] < subs[i].lat[b] })
	}
	return subs
}

func runConn(mc *mcConn, g *generator, start, deadline time.Time, tr *tracer) connResult {
	var r connResult
	r.samples = make([]sample, 0, 1<<16)
	fail := func(msg string) {
		r.failed++
		if r.firstFail == "" {
			r.firstFail = msg
		}
	}
	for time.Now().Before(deadline) {
		req := g.next()
		var id uint64
		if tr != nil {
			id = tr.begin(req.op, req.keys[0])
		}
		t0 := time.Now()
		var err error
		switch req.op {
		case opSet:
			err = mc.set(req.keys[0], req.value)
		case opGet:
			err = mc.get(req.keys)
		case opMG:
			err = mc.mg(req.keys[0])
		}
		t1 := time.Now()
		if tr != nil {
			tr.end(id)
			tr.record(id, layerRequest, int64(t0.Sub(tr.epoch)), int64(t1.Sub(tr.epoch)))
		}
		r.attempted++
		r.samples = append(r.samples, sample{done: int64(t1.Sub(start)), lat: int64(t1.Sub(t0))})
		if req.op != opSet {
			r.keysRead += int64(len(req.keys))
		}
		if err != nil {
			fail(err.Error())
			if !isErrorReply(err) {
				r.fatal = err
				return r
			}
			continue
		}
		if req.op != opSet {
			if msg := verifyRead(&mc.rr, req.keys); msg != "" {
				fail(msg)
			}
		}
	}
	return r
}

// verifyRead checks a read reply against the keys requested (distinct,
// all preloaded and never deleted): every key comes back, in request
// order, carrying its own key and a body that passes its CRC.
func verifyRead(rr *replyReader, keys []string) string {
	for i, key := range keys {
		if i >= len(rr.items) {
			return "miss on preloaded key " + key
		}
		if string(rr.key(i)) != key {
			return fmt.Sprintf("reply value %d is key %q, want %q", i, rr.key(i), key)
		}
		if err := checkValue(rr.val(i), key); err != nil {
			return fmt.Sprintf("key %q: %v", key, err)
		}
	}
	if len(rr.items) > len(keys) {
		return "reply carries more values than keys requested"
	}
	return ""
}
