// Command e2ebench is the repository's end-to-end benchmark. One
// process boots five kvservers (internal/cluster on loopback TCP) and
// the memproxy stack in front of them (core.Client in era-ce-cd
// RS(3,2) with the near cache off, memproto.Serve over a
// ClusterBackend), preloads a workload's records, and drives the proxy
// with raw memcached text from a closed loop of two connections, each
// with one request in flight.
//
//	go run . --workload point-1k --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the workload untraced and then traced, and prints the per-layer
// split measured from the stack's boundaries. Every reply is verified;
// any failure makes the command exit non-zero. The last line of
// standard output is one JSON object; diagnostics go to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"ecstore/internal/calib"
)

const (
	genConns    = 2 // closed-loop connections, one request in flight each
	setupRounds = 3 // setups per e2e run; setup_s is their median
	subWindows  = 5 // slices of the timed window the e2e figures are medians over
	warmup      = time.Second
	runLimit    = 170 * time.Second
)

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name: point-1k, mget-64x1k, overwrite-1m or degraded-get-64k")
	seed := flag.Int64("seed", 1, "seed of the generated keys, values and request stream")
	seconds := flag.Float64("seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "traces"), "directory the traced run writes its spans to")
	flag.Parse()

	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: need --seconds > 0 and --trace 0 or 1")
		return 2
	}
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "e2ebench: run exceeded %v\n", runLimit)
		os.Exit(1)
	})
	in := newInput(w, *seed)
	d := time.Duration(*seconds * float64(time.Second))
	var res result
	if *trace == 0 {
		res, err = runE2E(in, d)
	} else {
		res, err = runTraced(in, d, filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.csv", w.name, *seed)))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	res.report(w)
	if !res.correct() {
		return 1
	}
	return 0
}

// input is the generated side of a run: key names and, for edit
// workloads, the current value of every record.
type input struct {
	w     workload
	seed  int64
	names []string
	model [][]byte
}

func newInput(w workload, seed int64) *input {
	in := &input{w: w, seed: seed, names: make([]string, w.records)}
	for i := range in.names {
		in.names[i] = keyName(i)
	}
	if w.edit {
		in.model = make([][]byte, w.records)
		for i := range in.model {
			in.model[i] = preloadValue(w, seed, i, in.names[i])
		}
	}
	return in
}

func (in *input) value(i int) []byte {
	if in.model != nil {
		return in.model[i]
	}
	return preloadValue(in.w, in.seed, i, in.names[i])
}

// setup boots the stack, preloads every record, measures the store
// footprint and, for a degraded workload, kills the servers. A probe
// of the fabric for the performance model runs before the kills when
// probe is set.
func setup(in *input, tr *tracer, probe bool) (*stack, float64, []rpcPoint, error) {
	st, err := bootStack(tr)
	if err != nil {
		return nil, 0, nil, err
	}
	if err := st.preload(in); err != nil {
		st.Close()
		return nil, 0, nil, err
	}
	used, err := st.storeBytes()
	if err != nil {
		st.Close()
		return nil, 0, nil, err
	}
	var pts []rpcPoint
	if probe {
		if pts, err = probeFabric(st, in.seed); err != nil {
			st.Close()
			return nil, 0, nil, err
		}
	}
	for _, i := range killedServers[:in.w.kill] {
		st.cl.Kill(i)
	}
	return st, float64(used) / float64(in.w.records*in.w.size), pts, nil
}

// checked is one measured window plus the correctness gate around it.
type checked struct {
	win         window
	attempted   int64 // warm-up and window
	failed      int64
	outstanding int64 // bufpool leases not returned at quiescence
	evictions   int64
	opErrors    int64
}

func (c checked) violations() []string {
	var v []string
	if c.failed > 0 {
		v = append(v, fmt.Sprintf("%d of %d requests failed (first: %s)", c.failed, c.attempted, strings.Join(c.win.failures, "; ")))
	}
	if c.win.fatal != nil {
		v = append(v, "connection broke: "+c.win.fatal.Error())
	}
	if c.outstanding != 0 {
		v = append(v, fmt.Sprintf("bufpool.outstanding = %d at quiescence", c.outstanding))
	}
	if c.evictions != 0 {
		v = append(v, fmt.Sprintf("store.evictions = %d on live servers", c.evictions))
	}
	if c.opErrors != 0 {
		v = append(v, fmt.Sprintf("server.op_errors = %d on live servers", c.opErrors))
	}
	return v
}

// measure warms the stack up and drives it for d. before and after,
// when set, run right around the timed window.
func measure(st *stack, in *input, d time.Duration, tr *tracer, before, after func()) (checked, error) {
	conns := make([]*mcConn, genConns)
	gens := make([]*generator, genConns)
	for c := range conns {
		mc, err := dialMC(st.proxy.Addr())
		if err != nil {
			return checked{}, err
		}
		defer mc.Close()
		conns[c] = mc
		gens[c] = newGenerator(in.w, in.seed, c, genConns, in.names, in.model)
	}
	runtime.GC()
	base := quiescentOutstanding()
	warm := drive(conns, gens, warmup, tr)
	if before != nil {
		before()
	}
	win := drive(conns, gens, d, tr)
	if after != nil {
		after()
	}
	if warm.fatal != nil && win.fatal == nil {
		win.fatal = warm.fatal
	}
	win.failures = append(warm.failures, win.failures...)
	return checked{
		win:         win,
		attempted:   warm.attempted + win.attempted,
		failed:      warm.failed + win.failed,
		outstanding: quiescentOutstanding() - base,
		evictions:   st.evictions(),
		opErrors:    st.serverCounter("ecstore_server_op_errors_total"),
	}, nil
}

// result is what a run prints.
type result struct {
	checks  []checked
	metrics []metric
}

func (r result) correct() bool {
	for _, c := range r.checks {
		if len(c.violations()) > 0 {
			return false
		}
	}
	return true
}

func runE2E(in *input, d time.Duration) (result, error) {
	var (
		st         *stack
		storeRatio float64
		setupS     []float64
	)
	for r := 0; r < setupRounds; r++ {
		if st != nil {
			st.Close()
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if st, storeRatio, _, err = setup(in, nil, false); err != nil {
			return result{}, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer st.Close()
	c, err := measure(st, in, d, nil, nil, nil)
	if err != nil {
		return result{}, err
	}
	f := sliceFigures(in.w.name, c.win, d)
	fmt.Fprintf(os.Stderr, "%s: setups %.3v s\n", in.w.name, setupS)
	return result{checks: []checked{c}, metrics: []metric{
		{"ops_per_s", f.ops, "1/s"},
		{"p50_ms", f.p50, "ms"},
		{"p99_ms", f.p99, "ms"},
		{"cpu_us_per_req", float64(c.win.cpu) / float64(time.Microsecond) / float64(c.win.attempted), "us"},
		{"setup_s", median(setupS), "s"},
		{"store_bytes_per_user_byte", storeRatio, "B/B"},
	}}, nil
}

// figures are a window's throughput and latency, each the median over
// equal slices of the window, so a short stall of the shared host
// moves one slice, not the result.
type figures struct{ ops, p50, p99 float64 }

func sliceFigures(name string, win window, d time.Duration) figures {
	var ops, p50, p99 []float64
	minN := len(win.samples)
	for _, sw := range win.split(d, subWindows) {
		ops = append(ops, sw.opsPerSec)
		p50 = append(p50, float64(percentile(sw.lat, 0.50))/1e6)
		p99 = append(p99, float64(percentile(sw.lat, 0.99))/1e6)
		minN = min(minN, len(sw.lat))
	}
	fmt.Fprintf(os.Stderr, "%s: %d requests in %.2fs, %d slices of >= %d samples (p99 with >= %d beyond); req/s by slice %.0f\n",
		name, win.attempted, win.elapsed.Seconds(), subWindows, minN, beyond(minN, 0.99), ops)
	return figures{median(ops), median(p50), median(p99)}
}

// runTraced drives the workload for d/2 untraced and then for d/2 on a
// fresh, traced stack, and derives the per-layer split from the
// second window.
func runTraced(in *input, d time.Duration, tracePath string) (result, error) {
	half := d / 2
	st, _, _, err := setup(in, nil, false)
	if err != nil {
		return result{}, err
	}
	plain, err := measure(st, in, half, nil, nil, nil)
	st.Close()
	if err != nil {
		return result{}, err
	}
	runtime.GC()

	tr := newTracer()
	st, _, pts, err := setup(in, tr, true)
	if err != nil {
		return result{}, err
	}
	defer st.Close()
	var (
		a, b     layerSnap
		q        *queueSampler
		queueMax int64
	)
	traced, err := measure(st, in, half, tr,
		func() {
			a = takeSnap(st, tr)
			q = startQueueSampler(st)
			tr.setRecording(true)
		},
		func() {
			tr.setRecording(false)
			queueMax = q.Stop()
			b = takeSnap(st, tr)
		})
	if err != nil {
		return result{}, err
	}
	ms := layerMetrics(traced.win, tr.summarize(), a, b, queueMax)
	ms = append(ms, metric{"bufpool.outstanding", float64(traced.outstanding), "count"})
	cm, err := calib.Measure(3, 2)
	if err != nil {
		return result{}, err
	}
	ms = append(ms, modelGaps(in.w, pts, cm, ms)...)
	untracedOps := sliceFigures(in.w.name+" untraced", plain.win, half).ops
	tracedOps := sliceFigures(in.w.name+" traced", traced.win, half).ops
	ms = append(ms, metric{"trace.overhead_pct", 100 * (untracedOps - tracedOps) / untracedOps, "%"})
	if err := tr.write(tracePath); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "%s: untraced %.0f req/s, traced %.0f req/s over %d requests; spans in %s\n",
		in.w.name, untracedOps, tracedOps, traced.win.attempted, tracePath)
	return result{checks: []checked{plain, traced}, metrics: ms}, nil
}

// report prints the metrics to standard error as a table and to
// standard output as the final JSON line.
func (r result) report(w workload) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.correct(), Metrics: map[string]value{}}
	for _, c := range r.checks {
		out.Attempted += c.attempted
		out.Failed += c.failed
		for _, v := range c.violations() {
			fmt.Fprintf(os.Stderr, "%s: CORRECTNESS: %s\n", w.name, v)
		}
	}
	fmt.Fprintf(os.Stderr, "%s: fail_ratio %g (%d of %d)\n", w.name,
		ratio(float64(out.Failed), float64(out.Attempted)), out.Failed, out.Attempted)
	for _, m := range r.metrics {
		fmt.Fprintf(os.Stderr, "  %-36s %14.4f %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: encode result:", err)
		return
	}
	fmt.Println(string(b))
}
