package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"ecstore/internal/stats"
)

func TestValueCodecRoundTrip(t *testing.T) {
	key := keyName(42)
	v := make([]byte, 1<<10)
	encodeValue(v, key, streamID(7, 42, 0))
	if err := checkValue(v, key); err != nil {
		t.Fatalf("fresh value: %v", err)
	}
	if err := checkValue(v, keyName(43)); !errors.Is(err, errWrongKey) {
		t.Fatalf("other key: got %v, want errWrongKey", err)
	}
	v[len(v)-1] ^= 1
	if err := checkValue(v, key); !errors.Is(err, errBadCRC) {
		t.Fatalf("flipped bit: got %v, want errBadCRC", err)
	}
	v[len(v)-1] ^= 1
	if err := checkValue(v[:4], key); !errors.Is(err, errShortValue) {
		t.Fatalf("truncated: got %v, want errShortValue", err)
	}
	if err := checkValue(v[:valueHeader+3], key); !errors.Is(err, errShortValue) {
		t.Fatalf("truncated key: got %v, want errShortValue", err)
	}
}

func TestValueCodecDeterministic(t *testing.T) {
	a, b := make([]byte, 100), make([]byte, 100)
	encodeValue(a, "k", streamID(1, 2, 3))
	encodeValue(b, "k", streamID(1, 2, 3))
	if string(a) != string(b) {
		t.Fatal("same seed, record and version gave different values")
	}
	encodeValue(b, "k", streamID(2, 2, 3))
	if string(a) == string(b) {
		t.Fatal("different seeds gave the same value")
	}
}

func TestEditKeepsValueValid(t *testing.T) {
	w, _ := findWorkload("overwrite-1m")
	w.records, w.size = 4, 4096
	in := newInput(w, 3)
	g := newGenerator(w, 3, 1, 2, in.names, in.model)
	for i := 0; i < 50; i++ {
		req := g.nextSet()
		if req.op != opSet {
			t.Fatal("nextSet produced a non-set")
		}
		if idx := strings.TrimPrefix(req.keys[0], "user"); idx != "00000001" && idx != "00000003" {
			t.Fatalf("connection 1 of 2 wrote record %s it does not own", req.keys[0])
		}
		if err := checkValue(req.value, req.keys[0]); err != nil {
			t.Fatalf("edited value: %v", err)
		}
	}
}

func TestMultiGetDrawsDistinctKeys(t *testing.T) {
	w, _ := findWorkload("mget-64x1k")
	in := newInput(w, 1)
	g := newGenerator(w, 1, 0, 2, in.names, nil)
	for i := 0; i < 20; i++ {
		req := g.next()
		if req.op != opGet || len(req.keys) != 64 {
			t.Fatalf("request %d: op %d with %d keys, want a 64-key get", i, req.op, len(req.keys))
		}
		seen := map[string]bool{}
		for _, k := range req.keys {
			if seen[k] {
				t.Fatalf("request %d repeats key %s", i, k)
			}
			seen[k] = true
		}
	}
}

func TestPercentileMath(t *testing.T) {
	xs := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.01, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d", got)
	}
	if got := beyond(1000, 0.99); got != 10 {
		t.Errorf("beyond(1000, .99) = %d, want 10", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestWindowQuantile(t *testing.T) {
	live := stats.NewHistogram()
	// Before the window: 1000 samples at 1 ms.
	for i := 0; i < 1000; i++ {
		live.Record(time.Millisecond)
	}
	before := copyHistogram(live)
	// The window: 100 samples of 10..1000 µs.
	for i := 1; i <= 100; i++ {
		live.Record(time.Duration(i) * 10 * time.Microsecond)
	}
	after := copyHistogram(live)
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 500 * time.Microsecond}, {0.99, 990 * time.Microsecond}} {
		got := windowQuantile(before, after, c.q)
		if diff := float64(got-c.want) / float64(c.want); diff < -0.04 || diff > 0.04 {
			t.Errorf("window q%v = %v, want %v within bucket resolution", c.q, got, c.want)
		}
	}
	if got := windowQuantile(after, after, 0.5); got != 0 {
		t.Errorf("empty window = %v, want 0", got)
	}
}

func reader(s string) replyReader {
	return replyReader{r: bufio.NewReader(strings.NewReader(s))}
}

func TestReplyParser(t *testing.T) {
	rr := reader("VALUE a 0 3\r\nabc\r\nVALUE bb 5 0 77\r\n\r\nEND\r\n")
	if err := rr.readGet(); err != nil {
		t.Fatal(err)
	}
	if len(rr.items) != 2 || string(rr.key(0)) != "a" || string(rr.val(0)) != "abc" ||
		string(rr.key(1)) != "bb" || len(rr.val(1)) != 0 {
		t.Fatalf("parsed %d items: %q=%q", len(rr.items), rr.key(0), rr.val(0))
	}

	rr = reader("END\r\n")
	if err := rr.readGet(); err != nil || len(rr.items) != 0 {
		t.Fatalf("empty get: %v, %d items", err, len(rr.items))
	}

	rr = reader("VA 4 c99\r\nwxyz\r\n")
	if err := rr.readMetaGet("k"); err != nil {
		t.Fatal(err)
	}
	if len(rr.items) != 1 || string(rr.key(0)) != "k" || string(rr.val(0)) != "wxyz" {
		t.Fatalf("mg hit parsed wrong: %d items", len(rr.items))
	}

	rr = reader("EN\r\n")
	if err := rr.readMetaGet("k"); err != nil || len(rr.items) != 0 {
		t.Fatalf("mg miss: %v, %d items", err, len(rr.items))
	}

	rr = reader("STORED\r\n")
	if err := rr.readStored(); err != nil {
		t.Fatal(err)
	}

	for _, s := range []string{"SERVER_ERROR out of memory\r\n", "CLIENT_ERROR bad data chunk\r\n", "ERROR\r\n"} {
		rr = reader(s)
		if err := rr.readGet(); !isErrorReply(err) {
			t.Errorf("%q: got %v, want an error reply", s, err)
		}
		rr = reader(s)
		if err := rr.readStored(); !isErrorReply(err) {
			t.Errorf("%q: got %v, want an error reply", s, err)
		}
	}

	for _, s := range []string{
		"VALUE a 0 3\r\nabcd\r\nEND\r\n", // block longer than declared
		"VALUE a 0 x\r\n",                // bad length
		"VA 3\r\nab",                     // truncated block
		"NOT_STORED\r\n",                 // not a reply to get
		"END\n",                          // bare LF
	} {
		rr = reader(s)
		err := rr.readGet()
		if s[:2] == "VA" {
			rr = reader(s)
			err = rr.readMetaGet("a")
		}
		if err == nil || isErrorReply(err) {
			t.Errorf("%q: got %v, want a protocol error", s, err)
		}
	}
}

func TestVerifyRead(t *testing.T) {
	v := func(key string) string {
		b := make([]byte, 64)
		encodeValue(b, key, 1)
		return string(b)
	}
	block := func(key, val string) string {
		return "VALUE " + key + " 0 64\r\n" + val + "\r\n"
	}
	a, b := keyName(1), keyName(2)
	for _, c := range []struct {
		reply string
		ok    bool
	}{
		{block(a, v(a)) + block(b, v(b)) + "END\r\n", true},
		{block(a, v(a)) + "END\r\n", false},                  // miss on b
		{block(b, v(b)) + "END\r\n", false},                  // miss on a
		{block(a, v(b)) + block(b, v(b)) + "END\r\n", false}, // a carries b's value
	} {
		rr := reader(c.reply)
		if err := rr.readGet(); err != nil {
			t.Fatal(err)
		}
		if msg := verifyRead(&rr, []string{a, b}); (msg == "") != c.ok {
			t.Errorf("verifyRead = %q, want ok=%v", msg, c.ok)
		}
	}
}

// manifest is the part of BENCHMARK.json the program must agree with.
type manifest struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManifestNamesTheWorkloads(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, the program %d", len(m.Workloads), len(workloads))
	}
	for _, mw := range m.Workloads {
		if _, err := findWorkload(mw.Name); err != nil {
			t.Error(err)
		}
	}
}

// checkMetrics asserts that ms is exactly the manifest's list.
func checkMetrics(t *testing.T, what string, want []struct{ Name, Unit string }, ms []metric) {
	t.Helper()
	got := map[string]string{}
	for _, m := range ms {
		got[m.name] = m.unit
	}
	if len(got) != len(want) {
		t.Errorf("%s: program emits %d metrics, manifest lists %d", what, len(got), len(want))
	}
	for _, w := range want {
		if unit, ok := got[w.Name]; !ok {
			t.Errorf("%s: manifest metric %s not emitted", what, w.Name)
		} else if unit != w.Unit {
			t.Errorf("%s: %s unit %q, manifest says %q", what, w.Name, unit, w.Unit)
		}
	}
}

// TestSmoke runs every workload for a moment with the correctness gate
// on, then one traced run, and checks the metric names against the
// manifest.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots clusters")
	}
	m := readManifest(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in := newInput(w, 1)
			st, ratio, _, err := setup(in, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if ratio < 5.0/3 {
				t.Errorf("store bytes per user byte %.3f is below the RS(3,2) floor", ratio)
			}
			c, err := measure(st, in, 300*time.Millisecond, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if c.win.attempted == 0 {
				t.Fatal("no requests completed")
			}
			for _, v := range c.violations() {
				t.Error(v)
			}
		})
	}
	t.Run("e2e-metrics", func(t *testing.T) {
		w, _ := findWorkload("overwrite-1m")
		res, err := runE2E(newInput(w, 2), 300*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if !res.correct() {
			t.Error("correctness gate failed")
		}
		checkMetrics(t, "end_to_end", m.EndToEnd, res.metrics)
	})
	t.Run("traced", func(t *testing.T) {
		w, _ := findWorkload("degraded-get-64k")
		res, err := runTraced(newInput(w, 2), 600*time.Millisecond, t.TempDir()+"/spans.csv")
		if err != nil {
			t.Fatal(err)
		}
		if !res.correct() {
			t.Error("correctness gate failed")
		}
		checkMetrics(t, "per_layer", m.PerLayer, res.metrics)
	})
}
