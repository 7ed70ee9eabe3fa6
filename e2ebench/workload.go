package main

import (
	"fmt"
	"math/rand"

	"ecstore/internal/ycsb"
)

// workload is one named traffic mix. Every field is a property of the
// generated input, never a setting of the system under test.
type workload struct {
	name     string
	records  int     // preloaded records, keys keyName(0..records-1)
	size     int     // value size in bytes
	zipfian  bool    // scrambled-Zipfian key choice (else uniform)
	readFrac float64 // share of requests that are reads
	batch    int     // keys per read; >1 means one classic multi-key get
	edit     bool    // sets are one 64 B edit of the stored value
	kill     int     // servers killed after preload
}

const editLen = 64

// workloads are the benchmark's named traffic mixes; BENCHMARK.json
// and NOTES.md give the reason for each.
var workloads = []workload{
	{name: "point-1k", records: 20000, size: 1 << 10, zipfian: true, readFrac: 0.5, batch: 1},
	{name: "mget-64x1k", records: 20000, size: 1 << 10, readFrac: 1, batch: 64},
	{name: "overwrite-1m", records: 64, size: 1 << 20, readFrac: 0.5, batch: 1, edit: true},
	{name: "degraded-get-64k", records: 1000, size: 64 << 10, zipfian: true, readFrac: 1, batch: 1, kill: 2},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// killedServers are the cluster indexes a degraded workload stops.
var killedServers = []int{1, 3}

// opKind is the memcached command a request uses.
type opKind uint8

const (
	opSet opKind = iota // set <k>
	opGet               // get <k>... (Backend.GetMulti)
	opMG                // mg <k> v c (Backend.Get)
)

// request is one generated request. keys aliases the generator's
// scratch and value the generator's buffers; both are valid until the
// next call to next.
type request struct {
	op    opKind
	keys  []string
	value []byte
}

// generator produces the request stream of one connection. Its output
// depends only on the workload, the seed and the connection index.
type generator struct {
	w       workload
	seed    int64
	conn    int
	conns   int
	rng     *rand.Rand
	choose  ycsb.Generator
	reads   int // reads issued, alternating get and mg
	version int // sets issued, to vary set bodies
	keys    []string
	names   []string // keyName of every record, built once
	scratch []byte   // set value buffer (non-edit workloads)
	model   [][]byte // edit workloads: current value of every record
	seen    []bool   // distinct-key draw for multi-key gets
	picked  []int    // indexes set in seen
}

func newGenerator(w workload, seed int64, conn, conns int, names []string, model [][]byte) *generator {
	g := &generator{
		w:      w,
		seed:   seed,
		conn:   conn,
		conns:  conns,
		rng:    rand.New(rand.NewSource(seed*7919 + int64(conn) + 1)),
		names:  names,
		model:  model,
		keys:   make([]string, 0, w.batch),
		seen:   make([]bool, w.records),
		picked: make([]int, 0, w.batch),
	}
	if w.zipfian {
		g.choose = ycsb.NewScrambledZipfian(uint64(w.records))
	} else {
		g.choose = ycsb.NewUniform(uint64(w.records))
	}
	if !w.edit {
		g.scratch = make([]byte, w.size)
	}
	return g
}

func (g *generator) next() request {
	if g.rng.Float64() < g.w.readFrac {
		return g.nextRead()
	}
	return g.nextSet()
}

func (g *generator) nextRead() request {
	g.keys = g.keys[:0]
	if g.w.batch > 1 {
		for len(g.picked) < g.w.batch {
			i := int(g.choose.Next(g.rng))
			if !g.seen[i] {
				g.seen[i] = true
				g.picked = append(g.picked, i)
				g.keys = append(g.keys, g.names[i])
			}
		}
		for _, i := range g.picked {
			g.seen[i] = false
		}
		g.picked = g.picked[:0]
		return request{op: opGet, keys: g.keys}
	}
	g.keys = append(g.keys, g.names[g.choose.Next(g.rng)])
	g.reads++
	if g.reads%2 == 0 {
		return request{op: opMG, keys: g.keys}
	}
	return request{op: opGet, keys: g.keys}
}

func (g *generator) nextSet() request {
	g.version++
	if g.w.edit {
		// Each connection overwrites only its own share of the
		// records, so the local model is exactly what is stored.
		owned := (g.w.records - g.conn + g.conns - 1) / g.conns
		i := g.conn + g.conns*g.rng.Intn(owned)
		key := g.names[i]
		v := g.model[i]
		off := bodyStart(key) + g.rng.Intn(len(v)-bodyStart(key)-editLen+1)
		fillRandom(v[off:off+editLen], g.rng.Uint64())
		sealValue(v, key)
		g.keys = append(g.keys[:0], key)
		return request{op: opSet, keys: g.keys, value: v}
	}
	i := int(g.choose.Next(g.rng))
	key := g.names[i]
	encodeValue(g.scratch, key, streamID(g.seed, i, g.version*g.conns+g.conn+1))
	g.keys = append(g.keys[:0], key)
	return request{op: opSet, keys: g.keys, value: g.scratch}
}

// preloadValue returns the initial value of record i.
func preloadValue(w workload, seed int64, i int, key string) []byte {
	v := make([]byte, w.size)
	encodeValue(v, key, streamID(seed, i, 0))
	return v
}
