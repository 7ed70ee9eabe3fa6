package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"ecstore/internal/bufpool"
	"ecstore/internal/cluster"
	"ecstore/internal/core"
	"ecstore/internal/memproto"
	"ecstore/internal/transport"
)

const (
	numServers    = 5
	preloadConns  = 4
	quiesceWindow = 50 * time.Millisecond
)

// stack is the system under test: five kvservers and the memproxy
// front end (core.Client in era-ce-cd RS(3,2), near cache off, and
// memproto.Serve over a ClusterBackend), all on loopback TCP.
type stack struct {
	cl     *cluster.Cluster
	client *core.Client
	proxy  *memproto.Server
	addrs  []string
}

// freePorts reserves n loopback ports by binding and releasing them.
func freePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			_ = l.Close()
		}
	}()
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		ls = append(ls, l)
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// bootStack starts the cluster and the proxy. With a tracer the
// servers and the client run on counting networks and the proxy's
// backend is wrapped in timing spans; otherwise nothing is wrapped.
func bootStack(tr *tracer) (*stack, error) {
	addrs, err := freePorts(numServers)
	if err != nil {
		return nil, err
	}
	var serverNet, clientNet transport.Network = transport.TCP{}, transport.TCP{}
	if tr != nil {
		serverNet, clientNet = tr.serverNet, tr.clientNet
	}
	cl, err := cluster.Start(cluster.Config{Network: serverNet, Addrs: addrs})
	if err != nil {
		return nil, err
	}
	// memproxy's defaults: era-ce-cd RS(3,2), near cache off, delta
	// writes on.
	client, err := core.New(core.Config{
		Network:    clientNet,
		Servers:    addrs,
		Resilience: core.ResilienceErasure,
		Scheme:     core.SchemeCECD,
		K:          3,
		M:          2,
	})
	if err != nil {
		cl.Close()
		return nil, err
	}
	ln, err := transport.TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		client.Close()
		cl.Close()
		return nil, err
	}
	var backend memproto.Backend = &memproto.ClusterBackend{Client: client, StatsAddrs: addrs}
	if tr != nil {
		backend = &timedBackend{Backend: backend, tr: tr}
	}
	proxy := memproto.Serve(ln, backend,
		memproto.WithMaxItemSize(memproto.DefaultMaxItemSize),
		memproto.WithMetrics(client.Metrics()),
		memproto.WithVersion("ecstore-memproxy"))
	return &stack{cl: cl, client: client, proxy: proxy, addrs: addrs}, nil
}

func (s *stack) Close() {
	s.proxy.Close()
	s.client.Close()
	s.cl.Close()
}

// preload stores every record of in through the proxy over
// preloadConns connections.
func (s *stack) preload(in *input) error {
	errs := make(chan error, preloadConns)
	var wg sync.WaitGroup
	for c := 0; c < preloadConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			mc, err := dialMC(s.proxy.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer mc.Close()
			for i := c; i < in.w.records; i += preloadConns {
				if err := mc.set(in.names[i], in.value(i)); err != nil {
					errs <- fmt.Errorf("preload %s: %w", in.names[i], err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// storeBytes sums store.Stats.UsedBytes over every server, as the
// cluster reports it to the client.
func (s *stack) storeBytes() (int64, error) {
	var used int64
	for _, a := range s.addrs {
		st, err := s.client.ServerStats(a)
		if err != nil {
			return 0, fmt.Errorf("stats %s: %w", a, err)
		}
		used += st.UsedBytes
	}
	return used, nil
}

// live returns the indexes of the running servers.
func (s *stack) live() []int {
	var out []int
	for i := range s.addrs {
		if s.cl.Server(i) != nil {
			out = append(out, i)
		}
	}
	return out
}

// serverCounter sums a counter over the live servers' registries.
func (s *stack) serverCounter(name string) int64 {
	var n int64
	for _, i := range s.live() {
		n += s.cl.Server(i).Metrics().Snapshot().Counter(name)
	}
	return n
}

// evictions sums store evictions over the live servers.
func (s *stack) evictions() int64 {
	var n int64
	for _, i := range s.live() {
		n += s.cl.Server(i).Store().Stats().Evictions
	}
	return n
}

// poolOutstanding is the number of bufpool leases not yet returned.
func poolOutstanding() int64 {
	st := bufpool.Default.Stats()
	return int64(st.Gets) - int64(st.Puts)
}

// quiescentOutstanding waits until the pool lease count stops moving
// (background work has drained) and returns it.
func quiescentOutstanding() int64 {
	prev := poolOutstanding()
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		time.Sleep(quiesceWindow)
		cur := poolOutstanding()
		if cur == prev {
			return cur
		}
		prev = cur
	}
	return prev
}
