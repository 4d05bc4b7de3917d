package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"pgrid/internal/gate"
	"pgrid/internal/keyspace"
	"pgrid/internal/network"
	"pgrid/internal/overlay"
	"pgrid/internal/replication"
	"pgrid/internal/xrand"
)

// keyDepth is the bit length of every generated key. 32 bits keep the
// ?enc=bits URLs short while leaving collisions among 60 000 uniform keys
// rare (the oracle handles the few that occur).
const keyDepth = 32

// portBase is the first pinned loopback port. A peer's address string is
// routing-table content, so the cluster listens on the same ports every run
// (next free port on collision); the base sits below Linux's ephemeral range
// so the pooled connections' own source ports never take a pinned one.
const portBase = 17000

// cluster is the system under test: real loopback TCP endpoints, one overlay
// peer on each, and an HTTP gate in front of a RemoteBackend — assembled
// in-process from the constructors cmd/pgridnode and cmd/pgridgate use.
type cluster struct {
	spec     workloadSpec
	eps      []*network.TCPEndpoint
	peers    []*overlay.Peer
	dataDirs []string
	gateEP   *network.TCPEndpoint
	httpSrv  *http.Server
	httpDone chan struct{}
	baseURL  string
	stopMnt  []func()

	// shape of the constructed trie
	partitions   int
	depthMean    float64
	replicasMean float64
	rounds       int
	repaired     int
}

// decorators lets the traced run wrap the two interfaces the request path
// crosses; the measured run passes none and talks to the bare endpoints.
type decorators struct {
	transport func(network.Transport) network.Transport
	backend   func(gate.Backend) gate.Backend
}

// listenPinned binds the next free loopback port at or after *next.
func listenPinned[T any](next *int, listen func(addr string) (T, error)) (T, error) {
	for tries := 0; tries < 2000; tries++ {
		l, err := listen(fmt.Sprintf("127.0.0.1:%d", *next))
		*next++
		if err == nil {
			return l, nil
		}
	}
	var none T
	return none, errors.New("no free loopback port in the pinned range")
}

// newCluster listens, loads, replicates, constructs and settles the overlay
// for one workload, then puts the gate in front of it. Everything random
// derives from spec.topoSeed through sequential, single-goroutine draws, so
// every run of a workload builds the same trie.
func newCluster(ctx context.Context, spec workloadSpec, data []replication.Item, dataRoot string, deco decorators) (_ *cluster, err error) {
	c := &cluster{spec: spec}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	rng := xrand.New(spec.topoSeed)
	port := portBase

	cfg := overlay.Config{
		MaxKeys:        maxKeys,
		MinReplicas:    2,
		StorageEngine:  spec.engine,
		QueryCacheSize: spec.cacheSize,
	}
	transports := make([]network.Transport, spec.peers)
	for i := 0; i < spec.peers; i++ {
		ep, err := listenPinned(&port, network.ListenTCP)
		if err != nil {
			return nil, err
		}
		c.eps = append(c.eps, ep)
		transports[i] = ep
		if deco.transport != nil {
			transports[i] = deco.transport(ep)
		}
		pcfg := cfg
		pcfg.Seed = spec.topoSeed*1000 + int64(i) + 1
		if spec.dataDirs {
			pcfg.DataDir = filepath.Join(dataRoot, fmt.Sprintf("peer%02d", i))
			c.dataDirs = append(c.dataDirs, pcfg.DataDir)
		}
		p, err := overlay.NewPersistent(pcfg, transports[i])
		if err != nil {
			return nil, fmt.Errorf("peer %d: %w", i, err)
		}
		c.peers = append(c.peers, p)
	}

	// Load: every peer starts with an equal slice of the data, pushes it to
	// MinReplicas random others (Section 4.2's replication phase), then the
	// construction interactions run one at a time.
	own := make([][]replication.Item, spec.peers)
	for i, it := range data {
		own[i%spec.peers] = append(own[i%spec.peers], it)
	}
	for i, p := range c.peers {
		p.AddItems(own[i])
	}
	for i, p := range c.peers {
		var targets []network.Addr
		for len(targets) < cfg.MinReplicas {
			j := rng.Intn(spec.peers)
			if j != i {
				targets = append(targets, c.peers[j].Addr())
			}
		}
		if err := p.ReplicateItems(ctx, own[i], targets); err != nil {
			return nil, fmt.Errorf("replicate from peer %d: %w", i, err)
		}
	}
	if err := c.construct(ctx, rng); err != nil {
		return nil, err
	}
	if err := c.settle(ctx, data); err != nil {
		return nil, err
	}
	if spec.checkpoint {
		for i, p := range c.peers {
			if err := p.Store().Checkpoint(); err != nil {
				return nil, fmt.Errorf("checkpoint peer %d: %w", i, err)
			}
		}
	}
	c.measureShape()

	// The gate: its own wire endpoint, a RemoteBackend over every peer as
	// entry point, and a real HTTP listener.
	c.gateEP, err = listenPinned(&port, network.ListenTCP)
	if err != nil {
		return nil, err
	}
	var gt network.Transport = c.gateEP
	if deco.transport != nil {
		gt = deco.transport(c.gateEP)
	}
	addrs := make([]network.Addr, len(c.peers))
	for i, p := range c.peers {
		addrs[i] = p.Addr()
	}
	var backend gate.Backend = &gate.RemoteBackend{Transport: gt, Peers: addrs, WriteQuorum: spec.writeQuorum}
	if deco.backend != nil {
		backend = deco.backend(backend)
	}
	srv := gate.New(gate.Config{Backend: backend})
	ln, err := listenPinned(&port, func(addr string) (net.Listener, error) { return net.Listen("tcp", addr) })
	if err != nil {
		return nil, err
	}
	c.baseURL = "http://" + ln.Addr().String()
	c.httpSrv = &http.Server{Handler: srv.Handler()}
	c.httpDone = make(chan struct{})
	go func() {
		defer close(c.httpDone)
		_ = c.httpSrv.Serve(ln) // returns ErrServerClosed from close()
	}()

	if spec.maintain > 0 {
		for _, p := range c.peers {
			c.stopMnt = append(c.stopMnt, p.StartMaintenance(overlay.MaintenanceOptions{Interval: spec.maintain}))
		}
	}
	return c, nil
}

// construct runs the paper's construction protocol from a seeded sequential
// schedule: rounds of one interaction per unconverged peer, in a seeded
// order, each with a seeded uniformly random partner.
func (c *cluster) construct(ctx context.Context, rng *rand.Rand) error {
	const maxRounds, quietRounds = 200, 3
	n := len(c.peers)
	quiet := 0
	for c.rounds = 0; c.rounds < maxRounds && quiet < quietRounds; c.rounds++ {
		quiet++
		for _, i := range rng.Perm(n) {
			p := c.peers[i]
			if p.Done() {
				continue
			}
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			action, err := p.Interact(ctx, c.peers[j].Addr())
			if err != nil {
				return fmt.Errorf("interaction %d -> %d: %w", i, j, err)
			}
			if action == overlay.ActionSplit || action == overlay.ActionExtend {
				quiet = 0
			}
		}
	}
	return nil
}

// settle makes the constructed overlay answer exactly: every peer learns
// every replica of its partition (an acked write then reaches all of them,
// so reads are not stale at a replica the coordinator did not know), the
// replicas reconcile with the digest/delta protocol, and any key that
// construction left outside its partition is re-inserted through the
// overlay's own routed write.
func (c *cluster) settle(ctx context.Context, data []replication.Item) error {
	groups := make(map[keyspace.Path][]*overlay.Peer)
	for _, p := range c.peers {
		groups[p.Path()] = append(groups[p.Path()], p)
	}
	for a, g := range groups {
		for b := range groups {
			if a != b && a.SamePartition(b) {
				return fmt.Errorf("construction left nested partitions %q and %q", a, b)
			}
		}
		if len(g) < c.spec.writeQuorum {
			return fmt.Errorf("partition %q has %d replicas, fewer than the write quorum of %d: choose another topoSeed", a, len(g), c.spec.writeQuorum)
		}
	}
	for _, g := range groups {
		for _, p := range g {
			for _, q := range g {
				if p != q {
					p.AddReplica(q.Addr())
				}
			}
		}
		for pass := 0; pass < 2; pass++ {
			for _, p := range g {
				for _, q := range g {
					if p == q {
						continue
					}
					if _, err := p.SyncReplica(ctx, q.Addr()); err != nil {
						return fmt.Errorf("sync %s -> %s: %w", p.Addr(), q.Addr(), err)
					}
				}
			}
		}
	}
	for _, it := range data {
		for _, p := range groups[c.pathOf(groups, it.Key)] {
			if !p.Store().Live(it.Key, it.Value) {
				if _, err := c.peers[0].Insert(ctx, it); err != nil {
					return fmt.Errorf("repair insert: %w", err)
				}
				c.repaired++
				break
			}
		}
	}
	return nil
}

// pathOf returns the partition path responsible for key.
func (c *cluster) pathOf(groups map[keyspace.Path][]*overlay.Peer, key keyspace.Key) keyspace.Path {
	for d := 0; d <= key.Len; d++ {
		if _, ok := groups[key.Path(d)]; ok {
			return key.Path(d)
		}
	}
	return ""
}

// measureShape records the trie's shape, the quantities that must repeat
// for equal seeds and that explain differences between seeds.
func (c *cluster) measureShape() {
	counts := make(map[keyspace.Path]int)
	depth := 0
	for _, p := range c.peers {
		counts[p.Path()]++
		depth += p.Path().Depth()
	}
	c.partitions = len(counts)
	c.depthMean = float64(depth) / float64(len(c.peers))
	c.replicasMean = float64(len(c.peers)) / float64(len(counts))
}

// metrics sums every peer's counters.
func (c *cluster) metrics() overlay.MetricsSnapshot {
	var agg overlay.MetricsSnapshot
	for _, p := range c.peers {
		agg = agg.Merge(p.MetricsSnapshot())
	}
	return agg
}

// close stops maintenance, the HTTP server, every endpoint and every store,
// and waits for each to end. It keeps the data directories.
func (c *cluster) close() {
	for _, stop := range c.stopMnt {
		stop()
	}
	c.stopMnt = nil
	if c.httpSrv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := c.httpSrv.Shutdown(sctx); err != nil {
			_ = c.httpSrv.Close()
		}
		cancel()
		<-c.httpDone
		c.httpSrv = nil
	}
	if c.gateEP != nil {
		_ = c.gateEP.Close()
		c.gateEP = nil
	}
	for _, ep := range c.eps {
		_ = ep.Close()
	}
	c.eps = nil
	for _, p := range c.peers {
		_ = p.Close()
	}
	c.peers = nil
}

// removeData deletes the data directories of a closed cluster.
func (c *cluster) removeData() {
	for _, d := range c.dataDirs {
		_ = os.RemoveAll(d)
	}
}
