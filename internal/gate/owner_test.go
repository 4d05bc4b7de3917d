package gate

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pgrid/internal/keyspace"
	"pgrid/internal/network"
	"pgrid/internal/overlay"
	"pgrid/internal/replication"
	"pgrid/internal/routing"
)

// ownerPartitions are the partitions of ownerOverlay, each held by three
// replicas.
var ownerPartitions = []keyspace.Path{"00", "01", "1"}

// partitionKeys returns the four keys ownerOverlay stores under partition
// path, in key order.
func partitionKeys(path keyspace.Path) []keyspace.Key {
	var keys []keyspace.Key
	for _, suffix := range []string{"001", "011", "101", "110"} {
		s := string(path) + suffix
		keys = append(keys, keyspace.MustFromString(s+"00000000"[len(s):]))
	}
	return keys
}

// ownerOverlay builds nine peers on a simulated network, three replicas
// of each of ownerPartitions. Every peer references peers of each
// complementary sub-tree and its partition's replicas, and holds its
// partition's keys (partitionKeys, value "v"). It returns the sim and the
// peers by partition; peer i of partition path is addressed "<path>-<i>".
// A non-nil tap records every call the peers send.
func ownerOverlay(t *testing.T, tap *callLog) (*network.Sim, map[keyspace.Path][]*overlay.Peer) {
	t.Helper()
	sim := network.NewSim(network.SimConfig{Seed: 44})
	peers := map[keyspace.Path][]*overlay.Peer{}
	seed := int64(44)
	for _, path := range ownerPartitions {
		for i := 0; i < 3; i++ {
			seed++
			var tr network.Transport = sim.Endpoint(network.Addr(fmt.Sprintf("%s-%d", path, i)))
			if tap != nil {
				tr = tapped{Transport: tr, log: tap}
			}
			p := overlay.New(overlay.Config{MaxKeys: 100, MinReplicas: 1, WriteQuorum: 1, Seed: seed}, tr)
			t.Cleanup(func() { p.Close() })
			p.Table().SetPath(path)
			for _, k := range partitionKeys(path) {
				p.AddItems([]replication.Item{{Key: k, Value: "v"}})
			}
			peers[path] = append(peers[path], p)
		}
	}
	for _, path := range ownerPartitions {
		for _, p := range peers[path] {
			for level := 0; level < path.Depth(); level++ {
				sub := path.FlipAt(level)
				for _, other := range ownerPartitions {
					if !other.HasPrefix(sub) {
						continue
					}
					for _, q := range peers[other] {
						p.Table().Add(level, routing.Ref{Addr: q.Addr(), Path: q.Path()})
					}
				}
			}
			for _, q := range peers[path] {
				if q != p {
					p.AddReplica(q.Addr())
				}
			}
		}
	}
	return sim, peers
}

// addrsOf returns the addresses of peers.
func addrsOf(peers ...*overlay.Peer) []network.Addr {
	var out []network.Addr
	for _, p := range peers {
		out = append(out, p.Addr())
	}
	return out
}

// sentCall is one call a callLog recorded.
type sentCall struct {
	from, to network.Addr
	typ      string
	req      any
}

// callLog is a network.Transport that records every call it sends.
type callLog struct {
	network.Transport
	mu    sync.Mutex
	calls []sentCall
}

func (c *callLog) Call(ctx context.Context, to network.Addr, req any) (any, error) {
	c.record(c.Transport.Addr(), to, req)
	return c.Transport.Call(ctx, to, req)
}

func (c *callLog) record(from, to network.Addr, req any) {
	c.mu.Lock()
	c.calls = append(c.calls, sentCall{from: from, to: to, typ: fmt.Sprintf("%T", req), req: req})
	c.mu.Unlock()
}

// tapped is a peer's transport that records the calls it sends in log.
type tapped struct {
	network.Transport
	log *callLog
}

func (tp tapped) Call(ctx context.Context, to network.Addr, req any) (any, error) {
	tp.log.record(tp.Transport.Addr(), to, req)
	return tp.Transport.Call(ctx, to, req)
}

// take returns the calls recorded since the last take.
func (c *callLog) take() []sentCall {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.calls
	c.calls = nil
	return out
}

// mustSearch searches key through rb and fails the test unless it finds
// the item ownerOverlay stored.
func mustSearch(t *testing.T, rb *RemoteBackend, key keyspace.Key) SearchResult {
	t.Helper()
	res, err := rb.Search(context.Background(), key, SearchOptions{})
	if err != nil || len(res.Items) != 1 || res.Items[0].Value != "v" {
		t.Fatalf("search %v: %+v, %v", key, res, err)
	}
	return res
}

// TestRemoteBackendRoutesToOwner checks that after the first search the
// gate knows the partition that owns each key: a search for another key
// of that partition is one call, to a responsible peer, with no routing
// hop, a range whose lower bound lies in the partition is sent there
// first, and each insert and delete is one call to a responsible peer.
func TestRemoteBackendRoutesToOwner(t *testing.T) {
	sim, peers := ownerOverlay(t, nil)
	log := &callLog{Transport: sim.Endpoint("gate")}
	// Round-robin order puts a peer of "00" next after the first search.
	entry := addrsOf(slices.Concat(peers["1"][:1], peers["00"], peers["01"], peers["1"][1:])...)
	rb := &RemoteBackend{Transport: log, Peers: entry}
	owners := addrsOf(peers["01"]...)
	keys := partitionKeys("01")
	ctx := context.Background()

	mustSearch(t, rb, keys[0])
	rb.probes.Wait()
	log.take()
	if res := mustSearch(t, rb, keys[1]); res.Hops != 0 {
		t.Errorf("search of a learned partition took %d hops, want 0", res.Hops)
	}
	if calls := log.take(); len(calls) != 1 || !slices.Contains(owners, calls[0].to) {
		t.Errorf("search of a learned partition sent %+v, want one call to one of %v", calls, owners)
	}

	res, err := rb.Range(ctx, keyspace.NewRange(keys[1], keys[3]))
	if err != nil || len(res.Items) != 2 {
		t.Fatalf("range: %+v, %v", res, err)
	}
	if calls := log.take(); len(calls) == 0 || !slices.Contains(owners, calls[0].to) {
		t.Errorf("range from a learned partition sent %+v, want its first call to one of %v", calls, owners)
	}

	for op, mutate := range map[string]func(key keyspace.Key) error{
		"insert": func(key keyspace.Key) error {
			_, err := rb.Insert(ctx, replication.Item{Key: key, Value: "w"})
			return err
		},
		"delete": func(key keyspace.Key) error {
			_, err := rb.Delete(ctx, key, "w")
			return err
		},
	} {
		for range entry {
			if err := mutate(keys[2]); err != nil {
				t.Fatalf("%s: %v", op, err)
			}
			if calls := log.take(); len(calls) != 1 || !slices.Contains(owners, calls[0].to) {
				t.Errorf("%s of a learned partition sent %+v, want one call to one of %v", op, calls, owners)
			}
		}
	}
}

// mutationOf returns the ID of an insert or delete request and whether it
// is a coordinator's Direct replica leg; ok is false for any other request.
func mutationOf(req any) (id uint64, direct, ok bool) {
	switch r := req.(type) {
	case overlay.InsertRequest:
		return r.ID, r.Direct, true
	case overlay.DeleteRequest:
		return r.ID, r.Direct, true
	}
	return 0, false, false
}

// knownPath reports whether the gate knows a path for the entry peer addr.
func knownPath(rb *RemoteBackend, addr network.Addr) bool {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	i := slices.Index(rb.Peers, addr)
	return i >= 0 && i < len(rb.paths) && rb.paths[i].known
}

// TestRemoteBackendWriteToOwner checks that a write of a learned
// partition goes to one of its owners, which coordinates it without
// racing copies down the trie; that an owner whose answer names another
// peer is forgotten and the peer that answered is learned; and that a
// write whose owner is offline falls back to round-robin with the same
// mutation ID.
func TestRemoteBackendWriteToOwner(t *testing.T) {
	ctx := context.Background()
	keys := partitionKeys("01")
	// setup returns a gate over every peer that has learned every
	// partition, and one log of the calls the gate and the peers send.
	setup := func(t *testing.T) (*RemoteBackend, map[keyspace.Path][]*overlay.Peer, *network.Sim, *callLog) {
		log := &callLog{}
		sim, peers := ownerOverlay(t, log)
		log.Transport = sim.Endpoint("gate")
		rb := &RemoteBackend{Transport: log, Peers: addrsOf(slices.Concat(peers["00"], peers["01"], peers["1"])...)}
		mustSearch(t, rb, keys[0])
		rb.probes.Wait()
		log.take()
		return rb, peers, sim, log
	}

	t.Run("one coordination", func(t *testing.T) {
		rb, peers, _, log := setup(t)
		owners := addrsOf(peers["01"]...)
		for i := range rb.Peers {
			key := keys[i%len(keys)]
			for op, mutate := range map[string]func() (MutateResult, error){
				"insert": func() (MutateResult, error) { return rb.Insert(ctx, replication.Item{Key: key, Value: "w"}) },
				"delete": func() (MutateResult, error) { return rb.Delete(ctx, key, "w") },
			} {
				res, err := mutate()
				if err != nil {
					t.Fatalf("%s %d: %v", op, i, err)
				}
				if res.Hops != 0 {
					t.Errorf("%s %d of a learned partition took %d hops, want 0", op, i, res.Hops)
				}
				var routed, legs []sentCall
				for _, c := range log.take() {
					if _, direct, ok := mutationOf(c.req); ok && direct {
						legs = append(legs, c)
					} else if ok {
						routed = append(routed, c)
					}
				}
				if len(routed) != 1 || routed[0].from != "gate" || !slices.Contains(owners, routed[0].to) {
					t.Errorf("%s %d sent the routed requests %+v, want one, from the gate to one of %v", op, i, routed, owners)
				}
				if len(legs) != len(owners)-1 {
					t.Errorf("%s %d sent %d replica legs, want %d", op, i, len(legs), len(owners)-1)
				}
			}
		}
	})

	t.Run("owner answers for another peer", func(t *testing.T) {
		rb, peers, _, _ := setup(t)
		owners := addrsOf(peers["01"]...)
		// The gate takes a peer of 00 for the owner of 010, and knows no
		// peer of 01.
		wrong := peers["00"][0].Addr()
		rb.setPath(wrong, "010", true)
		for _, addr := range owners {
			rb.setPath(addr, "", false)
		}
		if addr, _ := rb.owner(keys[0]); addr != wrong {
			t.Fatalf("owner of %v = %q, want %q", keys[0], addr, wrong)
		}
		if _, err := rb.Insert(ctx, replication.Item{Key: keys[0], Value: "w"}); err != nil {
			t.Fatal(err)
		}
		if knownPath(rb, wrong) {
			t.Errorf("the gate still knows a path for %s, which answered for another peer", wrong)
		}
		var learned []network.Addr
		for _, addr := range owners {
			if knownPath(rb, addr) {
				learned = append(learned, addr)
			}
		}
		if len(learned) != 1 {
			t.Fatalf("the gate learned %v of partition 01 from one write, want the peer that answered", learned)
		}
		if addr, _ := rb.owner(keys[1]); addr != learned[0] {
			t.Errorf("owner of %v = %q, want %q", keys[1], addr, learned[0])
		}
	})

	t.Run("owner offline", func(t *testing.T) {
		rb, peers, sim, log := setup(t)
		dead := peers["01"][0].Addr()
		for _, addr := range addrsOf(peers["01"][1:]...) {
			rb.setPath(addr, "", false)
		}
		sim.SetOnline(dead, false)
		if _, err := rb.Insert(ctx, replication.Item{Key: keys[1], Value: "w"}); err != nil {
			t.Fatalf("insert with its owner offline: %v", err)
		}
		var sent []sentCall
		ids := map[uint64]bool{}
		for _, c := range log.take() {
			if id, _, ok := mutationOf(c.req); ok && c.from == "gate" {
				sent = append(sent, c)
				ids[id] = true
			}
		}
		if len(sent) < 2 || sent[0].to != dead || len(ids) != 1 {
			t.Errorf("the gate sent %+v, want the offline owner %s first, then round-robin, all with one mutation ID", sent, dead)
		}
		if knownPath(rb, dead) {
			t.Errorf("the gate still knows a path for the offline owner %s", dead)
		}
		for _, p := range peers["01"][1:] {
			if !p.Store().Live(keys[1], "w") {
				t.Errorf("%s does not hold the write", p.Addr())
			}
		}
	})
}

// TestRemoteBackendSpreadsReplicas checks that reads of a partition are
// spread over all of its entry peers, not held on the one that answered
// first, and reach no other peer.
func TestRemoteBackendSpreadsReplicas(t *testing.T) {
	sim, peers := ownerOverlay(t, nil)
	log := &callLog{Transport: sim.Endpoint("gate")}
	rb := &RemoteBackend{Transport: log, Peers: addrsOf(slices.Concat(peers["00"], peers["01"], peers["1"])...)}
	keys := partitionKeys("01")
	mustSearch(t, rb, keys[0])
	rb.probes.Wait()
	log.take()
	for i := 0; i < 60; i++ {
		mustSearch(t, rb, keys[i%len(keys)])
	}
	hits := map[network.Addr]int{}
	for _, c := range log.take() {
		hits[c.to]++
	}
	for _, addr := range addrsOf(peers["01"]...) {
		if hits[addr] == 0 {
			t.Errorf("60 searches of partition 01 never called its replica %s: %v", addr, hits)
		}
		delete(hits, addr)
	}
	if len(hits) != 0 {
		t.Errorf("searches of partition 01 called other peers: %v", hits)
	}
}

// TestRemoteBackendOwnerOffline checks that a known owner that goes
// offline costs no failed read: the search sent to it answers through the
// round-robin fallback, and later searches make no call to the dead
// address.
func TestRemoteBackendOwnerOffline(t *testing.T) {
	sim, peers := ownerOverlay(t, nil)
	log := &callLog{Transport: sim.Endpoint("gate")}
	rb := &RemoteBackend{Transport: log, Peers: addrsOf(slices.Concat(peers["00"], peers["01"], peers["1"])...)}
	keys := partitionKeys("01")

	mustSearch(t, rb, keys[0])
	rb.probes.Wait()
	dead, ok := rb.owner(keys[0])
	if !ok {
		t.Fatal("the gate knows no owner after the first search")
	}
	sim.SetOnline(dead, false)
	log.take()
	// Reads are spread over the partition's replicas, so search until one
	// is sent to the offline owner; that search must still answer.
	tried := false
	for i := 0; i < 100 && !tried; i++ {
		mustSearch(t, rb, keys[i%len(keys)])
		for _, c := range log.take() {
			tried = tried || c.to == dead
		}
	}
	if !tried {
		t.Fatalf("100 searches of its partition never called the owner %s", dead)
	}
	for i := 0; i < 20; i++ {
		mustSearch(t, rb, keys[i%len(keys)])
	}
	for _, c := range log.take() {
		if c.to == dead {
			t.Fatalf("a search called the offline owner %s after its failure", dead)
		}
	}
}

// TestRemoteBackendUsesOnlyEntryPeers checks that a responsible peer
// outside Peers is never learned, so never called.
func TestRemoteBackendUsesOnlyEntryPeers(t *testing.T) {
	sim, peers := ownerOverlay(t, nil)
	log := &callLog{Transport: sim.Endpoint("gate")}
	rb := &RemoteBackend{Transport: log, Peers: addrsOf(slices.Concat(peers["00"], peers["1"])...)}
	outside := addrsOf(peers["01"]...)
	keys := partitionKeys("01")
	for i := 0; i < 12; i++ {
		if res := mustSearch(t, rb, keys[i%len(keys)]); res.Hops == 0 {
			t.Errorf("search %d answered with 0 hops through an entry peer of another partition", i)
		}
	}
	if _, err := rb.Range(context.Background(), keyspace.NewRange(keys[0], keys[3])); err != nil {
		t.Fatal(err)
	}
	for _, c := range log.take() {
		if slices.Contains(outside, c.to) {
			t.Fatalf("the gate called %s, which is not an entry peer", c.to)
		}
	}
}

// TestRemoteBackendOwnerAllocs holds the owner lookup, over the paths of
// 14 partitions, to no allocation, and checks that the longest known
// prefix wins.
func TestRemoteBackendOwnerAllocs(t *testing.T) {
	paths := []keyspace.Path{"000", "001"}
	for i := 4; i < 16; i++ {
		paths = append(paths, keyspace.Path(fmt.Sprintf("%04b", i)))
	}
	rb := &RemoteBackend{}
	for _, path := range paths {
		for r := 0; r < 2; r++ {
			rb.Peers = append(rb.Peers, network.Addr(fmt.Sprintf("%s-%d", path, r)))
		}
	}
	// A shorter path known beside longer ones loses to them.
	rb.Peers = append(rb.Peers, "shallow")
	for i, addr := range rb.Peers[:len(rb.Peers)-1] {
		rb.setPath(addr, paths[i/2], true)
	}
	rb.setPath("shallow", "1", true)
	keys := make([]keyspace.Key, len(paths))
	for i, path := range paths {
		keys[i] = keyspace.MustFromString(string(path) + "1010")
		if addr, ok := rb.owner(keys[i]); !ok || !keys[i].HasPrefix(keyspace.Path(string(addr)[:len(path)])) {
			t.Errorf("owner of %v = %q, %v; want a peer of %s", keys[i], addr, ok, path)
		}
	}
	i := 0
	if allocs := testing.AllocsPerRun(200, func() {
		rb.owner(keys[i%len(keys)])
		i++
	}); allocs != 0 {
		t.Errorf("owner lookup allocates %.1f times, want 0", allocs)
	}
}

// TestRemoteBackendConcurrent runs searches and ranges from eight
// goroutines while an owner of a partition goes offline and comes back
// ten times; under -race it checks the owner table's locking. A read
// caught by a toggle may fail as unreachable, but none may fail otherwise
// or answer wrongly.
func TestRemoteBackendConcurrent(t *testing.T) {
	sim, peers := ownerOverlay(t, nil)
	var all []*overlay.Peer
	var keys []keyspace.Key
	for _, path := range ownerPartitions {
		all = append(all, peers[path]...)
		keys = append(keys, partitionKeys(path)...)
	}
	rb := &RemoteBackend{Transport: sim.Endpoint("gate"), Peers: addrsOf(all...)}
	toggled := peers["01"][0].Addr()
	ctx := context.Background()

	var wg sync.WaitGroup
	var answered atomic.Int64
	errs := make(chan error, 8)
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := keys[i%len(keys)]
				res, err := rb.Search(ctx, key, SearchOptions{})
				if err == nil && (len(res.Items) != 1 || !res.Items[0].Key.Equal(key)) {
					err = fmt.Errorf("wrong answer %+v", res.Items)
				}
				if err == nil {
					var rng RangeResult
					rng, err = rb.Range(ctx, keyspace.RangeFrom(key))
					if err == nil && !rng.Incomplete && len(rng.Items) != len(keys)-i%len(keys) {
						err = fmt.Errorf("range from %v: %d items, want %d", key, len(rng.Items), len(keys)-i%len(keys))
					}
				}
				if err != nil && !errors.Is(err, overlay.ErrUnreachable) {
					errs <- fmt.Errorf("key %v: %w", key, err)
					return
				}
				if err == nil {
					answered.Add(1)
				}
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		sim.SetOnline(toggled, i%2 == 1)
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if answered.Load() == 0 {
		t.Error("no read answered")
	}
	t.Logf("%d reads answered", answered.Load())
}
