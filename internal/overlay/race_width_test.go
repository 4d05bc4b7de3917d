package overlay

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"pgrid/internal/keyspace"
	"pgrid/internal/network"
	"pgrid/internal/replication"
)

// waitNoCallsInFlight waits until every call on the simulated network has
// returned, so calls a race still had running are counted.
func waitNoCallsInFlight(t *testing.T, sim *network.Sim) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for sim.Calls.Current() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d calls still in flight", sim.Calls.Current())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRaceSendsNoExtraCall pins the race's launch rule: a race starts a
// further reference only after it rejected an outcome. With Alpha 1 and
// three responsible references, the first answer resolves the lookup, so
// the origin sends exactly one request per query and one per batch.
func TestRaceSendsNoExtraCall(t *testing.T) {
	sim := network.NewSim(network.SimConfig{Seed: 35, Latency: network.ConstantLatency(200 * time.Microsecond)})
	cfg := Config{MaxKeys: 100, MinReplicas: 1, Alpha: 1, Seed: 35}
	count := newCallCounter(sim.Endpoint("origin"))
	origin := New(cfg, count)
	origin.Table().SetPath("0")
	keys := []keyspace.Key{keyspace.MustFromString("1100"), keyspace.MustFromString("1010")}
	for i := 0; i < 3; i++ {
		r := New(cfg, sim.Endpoint(network.Addr(fmt.Sprintf("r%d", i))))
		r.Table().SetPath("1")
		for _, k := range keys {
			r.AddItems([]replication.Item{{Key: k, Value: "v"}})
		}
		origin.Table().Add(0, refFor(r))
	}

	const trials = 20
	ctx := context.Background()
	for i := 0; i < trials; i++ {
		if _, err := origin.Query(ctx, keys[0]); err != nil {
			t.Fatalf("trial %d: query: %v", i, err)
		}
		for j, res := range origin.QueryBatch(ctx, keys) {
			if res.Err != nil {
				t.Fatalf("trial %d: batch key %d: %v", i, j, res.Err)
			}
		}
	}
	waitNoCallsInFlight(t, sim)
	if sent, _ := count.counts("overlay.QueryRequest"); sent != trials {
		t.Errorf("origin sent %d QueryRequests for %d queries, want one each", sent, trials)
	}
	if sent, _ := count.counts("overlay.BatchQueryRequest"); sent != trials {
		t.Errorf("origin sent %d BatchQueryRequests for %d batches, want one each", sent, trials)
	}
}

// forwardTree builds an overlay in which a key under "1110" is three
// forwarding hops from the origin (path "0"): origin → "10" → "110" →
// "111". Every routing peer holds three live references at the level it
// forwards at, and no two peers share a reference, so the origin's α copies
// travel disjoint sub-trees and no responsible peer sees a copy twice (a
// routed mutation's duplicate is refused by its responsible peer, which
// sends the forwarder on to its next reference). It returns the origin and
// the counters and peers at hop 1, 2 and 3 (3, 9 and 27 peers).
func forwardTree(t *testing.T, sim *network.Sim, alpha int) (*Peer, *callCounter, [3][]*callCounter, [3][]*Peer) {
	t.Helper()
	cfg := Config{MaxKeys: 100, MinReplicas: 1, Alpha: alpha, Seed: 36}
	originCount := newCallCounter(sim.Endpoint("origin"))
	origin := New(cfg, originCount)
	origin.Table().SetPath("0")
	var counters [3][]*callCounter
	var peers [3][]*Peer
	width := 1
	for hop, path := range []keyspace.Path{"10", "110", "111"} {
		width *= 3
		for i := 0; i < width; i++ {
			c := newCallCounter(sim.Endpoint(network.Addr(fmt.Sprintf("h%d-%d", hop+1, i))))
			pcfg := cfg
			pcfg.Seed = int64(37 + 100*hop + i)
			p := New(pcfg, c)
			p.Table().SetPath(path)
			counters[hop] = append(counters[hop], c)
			peers[hop] = append(peers[hop], p)
		}
	}
	for _, next := range peers[0] {
		origin.Table().Add(0, refFor(next))
	}
	for hop := 0; hop < 2; hop++ {
		for i, p := range peers[hop] {
			for _, next := range peers[hop+1][3*i : 3*i+3] {
				p.Table().Add(hop+1, refFor(next))
			}
		}
	}
	return origin, originCount, counters, peers
}

// TestForwardsPerRequestBounded checks the bound on forwards per request:
// the origin spends α, and every forwarder sends exactly one request per
// request it received, for a lookup and for a routed insert.
func TestForwardsPerRequestBounded(t *testing.T) {
	const alpha = 3
	key := keyspace.MustFromString("11100")
	for _, tc := range []struct {
		name string
		typ  string
		run  func(ctx context.Context, origin *Peer) (hops int, err error)
	}{
		{"query", "overlay.QueryRequest", func(ctx context.Context, origin *Peer) (int, error) {
			res, err := origin.Query(ctx, key)
			return res.Hops, err
		}},
		{"insert", "overlay.InsertRequest", func(ctx context.Context, origin *Peer) (int, error) {
			res, err := origin.Insert(ctx, replication.Item{Key: key, Value: "v"})
			return res.Hops, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := network.NewSim(network.SimConfig{Seed: 36, Latency: network.ConstantLatency(200 * time.Microsecond)})
			origin, originCount, counters, peers := forwardTree(t, sim, alpha)
			for _, p := range peers[2] {
				p.AddItems([]replication.Item{{Key: key, Value: "v"}})
			}
			hops, err := tc.run(context.Background(), origin)
			if err != nil {
				t.Fatal(err)
			}
			if hops != 3 {
				t.Fatalf("hops = %d, want 3", hops)
			}
			waitNoCallsInFlight(t, sim)
			if sent, _ := originCount.counts(tc.typ); sent != alpha {
				t.Errorf("origin sent %d requests, want α = %d", sent, alpha)
			}
			for hop := 0; hop < 2; hop++ {
				for i, c := range counters[hop] {
					if sent, received := c.counts(tc.typ); sent != received {
						t.Errorf("forwarder at hop %d (#%d) sent %d requests for %d received, want one each", hop+1, i, sent, received)
					}
				}
			}
			for i, c := range counters[2] {
				if sent, _ := c.counts(tc.typ); sent != 0 {
					t.Errorf("responsible peer #%d forwarded %d requests", i, sent)
				}
			}
		})
	}
}

// TestForwardsPerRequestDuplicateRefused checks that a responsible peer's
// refusal of a duplicate mutation ends the walk at every forwarder. The
// origin's two α copies of an insert travel different hop-1 forwarders
// (a1, a2) into one hop-2 forwarder (b), whose three references are the
// responsible partition's replicas. The network delays copy 2 until copy 1
// was coordinated, and copy 1's answer until copy 2 was refused, so copy 2
// meets a peer that already marked the mutation. b must send one request
// per request it received instead of trying the other replicas, which
// refuse the copy too.
func TestForwardsPerRequestDuplicateRefused(t *testing.T) {
	const hop = 200 * time.Microsecond
	latency := func(from, to network.Addr, _ *rand.Rand) time.Duration {
		switch {
		case from == "origin" && to == "a2":
			return 100 * hop // copy 2 reaches b after copy 1 was coordinated
		case from == "a1" && to == "origin":
			return 500 * hop // copy 1's answer returns after copy 2 was refused
		}
		return hop
	}
	sim := network.NewSim(network.SimConfig{Seed: 39, Latency: latency})
	cfg := Config{MaxKeys: 100, MinReplicas: 1, Alpha: 2, Seed: 39}
	peer := func(addr network.Addr, path keyspace.Path) (*Peer, *callCounter) {
		c := newCallCounter(sim.Endpoint(addr))
		pcfg := cfg
		pcfg.Seed += int64(len(sim.Addrs()))
		p := New(pcfg, c)
		p.Table().SetPath(path)
		return p, c
	}
	origin, _ := peer("origin", "0")
	a1, a1Count := peer("a1", "10")
	a2, a2Count := peer("a2", "10")
	b, bCount := peer("b", "110")
	var rs []*Peer
	for i := 0; i < 3; i++ {
		r, _ := peer(network.Addr(fmt.Sprintf("r%d", i)), "111")
		rs = append(rs, r)
		b.Table().Add(2, refFor(r))
	}
	for _, r := range rs {
		for _, other := range rs {
			if other != r {
				r.AddReplica(other.Addr())
			}
		}
	}
	origin.Table().Add(0, refFor(a1))
	origin.Table().Add(0, refFor(a2))
	a1.Table().Add(1, refFor(b))
	a2.Table().Add(1, refFor(b))

	key := keyspace.MustFromString("11100")
	res, err := origin.Insert(context.Background(), replication.Item{Key: key, Value: "v"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hops != 3 || res.Acks != 3 {
		t.Errorf("insert took %d hops with %d acks, want 3 and 3", res.Hops, res.Acks)
	}
	waitNoCallsInFlight(t, sim)
	if _, received := bCount.counts("overlay.InsertRequest"); received != 2 {
		t.Fatalf("b received %d copies, want both α copies", received)
	}
	for name, c := range map[string]*callCounter{"a1": a1Count, "a2": a2Count, "b": bCount} {
		if sent, received := c.counts("overlay.InsertRequest"); sent != received {
			t.Errorf("forwarder %s sent %d requests for %d received, want one each", name, sent, received)
		}
	}
}

// TestForwardsPerRequestFallBackPastDeadRef guards the forwarder's one-at-a-
// time rule against churn: a forwarder whose first reference is offline
// moves on to the next, reaches the live one and prunes the dead one.
func TestForwardsPerRequestFallBackPastDeadRef(t *testing.T) {
	sim := network.NewSim(network.SimConfig{Seed: 38, Latency: network.ConstantLatency(200 * time.Microsecond)})
	cfg := Config{MaxKeys: 100, MinReplicas: 1, Alpha: 3, Seed: 38}
	origin := New(cfg, sim.Endpoint("origin"))
	fwdCount := newCallCounter(sim.Endpoint("fwd"))
	fwd := New(cfg, fwdCount)
	dead := New(cfg, sim.Endpoint("dead"))
	live := New(cfg, sim.Endpoint("live"))
	origin.Table().SetPath("0")
	fwd.Table().SetPath("10")
	dead.Table().SetPath("11")
	live.Table().SetPath("11")
	origin.Table().Add(0, refFor(fwd))
	fwd.Table().Add(1, refFor(dead))
	fwd.Table().Add(1, refFor(live))
	key := keyspace.MustFromString("1100")
	dead.AddItems([]replication.Item{{Key: key, Value: "v"}})
	live.AddItems([]replication.Item{{Key: key, Value: "v"}})
	sim.SetOnline("dead", false)

	// The forwarder shuffles its references, so the dead one comes first
	// in half of the queries; once it has, it is pruned.
	for i := 0; ; i++ {
		res, err := origin.Query(context.Background(), key)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if res.Responsible != "live" {
			t.Fatalf("query %d answered by %s, want live", i, res.Responsible)
		}
		pruned := true
		for _, ref := range fwd.Table().Refs(1) {
			if ref.Addr == "dead" {
				pruned = false
			}
		}
		if pruned {
			break
		}
		if i == 40 {
			t.Fatal("dead reference was never tried and pruned")
		}
	}
	waitNoCallsInFlight(t, sim)
	sent, received := fwdCount.counts("overlay.QueryRequest")
	if sent != received+1 {
		t.Errorf("forwarder sent %d requests for %d received, want one each plus one to the dead reference", sent, received)
	}
}
