package overlay

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
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

// forwardTree builds an overlay in which a key under "111" is three
// forwarding hops from the origin (path "0"): origin → "10" → "110" →
// "111". Every routing peer holds three live references at the level it
// forwards at, and no two peers share a reference, so the origin's α read
// copies travel disjoint sub-trees. The three hop-3 peers behind one hop-2
// peer are each other's replicas. It returns the origin and the counters
// and peers at hop 1, 2 and 3 (3, 9 and 27 peers).
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
	for i, p := range peers[2] {
		for _, other := range peers[2][i/3*3 : i/3*3+3] {
			if other != p {
				p.AddReplica(other.Addr())
			}
		}
	}
	return origin, originCount, counters, peers
}

// TestForwardsPerRequestBounded checks the bound on forwards per request:
// the origin of a lookup spends α, the origin of a routed insert sends one
// copy, and every forwarder sends exactly one request per request it
// received. The insert is coordinated once, with one Direct leg per other
// replica of the responsible peer.
func TestForwardsPerRequestBounded(t *testing.T) {
	const alpha = 3
	key := keyspace.MustFromString("11100")
	for _, tc := range []struct {
		name   string
		typ    string
		copies int // requests the origin sends
		legs   int // Direct legs sent by the responsible partition
		run    func(ctx context.Context, origin *Peer) (MutateResult, error)
	}{
		{"query", "overlay.QueryRequest", alpha, 0, func(ctx context.Context, origin *Peer) (MutateResult, error) {
			res, err := origin.Query(ctx, key)
			return MutateResult{Hops: res.Hops}, err
		}},
		{"insert", "overlay.InsertRequest", 1, 2, func(ctx context.Context, origin *Peer) (MutateResult, error) {
			return origin.Insert(ctx, replication.Item{Key: key, Value: "v"})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := network.NewSim(network.SimConfig{Seed: 36, Latency: network.ConstantLatency(200 * time.Microsecond)})
			origin, originCount, counters, peers := forwardTree(t, sim, alpha)
			for _, p := range peers[2] {
				p.AddItems([]replication.Item{{Key: key, Value: "v"}})
			}
			res, err := tc.run(context.Background(), origin)
			if err != nil {
				t.Fatal(err)
			}
			if res.Hops != 3 {
				t.Fatalf("hops = %d, want 3", res.Hops)
			}
			waitNoCallsInFlight(t, sim)
			if sent, _ := originCount.counts(tc.typ); sent != tc.copies {
				t.Errorf("origin sent %d requests, want %d", sent, tc.copies)
			}
			for hop := 0; hop < 2; hop++ {
				for i, c := range counters[hop] {
					if sent, received := c.counts(tc.typ); sent != received {
						t.Errorf("forwarder at hop %d (#%d) sent %d requests for %d received, want one each", hop+1, i, sent, received)
					}
				}
			}
			legs := 0
			for _, c := range counters[2] {
				sent, _ := c.counts(tc.typ)
				legs += sent
			}
			if legs != tc.legs {
				t.Errorf("responsible peers sent %d requests, want %d Direct legs", legs, tc.legs)
			}
			if tc.legs > 0 && res.Acks != tc.legs+1 {
				t.Errorf("acks = %d, want %d", res.Acks, tc.legs+1)
			}
		})
	}
}

// lossyTransport delivers every request but loses the answer to the first
// InsertRequest: the call returns an error after the receiver has already
// coordinated the write. lost runs at that moment.
type lossyTransport struct {
	network.Transport
	lost func()
	once sync.Once
}

func (l *lossyTransport) Call(ctx context.Context, to network.Addr, req any) (any, error) {
	raw, err := l.Transport.Call(ctx, to, req)
	if _, ok := req.(InsertRequest); ok && err == nil {
		dropped := false
		l.once.Do(func() {
			dropped = true
			l.lost()
		})
		if dropped {
			return nil, network.ErrUnreachable
		}
	}
	return raw, err
}

// TestForwardsPerRequestDuplicateRefused checks that a responsible peer's
// refusal of a duplicate mutation ends the walk at every peer, the origin
// included. The duplicate comes from a fallback: the origin's transport
// loses the answer to the insert's first copy after the responsible
// partition coordinated it, so the origin sends the copy again through its
// next hop-1 forwarder. The origin's three hop-1 forwarders all lead to one
// hop-2 forwarder (b), whose three references are the partition's
// replicas, and every replica has marked the mutation. b must send one
// request per request it received instead of trying the other replicas,
// the duplicate must not change the pair, and the origin must give up with
// an error after two copies rather than try its third forwarder.
func TestForwardsPerRequestDuplicateRefused(t *testing.T) {
	sim := network.NewSim(network.SimConfig{Seed: 39, Latency: network.ConstantLatency(200 * time.Microsecond)})
	cfg := Config{MaxKeys: 100, MinReplicas: 1, Seed: 39}
	peer := func(tr network.Transport, path keyspace.Path) *Peer {
		pcfg := cfg
		pcfg.Seed += int64(len(sim.Addrs()))
		p := New(pcfg, tr)
		p.Table().SetPath(path)
		return p
	}
	counted := func(addr network.Addr, path keyspace.Path) (*Peer, *callCounter) {
		c := newCallCounter(sim.Endpoint(addr))
		return peer(c, path), c
	}
	key := keyspace.MustFromString("11100")
	var rs []*Peer
	var rCounts []*callCounter
	gens := func() []uint64 {
		var out []uint64
		for _, r := range rs {
			out = append(out, r.Store().PairGen(key, "v"))
		}
		return out
	}
	var coordinated []uint64
	originCount := newCallCounter(&lossyTransport{Transport: sim.Endpoint("origin"), lost: func() { coordinated = gens() }})
	origin := peer(originCount, "0")
	b, bCount := counted("b", "110")
	forwarders := map[string]*callCounter{"b": bCount}
	for i := 1; i <= 3; i++ {
		name := fmt.Sprintf("a%d", i)
		a, c := counted(network.Addr(name), "10")
		forwarders[name] = c
		origin.Table().Add(0, refFor(a))
		a.Table().Add(1, refFor(b))
	}
	for i := 0; i < 3; i++ {
		r, c := counted(network.Addr(fmt.Sprintf("r%d", i)), "111")
		rs = append(rs, r)
		rCounts = append(rCounts, c)
		b.Table().Add(2, refFor(r))
	}
	for _, r := range rs {
		for _, other := range rs {
			if other != r {
				r.AddReplica(other.Addr())
			}
		}
	}

	_, err := origin.Insert(context.Background(), replication.Item{Key: key, Value: "v"})
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("insert whose duplicate was refused returned %v, want ErrUnreachable", err)
	}
	waitNoCallsInFlight(t, sim)
	if coordinated == nil {
		t.Fatal("the first copy's answer was never lost")
	}
	if sent, _ := originCount.counts("overlay.InsertRequest"); sent != 2 {
		t.Errorf("origin sent %d copies, want the first and one fallback", sent)
	}
	if _, received := bCount.counts("overlay.InsertRequest"); received != 2 {
		t.Fatalf("b received %d copies, want the first and the fallback", received)
	}
	for name, c := range forwarders {
		if sent, received := c.counts("overlay.InsertRequest"); sent != received {
			t.Errorf("forwarder %s sent %d requests for %d received, want one each", name, sent, received)
		}
	}
	legs := 0
	for _, c := range rCounts {
		sent, _ := c.counts("overlay.InsertRequest")
		legs += sent
	}
	if legs != 2 {
		t.Errorf("replicas sent %d Direct legs, want 2 from one coordination", legs)
	}
	if got := gens(); !slices.Equal(got, coordinated) {
		t.Errorf("the duplicate changed the replicas' generations: %v -> %v", coordinated, got)
	}
	for _, r := range rs {
		if !r.Store().Live(key, "v") {
			t.Errorf("pair not live at %s", r.Addr())
		}
	}
}

// TestForwardsPerRequestFallBackPastDeadRef guards the one-at-a-time rule
// against churn, for a lookup and for a routed insert: a forwarder whose
// first reference is offline moves on to the next, reaches the live one
// and prunes the dead one.
func TestForwardsPerRequestFallBackPastDeadRef(t *testing.T) {
	key := keyspace.MustFromString("1100")
	for _, tc := range []struct {
		name string
		typ  string
		run  func(ctx context.Context, origin *Peer, i int) (network.Addr, error)
	}{
		{"query", "overlay.QueryRequest", func(ctx context.Context, origin *Peer, _ int) (network.Addr, error) {
			res, err := origin.Query(ctx, key)
			return res.Responsible, err
		}},
		{"insert", "overlay.InsertRequest", func(ctx context.Context, origin *Peer, i int) (network.Addr, error) {
			res, err := origin.Insert(ctx, replication.Item{Key: key, Value: fmt.Sprintf("w%d", i)})
			return res.Responsible, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
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
			dead.AddItems([]replication.Item{{Key: key, Value: "v"}})
			live.AddItems([]replication.Item{{Key: key, Value: "v"}})
			sim.SetOnline("dead", false)

			// The forwarder shuffles its references, so the dead one comes
			// first in half of the requests; once it has, it is pruned.
			for i := 0; ; i++ {
				responsible, err := tc.run(context.Background(), origin, i)
				if err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
				if responsible != "live" {
					t.Fatalf("request %d answered by %s, want live", i, responsible)
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
			sent, received := fwdCount.counts(tc.typ)
			if sent != received+1 {
				t.Errorf("forwarder sent %d requests for %d received, want one each plus one to the dead reference", sent, received)
			}
		})
	}
}
