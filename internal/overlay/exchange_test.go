package overlay

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"pgrid/internal/keyspace"
	"pgrid/internal/network"
	"pgrid/internal/replication"
	"pgrid/internal/routing"
)

// exchangeRecorder wraps a transport and keeps every ExchangeRequest the
// peer sends, in order.
type exchangeRecorder struct {
	network.Transport
	mu   sync.Mutex
	reqs []ExchangeRequest
}

func (r *exchangeRecorder) Call(ctx context.Context, to network.Addr, req any) (any, error) {
	if x, ok := req.(ExchangeRequest); ok {
		r.mu.Lock()
		r.reqs = append(r.reqs, x)
		r.mu.Unlock()
	}
	return r.Transport.Call(ctx, to, req)
}

// take returns the requests recorded since the last take.
func (r *exchangeRecorder) take() []ExchangeRequest {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.reqs
	r.reqs = nil
	return out
}

// TestExchangeWithholdsItems pins who pays for an encounter's data: a refer
// between foreign partitions sends one request without items, and an
// encounter inside a shared partition sends a first request without items
// and, asked for them, the same request again with exactly the initiator's
// partition. Either way Interactions counts one encounter.
func TestExchangeWithholdsItems(t *testing.T) {
	sim := network.NewSim(network.SimConfig{Seed: 11})
	cfg := Config{MaxKeys: 100, MinReplicas: 1, Seed: 11}
	rec := &exchangeRecorder{Transport: sim.Endpoint("A")}
	a := New(cfg, rec)
	peer := func(addr network.Addr, path keyspace.Path) *Peer {
		pcfg := cfg
		pcfg.Seed += int64(len(sim.Addrs()))
		p := New(pcfg, sim.Endpoint(addr))
		p.Table().SetPath(path)
		return p
	}
	fill := func(p *Peer, n int) {
		items := make([]replication.Item, n)
		for i := range items {
			items[i] = replication.Item{Key: keyspace.MustFromFloat(float64(i)/float64(n), 16), Value: fmt.Sprintf("%s-%d", p.Addr(), i)}
		}
		p.AddItems(items)
	}
	fill(a, 8)
	encounter := func(partner *Peer) []ExchangeRequest {
		t.Helper()
		before := a.counters[Interactions].Load()
		if _, err := a.Interact(context.Background(), partner.Addr()); err != nil {
			t.Fatal(err)
		}
		if got := a.counters[Interactions].Load() - before; got != 1 {
			t.Errorf("Interactions rose by %d in one encounter, want 1", got)
		}
		return rec.take()
	}
	// withheldThenFull checks a data-moving encounter's two requests.
	withheldThenFull := func(name string, reqs []ExchangeRequest, want []replication.Item) {
		t.Helper()
		if len(reqs) != 2 {
			t.Fatalf("%s: %d exchange requests, want 2", name, len(reqs))
		}
		first, second := reqs[0], reqs[1]
		if !first.Withheld || len(first.Items) != 0 {
			t.Errorf("%s: first request Withheld=%v with %d items, want withheld and none", name, first.Withheld, len(first.Items))
		}
		if second.Withheld || !reflect.DeepEqual(second.Items, want) {
			t.Errorf("%s: second request Withheld=%v with %d items, want %d items of the partition", name, second.Withheld, len(second.Items), len(want))
		}
		if second.Estimate != first.Estimate || second.Path != first.Path {
			t.Errorf("%s: repeated request changed estimate %v -> %v or path %q -> %q", name, first.Estimate, second.Estimate, first.Path, second.Path)
		}
	}

	// A refer between foreign partitions: B holds no reference, so no
	// referral follows.
	a.Table().SetPath("0")
	b := peer("B", "1")
	reqs := encounter(b)
	if len(reqs) != 1 {
		t.Fatalf("refer: %d exchange requests, want 1", len(reqs))
	}
	if n := len(reqs[0].Items); n != 0 {
		t.Errorf("refer request carried %d items, want 0", n)
	}

	// The initiator behind the responder: A at "0" meets C at "01", which
	// shares A's partition.
	c := peer("C", "01")
	c.Table().Add(1, refFor(peer("D", "00")))
	fill(c, 4)
	want := a.Store().ItemsWithPrefix(a.Path())
	withheldThenFull("initiator behind", encounter(c), want)

	// The same path: E meets A wherever A ended up.
	e := peer("E", a.Path())
	fill(e, 4)
	want = a.Store().ItemsWithPrefix(a.Path())
	withheldThenFull("same path", encounter(e), want)
}

// TestWithheldRequestChangesNothing pins the responder's side: a withheld
// request inside a shared partition is answered ActionItems before any
// state moves.
func TestWithheldRequestChangesNothing(t *testing.T) {
	sim := network.NewSim(network.SimConfig{Seed: 12})
	cfg := Config{MaxKeys: 2, MinReplicas: 1, Seed: 12}
	b := New(cfg, sim.Endpoint("B"))
	b.AddItems([]replication.Item{{Key: keyspace.MustFromString("0101"), Value: "x"}, {Key: keyspace.MustFromString("1101"), Value: "y"}})
	_, refs := b.Table().Snapshot()
	clock := b.Store().Clock()
	resp := b.handleExchange(ExchangeRequest{From: "A", Path: keyspace.Root, Estimate: 0.5, Withheld: true,
		RoutingPath: "1", RoutingRefs: [][]routing.Ref{{{Addr: "Q", Path: "0"}}}, Replicas: []network.Addr{"Z"}})
	if resp.Action != ActionItems {
		t.Fatalf("action = %v, want %v", resp.Action, ActionItems)
	}
	if _, now := b.Table().Snapshot(); b.Path() != keyspace.Root || b.Store().Clock() != clock || !reflect.DeepEqual(now, refs) || len(b.Replicas()) != 0 {
		t.Errorf("withheld request changed the responder: path %q clock %d -> %d refs %v -> %v replicas %v",
			b.Path(), clock, b.Store().Clock(), refs, now, b.Replicas())
	}
}
