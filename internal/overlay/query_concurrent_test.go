package overlay

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"pgrid/internal/keyspace"
	"pgrid/internal/network"
	"pgrid/internal/replication"
	"pgrid/internal/workload"
)

// TestDedupeItemsDoesNotMutateInput is the regression test for the aliasing
// bug where the range result's dedupe built its output with items[:0], overwriting the
// caller's backing array (a response buffer other readers still held).
func TestDedupeItemsDoesNotMutateInput(t *testing.T) {
	k1 := keyspace.MustFromString("0101")
	k2 := keyspace.MustFromString("1010")
	items := []replication.Item{
		{Key: k2, Value: "b"},
		{Key: k1, Value: "a"},
		{Key: k2, Value: "b"},
		{Key: k1, Value: "a"},
	}
	orig := append([]replication.Item(nil), items...)
	out := replication.DedupeItems(items)
	for i := range items {
		if items[i] != orig[i] {
			t.Fatalf("DedupeItems mutated its input at %d: %+v != %+v", i, items[i], orig[i])
		}
	}
	if len(out) != 2 {
		t.Fatalf("dedupe kept %d items, want 2", len(out))
	}
	if out[0].Value != "a" || out[1].Value != "b" {
		t.Errorf("output not sorted by key: %+v", out)
	}
	// The output must not alias the input's backing array.
	out[0].Value = "mutated"
	if items[0].Value == "mutated" || items[1].Value == "mutated" {
		t.Error("output aliases the input slice")
	}
}

// TestAlphaRacePrunesStaleRef checks the heart of the α-parallel lookup: a
// query whose divergence level holds both a stale (offline) and a live
// reference succeeds at the live one without waiting for the stale one, and
// the stale reference is pruned from the routing table.
func TestAlphaRacePrunesStaleRef(t *testing.T) {
	sim := network.NewSim(network.SimConfig{Seed: 30, Latency: network.ConstantLatency(2 * time.Millisecond)})
	cfg := Config{MaxKeys: 100, MinReplicas: 1, Alpha: 3, Seed: 30}
	origin := New(cfg, sim.Endpoint("origin"))
	dead := New(cfg, sim.Endpoint("dead"))
	live := New(cfg, sim.Endpoint("live"))

	origin.Table().SetPath("0")
	dead.Table().SetPath("1")
	live.Table().SetPath("1")
	origin.Table().Add(0, refFor(dead))
	origin.Table().Add(0, refFor(live))

	key := keyspace.MustFromString("1100")
	item := replication.Item{Key: key, Value: "payload"}
	dead.AddItems([]replication.Item{item})
	live.AddItems([]replication.Item{item})
	sim.SetOnline("dead", false)

	res, err := origin.Query(context.Background(), key)
	if err != nil {
		t.Fatalf("query with a live candidate in the race failed: %v", err)
	}
	if len(res.Items) != 1 || res.Items[0].Value != "payload" {
		t.Fatalf("unexpected result %+v", res.Items)
	}
	if res.Responsible != "live" {
		t.Errorf("responsible = %s, want live", res.Responsible)
	}
	// The loser's pruning runs concurrently with the winner's return; give
	// it a moment.
	deadline := time.Now().Add(2 * time.Second)
	for {
		pruned := true
		for _, ref := range origin.Table().Refs(0) {
			if ref.Addr == "dead" {
				pruned = false
			}
		}
		if pruned {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stale reference was not pruned")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestConcurrentQueriesUnderLossAndChurn drives exact-match and range
// queries from many goroutines at once against an overlay suffering both
// message loss and 25% of the peers offline, asserting the success rate the
// redundant references and α-racing are meant to preserve. Run with -race
// this also exercises the query engine's synchronization.
func TestConcurrentQueriesUnderLossAndChurn(t *testing.T) {
	cfg := Config{MaxKeys: 20, MinReplicas: 3, DoneAfterIdle: 3, MaxRefs: 4, Alpha: 3, Fanout: 4}
	c := newTestCluster(t, 48, 10, workload.Uniform{}, cfg, 31)
	c.replicateAll(t)
	c.construct(t, 60)

	// Only now make the network hostile: queries must cope with churn and
	// loss, construction ran clean.
	offline := map[int]bool{}
	for len(offline) < len(c.peers)/4 {
		offline[c.rng.Intn(len(c.peers))] = true
	}
	for idx := range offline {
		c.sim.SetOnline(c.peers[idx].Addr(), false)
	}
	c.sim.SetLoss(0.05)

	items := c.allItems()
	var onlineIdx []int
	for i := range c.peers {
		if !offline[i] {
			onlineIdx = append(onlineIdx, i)
		}
	}

	const workers = 8
	const perWorker = 12
	var wg sync.WaitGroup
	var mu sync.Mutex
	exactOK, exactN := 0, 0
	rangeOK, rangeN := 0, 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			ctx := context.Background()
			localExactOK, localRangeOK := 0, 0
			for i := 0; i < perWorker; i++ {
				it := items[rng.Intn(len(items))]
				origin := c.peers[onlineIdx[rng.Intn(len(onlineIdx))]]
				if res, err := origin.Query(ctx, it.Key); err == nil && len(res.Items) > 0 {
					localExactOK++
				}
			}
			// A couple of multi-partition range queries per worker.
			for i := 0; i < 2; i++ {
				lo := 0.1 + 0.05*float64(rng.Intn(4))
				r := keyspace.NewRange(
					keyspace.MustFromFloat(lo, keyspace.DefaultDepth),
					keyspace.MustFromFloat(lo+0.4, keyspace.DefaultDepth),
				)
				origin := c.peers[onlineIdx[rng.Intn(len(onlineIdx))]]
				if res, err := origin.RangeQuery(ctx, r); err == nil && len(res.Items) > 0 {
					localRangeOK++
				}
			}
			mu.Lock()
			exactOK += localExactOK
			exactN += perWorker
			rangeOK += localRangeOK
			rangeN += 2
			mu.Unlock()
		}(31*1000 + int64(w))
	}
	wg.Wait()

	if rate := float64(exactOK) / float64(exactN); rate < 0.6 {
		t.Errorf("exact-match success rate under loss+churn %.2f below 0.6 (%d/%d)", rate, exactOK, exactN)
	}
	if rate := float64(rangeOK) / float64(rangeN); rate < 0.6 {
		t.Errorf("range query success rate under loss+churn %.2f below 0.6 (%d/%d)", rate, rangeOK, rangeN)
	}
}

// TestRangeFanoutMatchesSerial checks that the concurrent shower fan-out
// returns exactly the items of the serial branch-after-branch execution on a
// loss-free network.
func TestRangeFanoutMatchesSerial(t *testing.T) {
	cfg := Config{MaxKeys: 20, MinReplicas: 2, DoneAfterIdle: 3}
	c := newTestCluster(t, 32, 10, workload.Uniform{}, cfg, 32)
	c.replicateAll(t)
	c.construct(t, 60)
	ctx := context.Background()
	r := keyspace.NewRange(
		keyspace.MustFromFloat(0.15, keyspace.DefaultDepth),
		keyspace.MustFromFloat(0.85, keyspace.DefaultDepth),
	)
	origin := c.peers[0]

	// Config is fixed once a peer is built; between two queries, with no
	// request in flight, the test may still set the origin's fan-out.
	collect := func(fanout int) map[string]bool {
		origin.cfg.Fanout = fanout
		res, err := origin.RangeQuery(ctx, r)
		if err != nil {
			t.Fatalf("fanout=%d: %v", fanout, err)
		}
		out := map[string]bool{}
		for _, it := range res.Items {
			out[it.Key.String()+"/"+it.Value] = true
		}
		return out
	}
	serial := collect(1)
	concurrent := collect(8)
	if len(serial) == 0 {
		t.Fatal("serial range query returned nothing")
	}
	for k := range serial {
		if !concurrent[k] {
			t.Errorf("concurrent fan-out missed %s", k)
		}
	}
	for k := range concurrent {
		if !serial[k] {
			t.Errorf("concurrent fan-out returned extra %s", k)
		}
	}
}

// TestQueryBatchMatchesSingleQueries resolves a batch of existing keys and
// checks every key finds its item, like the corresponding single lookups.
func TestQueryBatchMatchesSingleQueries(t *testing.T) {
	cfg := Config{MaxKeys: 20, MinReplicas: 2, DoneAfterIdle: 3}
	c := newTestCluster(t, 48, 10, workload.Uniform{}, cfg, 33)
	c.replicateAll(t)
	c.construct(t, 60)
	ctx := context.Background()
	items := c.allItems()
	origin := c.peers[1]

	const n = 40
	keys := make([]keyspace.Key, n)
	values := make([]string, n)
	for i := 0; i < n; i++ {
		it := items[c.rng.Intn(len(items))]
		keys[i] = it.Key
		values[i] = it.Value
	}
	results := origin.QueryBatch(ctx, keys)
	if len(results) != n {
		t.Fatalf("got %d results for %d keys", len(results), n)
	}
	batchOK := 0
	for i, res := range results {
		if res.Err != nil {
			continue
		}
		for _, it := range res.Items {
			if it.Value == values[i] {
				batchOK++
				break
			}
		}
	}
	singleOK := 0
	for i := range keys {
		if res, err := origin.Query(ctx, keys[i]); err == nil {
			for _, it := range res.Items {
				if it.Value == values[i] {
					singleOK++
					break
				}
			}
		}
	}
	if batchOK < singleOK {
		t.Errorf("batch resolved %d/%d keys, single lookups %d/%d", batchOK, n, singleOK, n)
	}
	if float64(batchOK)/float64(n) < 0.9 {
		t.Errorf("batch success rate %.2f below 0.9", float64(batchOK)/float64(n))
	}
}

// TestQueryBatchMergesAcrossResponders checks that a batch group does not
// stop at the first responder: a responder with a stale routing branch can
// dead-end some keys of the group, and a later responder must still fill
// those gaps (per-key merge, unlike a single lookup's first-answer-wins).
func TestQueryBatchMergesAcrossResponders(t *testing.T) {
	sim := network.NewSim(network.SimConfig{Seed: 34})
	cfg := Config{MaxKeys: 100, MinReplicas: 1, Alpha: 2, Seed: 34}
	origin := New(cfg, sim.Endpoint("origin"))
	narrow := New(cfg, sim.Endpoint("narrow"))
	wide := New(cfg, sim.Endpoint("wide"))

	// origin covers "0"; both references cover parts of "1": narrow only
	// "10" (it dead-ends keys under "11" — no level-1 refs), wide all of
	// "1".
	origin.Table().SetPath("0")
	narrow.Table().SetPath("10")
	wide.Table().SetPath("1")
	origin.Table().Add(0, refFor(narrow))
	origin.Table().Add(0, refFor(wide))

	k10 := keyspace.MustFromString("1000")
	k11 := keyspace.MustFromString("1100")
	narrow.AddItems([]replication.Item{{Key: k10, Value: "ten"}})
	wide.AddItems([]replication.Item{
		{Key: k10, Value: "ten"},
		{Key: k11, Value: "eleven"},
	})

	for round := 0; round < 10; round++ {
		results := origin.QueryBatch(context.Background(), []keyspace.Key{k10, k11})
		if results[0].Err != nil || len(results[0].Items) == 0 {
			t.Fatalf("round %d: key under 10 unresolved: %+v", round, results[0])
		}
		if results[1].Err != nil || len(results[1].Items) == 0 || results[1].Items[0].Value != "eleven" {
			t.Fatalf("round %d: key under 11 unresolved (first responder's dead-end must not win): %+v", round, results[1])
		}
	}
}

// TestQueryBatchOverTCP round-trips the batch messages through the real TCP
// codec: two peers split at level 0, each holding the items of its half, and
// one batch spanning both halves.
func TestQueryBatchOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp integration test")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	cfg := Config{MaxKeys: 100, MinReplicas: 1}
	var peers []*Peer
	for i := 0; i < 2; i++ {
		ep, err := network.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		pcfg := cfg
		pcfg.Seed = int64(40 + i)
		peers = append(peers, New(pcfg, ep))
	}
	peers[0].Table().SetPath("0")
	peers[1].Table().SetPath("1")
	peers[0].Table().Add(0, refFor(peers[1]))
	peers[1].Table().Add(0, refFor(peers[0]))

	var keys []keyspace.Key
	for i := 0; i < 8; i++ {
		k := keyspace.MustFromFloat(float64(i)/8+0.01, 32)
		keys = append(keys, k)
		owner := peers[0]
		if k.Bit(0) == 1 {
			owner = peers[1]
		}
		owner.AddItems([]replication.Item{{Key: k, Value: fmt.Sprintf("tcp-%d", i)}})
	}
	results := peers[0].QueryBatch(ctx, keys)
	for i, res := range results {
		if res.Err != nil {
			t.Errorf("key %d: %v", i, res.Err)
			continue
		}
		if len(res.Items) != 1 || res.Items[0].Value != fmt.Sprintf("tcp-%d", i) {
			t.Errorf("key %d: unexpected items %+v", i, res.Items)
		}
	}
}
