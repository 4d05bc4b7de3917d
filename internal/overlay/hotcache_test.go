package overlay

import (
	"context"
	"sync"
	"testing"
	"time"

	"pgrid/internal/keyspace"
	"pgrid/internal/network"
	"pgrid/internal/replication"
)

// fakeClock is a hand-advanced time source shared by every peer of a test,
// so cache TTLs run on simulated time.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// cacheCluster wires the two-partition topology with the answer cache
// enabled at the origin: origin on "0" forwards into partition "1" held by
// two replicas, which is the smallest shape where a forwarding peer caches.
func cacheCluster(t *testing.T, seed int64) (origin, r1, r2 *Peer, clk *fakeClock) {
	t.Helper()
	sim := network.NewSim(network.SimConfig{Seed: seed})
	cfg := Config{MaxKeys: 100, MinReplicas: 1, WriteQuorum: 2, Seed: seed, QueryCacheSize: 16}
	origin = New(cfg, sim.Endpoint("origin"))
	r1 = New(cfg, sim.Endpoint("r1"))
	r2 = New(cfg, sim.Endpoint("r2"))
	origin.Table().SetPath("0")
	r1.Table().SetPath("1")
	r2.Table().SetPath("1")
	origin.Table().Add(0, refFor(r1))
	origin.Table().Add(0, refFor(r2))
	r1.Table().Add(0, refFor(origin))
	r2.Table().Add(0, refFor(origin))
	r1.AddReplica(r2.Addr())
	r2.AddReplica(r1.Addr())
	clk = newFakeClock()
	for _, p := range []*Peer{origin, r1, r2} {
		p.SetTimeSource(clk.now)
	}
	return origin, r1, r2, clk
}

func hasValue(items []replication.Item, v string) bool {
	for _, it := range items {
		if it.Value == v {
			return true
		}
	}
	return false
}

// TestQueryCacheHitAfterFill: the second lookup for a key is served from
// the origin's cache (revalidated by a clock probe), not routed again.
func TestQueryCacheHitAfterFill(t *testing.T) {
	origin, _, _, _ := cacheCluster(t, 90)
	ctx := context.Background()
	key := keyspace.MustFromString("1100")
	if _, err := origin.Insert(ctx, replication.Item{Key: key, Value: "v1"}); err != nil {
		t.Fatalf("insert: %v", err)
	}

	first, err := origin.Query(ctx, key)
	if err != nil {
		t.Fatalf("first query: %v", err)
	}
	if first.Cached {
		t.Error("first query reported cached before any fill")
	}
	second, err := origin.Query(ctx, key)
	if err != nil {
		t.Fatalf("second query: %v", err)
	}
	if !second.Cached {
		t.Error("second query not served from cache")
	}
	if !hasValue(second.Items, "v1") {
		t.Errorf("cached items = %v, want v1", second.Items)
	}
	if hits := origin.Counts()[CacheHits]; hits < 1 {
		t.Errorf("CacheHits = %v, want >= 1", hits)
	}
}

// TestQueryCacheInvalidatedByWrite is the read-your-writes regression: any
// write to the partition advances its logical clock, so the next cached
// lookup fails revalidation and routes to the fresh answer — a stale value
// is never served, no matter how recently it was cached.
func TestQueryCacheInvalidatedByWrite(t *testing.T) {
	origin, _, _, _ := cacheCluster(t, 91)
	ctx := context.Background()
	key := keyspace.MustFromString("1100")
	if _, err := origin.Insert(ctx, replication.Item{Key: key, Value: "v1"}); err != nil {
		t.Fatalf("insert v1: %v", err)
	}
	for i := 0; i < 2; i++ { // fill, then hit
		if _, err := origin.Query(ctx, key); err != nil {
			t.Fatalf("warm query %d: %v", i, err)
		}
	}

	if _, err := origin.Insert(ctx, replication.Item{Key: key, Value: "v2"}); err != nil {
		t.Fatalf("insert v2: %v", err)
	}
	res, err := origin.Query(ctx, key)
	if err != nil {
		t.Fatalf("query after write: %v", err)
	}
	if res.Cached {
		t.Error("query after write served from cache: stale token accepted")
	}
	if !hasValue(res.Items, "v2") {
		t.Errorf("read-your-writes violated: items = %v, want v2", res.Items)
	}

	// The fresh answer re-fills; a delete must invalidate it again.
	if res, err = origin.Query(ctx, key); err != nil || !res.Cached {
		t.Fatalf("re-fill query: cached=%v err=%v", res.Cached, err)
	}
	if _, err := origin.Delete(ctx, key, "v1"); err != nil {
		t.Fatalf("delete v1: %v", err)
	}
	res, err = origin.Query(ctx, key)
	if err != nil {
		t.Fatalf("query after delete: %v", err)
	}
	if res.Cached {
		t.Error("query after delete served from cache")
	}
	if hasValue(res.Items, "v1") {
		t.Errorf("deleted value still served: %v", res.Items)
	}
}

// TestQueryCacheConsistentBypass: ?consistent reads never touch the cache,
// even when it holds a perfectly fresh entry.
func TestQueryCacheConsistentBypass(t *testing.T) {
	origin, _, _, _ := cacheCluster(t, 92)
	ctx := context.Background()
	key := keyspace.MustFromString("1010")
	if _, err := origin.Insert(ctx, replication.Item{Key: key, Value: "v"}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := origin.Query(ctx, key); err != nil {
			t.Fatalf("warm query: %v", err)
		}
	}
	res, err := origin.QueryWith(ctx, key, QueryOptions{Consistent: true})
	if err != nil {
		t.Fatalf("consistent query: %v", err)
	}
	if res.Cached {
		t.Error("consistent query served from cache")
	}
}

// TestQueryCacheEntryExpires: entries older than the TTL are not served
// even when the partition never changed.
func TestQueryCacheEntryExpires(t *testing.T) {
	origin, _, _, clk := cacheCluster(t, 93)
	ctx := context.Background()
	key := keyspace.MustFromString("1110")
	if _, err := origin.Insert(ctx, replication.Item{Key: key, Value: "v"}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if _, err := origin.Query(ctx, key); err != nil {
		t.Fatalf("fill query: %v", err)
	}
	clk.advance(DefaultQueryCacheTTL + time.Second)
	res, err := origin.Query(ctx, key)
	if err != nil {
		t.Fatalf("query after expiry: %v", err)
	}
	if res.Cached {
		t.Error("expired entry served from cache")
	}
}

// TestCooperativeTombstonePrune: a GC compaction pushes the pruned batch to
// the replicas, which drop the same tombstones immediately instead of
// re-learning the prune on their own horizon.
func TestCooperativeTombstonePrune(t *testing.T) {
	sim := network.NewSim(network.SimConfig{Seed: 96})
	cfg := Config{MaxKeys: 100, MinReplicas: 1, WriteQuorum: 2, Seed: 96,
		TombstoneGCVersions: 2}
	a := New(cfg, sim.Endpoint("a"))
	b := New(cfg, sim.Endpoint("b"))
	a.Table().SetPath("")
	b.Table().SetPath("")
	a.AddReplica(b.Addr())
	b.AddReplica(a.Addr())
	ctx := context.Background()
	key := keyspace.MustFromString("1100")
	if _, err := a.Insert(ctx, replication.Item{Key: key, Value: "v"}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if _, err := a.Delete(ctx, key, "v"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if got := b.Store().Stats().Tombstones; got != 1 {
		t.Fatalf("replica tombstones = %d, want 1 before prune", got)
	}
	// Age the tombstone past the version horizon on a only; a's compaction
	// must carry the prune to b cooperatively.
	for i := 0; i < 3; i++ {
		if _, err := a.Insert(ctx, replication.Item{Key: keyspace.MustFromString("0100"), Value: "filler"}); err != nil {
			t.Fatalf("filler insert: %v", err)
		}
	}
	tick := a.MaintainTick(ctx, MaintenanceOptions{})
	if tick.TombstonesPruned < 1 {
		t.Fatalf("TombstonesPruned = %d, want >= 1", tick.TombstonesPruned)
	}
	if got := b.Store().Stats().Tombstones; got != 0 {
		t.Errorf("replica tombstones = %d, want 0 after cooperative prune", got)
	}
}
