package overlay

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"pgrid/internal/keyspace"
	"pgrid/internal/network"
	"pgrid/internal/replication"
)

// callCounter wraps a transport and counts, by message type, the requests
// the peer sends and the requests its handler serves.
type callCounter struct {
	network.Transport
	mu             sync.Mutex
	sent, received map[string]int
}

func newCallCounter(tr network.Transport) *callCounter {
	return &callCounter{Transport: tr, sent: map[string]int{}, received: map[string]int{}}
}

func (c *callCounter) Call(ctx context.Context, to network.Addr, req any) (any, error) {
	c.mu.Lock()
	c.sent[fmt.Sprintf("%T", req)]++
	c.mu.Unlock()
	return c.Transport.Call(ctx, to, req)
}

func (c *callCounter) Handle(h network.Handler) {
	c.Transport.Handle(func(ctx context.Context, from network.Addr, req any) (any, error) {
		c.mu.Lock()
		c.received[fmt.Sprintf("%T", req)]++
		c.mu.Unlock()
		return h(ctx, from, req)
	})
}

// counts returns how many requests of the type named typ were sent and
// received.
func (c *callCounter) counts(typ string) (sent, received int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sent[typ], c.received[typ]
}

// syncPair builds two replica peers of partition "" over a simulated
// network, with the initiator's transport call-counted.
func syncPair(t *testing.T, seed int64) (a, b *Peer, count *callCounter) {
	t.Helper()
	sim := network.NewSim(network.SimConfig{Seed: seed})
	cfg := Config{MaxKeys: 1 << 20, MinReplicas: 1, Seed: seed}
	count = newCallCounter(sim.Endpoint("a"))
	a = New(cfg, count)
	bcfg := cfg
	bcfg.Seed = seed + 1
	b = New(bcfg, sim.Endpoint("b"))
	a.AddReplica(b.Addr())
	b.AddReplica(a.Addr())
	return a, b, count
}

func fitem(x float64, v string) replication.Item {
	return replication.Item{Key: keyspace.MustFromFloat(x, 32), Value: v}
}

// storesEqual compares the two peers' logical store content.
func storesEqual(t *testing.T, a, b *Peer) bool {
	t.Helper()
	ha, na := a.Store().Digest(keyspace.Root)
	hb, nb := b.Store().Digest(keyspace.Root)
	return ha == hb && na == nb
}

// TestSyncReplicaInSteadyState checks the steady-state fast path: identical
// replicas exchange one pair of root-digest messages and nothing else.
func TestSyncReplicaInSteadyState(t *testing.T) {
	a, b, count := syncPair(t, 1)
	for i := 0; i < 100; i++ {
		it := fitem(float64(i)/100, fmt.Sprintf("v%d", i))
		a.Store().Add(it)
		b.Store().Add(it)
	}
	rep, err := a.SyncReplica(context.Background(), b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != SyncInSync || rep.Received != 0 {
		t.Fatalf("sync of identical replicas = %+v, want insync with nothing received", rep)
	}
	if got, _ := count.counts("overlay.DigestRequest"); got != 1 {
		t.Errorf("steady-state sync used %d digest rounds, want 1", got)
	}
	if got, _ := count.counts("overlay.DeltaRequest"); got != 0 {
		t.Errorf("steady-state sync used %d delta rounds, want 0", got)
	}
	// The whole exchange must cost a constant few hundred bytes, not the
	// O(items) of the legacy full-set protocol.
	if _, bytes := a.Bandwidth(); bytes > 1024 {
		t.Errorf("steady-state sync cost %.0f bytes for 100 items; digest exchange should be item-count independent", bytes)
	}
}

// TestSyncReplicaDigestWalkConverges checks first contact between diverged
// replicas: the digest walk must locate the differing buckets, exchange
// them bidirectionally, and leave both replicas identical — including
// propagating a delete against a stale live copy.
func TestSyncReplicaDigestWalkConverges(t *testing.T) {
	a, b, _ := syncPair(t, 2)
	for i := 0; i < 200; i++ {
		it := fitem(float64(i)/200, fmt.Sprintf("v%d", i))
		a.Store().Add(it)
		b.Store().Add(it)
	}
	a.Store().Insert(fitem(0.3001, "only-a"))
	b.Store().Insert(fitem(0.7001, "only-b"))
	b.Store().Delete(keyspace.MustFromFloat(0.25, 32), "v50") // delete a shared pair at b only

	rep, err := a.SyncReplica(context.Background(), b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != SyncWalk {
		t.Fatalf("first-contact sync kind = %q, want walk", rep.Kind)
	}
	if !storesEqual(t, a, b) {
		t.Fatal("replicas did not converge after digest walk")
	}
	if a.Store().Live(keyspace.MustFromFloat(0.25, 32), "v50") {
		t.Error("walk resurrected a deleted pair instead of propagating the tombstone")
	}
	if !a.Store().Live(keyspace.MustFromFloat(0.7001, 32), "only-b") ||
		!b.Store().Live(keyspace.MustFromFloat(0.3001, 32), "only-a") {
		t.Error("walk did not exchange the differing pairs in both directions")
	}
}

// TestSyncReplicaDeltaAfterBaseline checks the incremental path: once a
// baseline exists, a later sync ships exactly the changed pairs as one
// delta round trip, with no digest walk.
func TestSyncReplicaDeltaAfterBaseline(t *testing.T) {
	ctx := context.Background()
	a, b, count := syncPair(t, 3)
	for i := 0; i < 150; i++ {
		it := fitem(float64(i)/150, fmt.Sprintf("v%d", i))
		a.Store().Add(it)
		b.Store().Add(it)
	}
	if rep, err := a.SyncReplica(ctx, b.Addr()); err != nil || rep.Kind != SyncInSync {
		t.Fatalf("baseline sync: %v %+v", err, rep)
	}

	// Diverge on both sides: a insert, b insert + delete.
	a.Store().Insert(fitem(0.1234, "new-a"))
	b.Store().Insert(fitem(0.8765, "new-b"))
	b.Store().Delete(keyspace.MustFromFloat(10.0/150, 32), "v10")

	digests0, _ := count.counts("overlay.DigestRequest")
	deltas0, _ := count.counts("overlay.DeltaRequest")
	rep, err := a.SyncReplica(ctx, b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != SyncDelta {
		t.Fatalf("post-baseline sync kind = %q, want delta", rep.Kind)
	}
	if rep.Sent != 1 || rep.Received != 2 {
		t.Errorf("delta sync moved sent=%d received=%d pairs, want 1 and 2", rep.Sent, rep.Received)
	}
	if got, _ := count.counts("overlay.DigestRequest"); got-digests0 != 1 {
		t.Errorf("delta sync used %d digest rounds, want 1 (no walk)", got-digests0)
	}
	if got, _ := count.counts("overlay.DeltaRequest"); got-deltas0 != 1 {
		t.Errorf("delta sync used %d delta rounds, want 1", got-deltas0)
	}
	if !storesEqual(t, a, b) {
		t.Fatal("replicas did not converge after delta sync")
	}
	if a.Store().Live(keyspace.MustFromFloat(10.0/150, 32), "v10") {
		t.Error("delta sync resurrected a deleted pair")
	}
}

// TestDigestWalkRecursionBound drives the walk against maximally diverged
// replicas (fully disjoint content) and asserts the digest round count stays
// within the DigestDepth/width bound regardless of divergence.
func TestDigestWalkRecursionBound(t *testing.T) {
	a, b, count := syncPair(t, 4)
	for i := 0; i < 500; i++ {
		a.Store().Add(fitem(float64(2*i)/1000, fmt.Sprintf("a%d", i)))
		b.Store().Add(fitem(float64(2*i+1)/1000, fmt.Sprintf("b%d", i)))
	}
	rep, err := a.SyncReplica(context.Background(), b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != SyncWalk {
		t.Fatalf("sync kind = %q, want walk", rep.Kind)
	}
	maxRounds := replication.DigestDepth/digestWalkWidth + 2 // walk rounds + opening root round
	if got, _ := count.counts("overlay.DigestRequest"); got > maxRounds {
		t.Errorf("walk used %d digest rounds, bound is %d", got, maxRounds)
	}
	if !storesEqual(t, a, b) {
		t.Fatal("replicas did not converge")
	}
}

// TestStaleRejoinDoesNotResurrect is the delete→GC→rejoin property, in both
// sync directions: a replica that missed a delete and stayed away past the
// GC horizon must lose its stale live copy when it rejoins, not spread it.
func TestStaleRejoinDoesNotResurrect(t *testing.T) {
	for _, dir := range []string{"stale-initiates", "fresh-initiates"} {
		t.Run(dir, func(t *testing.T) {
			ctx := context.Background()
			sim := network.NewSim(network.SimConfig{Seed: 5})
			cfg := Config{MaxKeys: 1 << 20, MinReplicas: 1, TombstoneGCVersions: 8, Seed: 5}
			stale := New(cfg, sim.Endpoint("stale"))
			fresh := New(cfg, sim.Endpoint("fresh"))
			stale.AddReplica(fresh.Addr())
			fresh.AddReplica(stale.Addr())

			doomed := fitem(0.5, "doomed")
			for i := 0; i < 20; i++ {
				it := fitem(float64(i)/20, fmt.Sprintf("v%d", i))
				stale.Store().Add(it)
				fresh.Store().Add(it)
			}
			stale.Store().Add(doomed)
			fresh.Store().Add(doomed)
			// Baselines in both directions, then the stale peer goes away.
			if _, err := stale.SyncReplica(ctx, fresh.Addr()); err != nil {
				t.Fatal(err)
			}
			if _, err := fresh.SyncReplica(ctx, stale.Addr()); err != nil {
				t.Fatal(err)
			}

			// While the stale peer is gone: delete, keep writing, and let the
			// version-based GC horizon prune the tombstone.
			fresh.Store().Delete(doomed.Key, doomed.Value)
			for i := 0; i < 20; i++ {
				fresh.Store().Insert(fitem(0.9+float64(i)/1000, fmt.Sprintf("later%d", i)))
			}
			if fresh.Store().CompactTombstones() != 1 {
				t.Fatal("setup: tombstone not pruned")
			}
			if fresh.Store().GCFloor() == 0 {
				t.Fatal("setup: GC floor not set")
			}

			var rep SyncReport
			var err error
			if dir == "stale-initiates" {
				rep, err = stale.SyncReplica(ctx, fresh.Addr())
				if err != nil {
					t.Fatal(err)
				}
				if rep.Kind != SyncRebuildPull {
					t.Fatalf("stale initiator sync kind = %q, want rebuild-pull", rep.Kind)
				}
			} else {
				rep, err = fresh.SyncReplica(ctx, stale.Addr())
				if err != nil {
					t.Fatal(err)
				}
				if rep.Kind != SyncRebuildPush {
					t.Fatalf("fresh initiator sync kind = %q, want rebuild-push", rep.Kind)
				}
			}
			for _, p := range []*Peer{stale, fresh} {
				if p.Store().Live(doomed.Key, doomed.Value) {
					t.Fatalf("%s resurrected the deleted pair after GC + rejoin", p.Addr())
				}
			}
			if !storesEqual(t, stale, fresh) {
				t.Fatal("replicas did not converge after rebuild")
			}
			// Once rebuilt, the next sync must be cheap again.
			rep, err = stale.SyncReplica(ctx, fresh.Addr())
			if err != nil {
				t.Fatal(err)
			}
			if rep.Kind != SyncInSync {
				t.Errorf("post-rebuild sync kind = %q, want insync", rep.Kind)
			}
		})
	}
}

// TestReinsertAfterGCPropagates checks the other GC edge: when the pair is
// deliberately re-inserted after its tombstone was pruned on one replica but
// not the other, the coordinator-style re-stamp plus sync must end with the
// pair live everywhere (delete happened strictly before the re-insert).
func TestReinsertAfterGCPropagates(t *testing.T) {
	ctx := context.Background()
	a, b, _ := syncPair(t, 6)
	a.Store().SetGCPolicy(replication.GCPolicy{MinVersions: 4})

	pair := fitem(0.5, "phoenix")
	for i := 0; i < 10; i++ {
		it := fitem(float64(i)/10, fmt.Sprintf("v%d", i))
		a.Store().Add(it)
		b.Store().Add(it)
	}
	if _, err := a.SyncReplica(ctx, b.Addr()); err != nil {
		t.Fatal(err)
	}

	// Delete everywhere with one stamp, then prune only at a.
	stamp := a.Store().DeleteStamped(pair.Key, pair.Value, 0)
	b.Store().AddTombstones([]replication.Item{stamp})
	for i := 0; i < 6; i++ {
		a.Store().Insert(fitem(0.05+float64(i)/100, fmt.Sprintf("fill%d", i)))
	}
	if a.Store().CompactTombstones() != 1 {
		t.Fatal("setup: tombstone not pruned at a")
	}

	// Re-insert at a (which forgot the tombstone). The stamp restarts low,
	// so the sync with b — still holding the tombstone — must resolve via
	// the generation rules without the delete winning.
	a.Store().Insert(pair)
	restamped := a.Store().Insert(replication.Item{Key: pair.Key, Value: pair.Value, Gen: stamp.Gen + 1})
	if restamped.Gen <= stamp.Gen {
		t.Fatalf("re-stamp %d did not clear the tombstone generation %d", restamped.Gen, stamp.Gen)
	}
	if _, err := a.SyncReplica(ctx, b.Addr()); err != nil {
		t.Fatal(err)
	}
	if !a.Store().Live(pair.Key, pair.Value) || !b.Store().Live(pair.Key, pair.Value) {
		t.Fatal("deliberate re-insert after GC did not end up live on both replicas")
	}
}

// TestMaintainTickUsesDigestProtocol checks the loop integration: a peer's
// tick reports a digest-protocol sync kind.
func TestMaintainTickUsesDigestProtocol(t *testing.T) {
	a, _, _ := syncPair(t, 7)
	a.Store().Add(fitem(0.25, "x"))
	rep := a.MaintainTick(context.Background(), MaintenanceOptions{})
	if rep.Sync != SyncWalk && rep.Sync != SyncInSync && rep.Sync != SyncDelta {
		t.Errorf("tick sync kind = %q, want a digest-protocol kind", rep.Sync)
	}
}

// TestMaintainTickPrunesTombstones checks that the tick drives the GC and
// reports the prune.
func TestMaintainTickPrunesTombstones(t *testing.T) {
	ctx := context.Background()
	sim := network.NewSim(network.SimConfig{Seed: 8})
	cfg := Config{MaxKeys: 1 << 20, MinReplicas: 1, TombstoneGCVersions: 2, Seed: 8}
	p := New(cfg, sim.Endpoint("p"))
	p.Store().Insert(fitem(0.5, "x"))
	p.Store().Delete(keyspace.MustFromFloat(0.5, 32), "x")
	for i := 0; i < 4; i++ {
		p.Store().Insert(fitem(0.1+float64(i)/100, fmt.Sprintf("f%d", i)))
	}
	rep := p.MaintainTick(ctx, MaintenanceOptions{})
	if rep.TombstonesPruned != 1 {
		t.Errorf("tick pruned %d tombstones, want 1", rep.TombstonesPruned)
	}
	if p.Counts()[TombstonesPruned] != 1 {
		t.Errorf("prune not counted in metrics")
	}
	if p.Store().TombstoneCount() != 0 {
		t.Errorf("tombstone survived the tick's GC")
	}
}

// TestHandleDeltaClockPredatesMerge pins the responder-side clock contract:
// the clock in a DeltaResponse must be captured before the responder merges
// the initiator's pushed content (and before the content snapshot), so a
// concurrent write landing in that window stays above the initiator's
// recorded baseline and is delivered by the next delta instead of being
// skipped forever.
func TestHandleDeltaClockPredatesMerge(t *testing.T) {
	_, b, _ := syncPair(t, 30)
	for i := 0; i < 10; i++ {
		b.Store().Add(fitem(float64(i)/10, fmt.Sprintf("v%d", i)))
	}
	pre := b.Store().Clock()
	resp := b.handleDelta(DeltaRequest{
		From: "a", Path: "", Clock: 99, Since: pre,
		Items: []replication.Item{fitem(0.91, "pushed-1"), fitem(0.93, "pushed-2")},
	})
	if resp.Incomparable {
		t.Fatal("delta refused unexpectedly")
	}
	if resp.Applied != 2 {
		t.Fatalf("applied %d pushed items, want 2", resp.Applied)
	}
	if resp.Clock > pre {
		t.Fatalf("responder reported clock %d after merging (pre-merge clock %d): a concurrent write in that window would be lost from all future deltas", resp.Clock, pre)
	}
}

// TestBaselineSurvivesTransientRemove pins the baseline-retention contract:
// a replica dropped for a transient call failure and re-discovered must not
// look like an incomparable first contact — with GC history that would
// force a destructive rebuild of a peer that was never actually stale.
func TestBaselineSurvivesTransientRemove(t *testing.T) {
	ctx := context.Background()
	a, b, _ := syncPair(t, 31)
	for i := 0; i < 20; i++ {
		it := fitem(float64(i)/20, fmt.Sprintf("v%d", i))
		a.Store().Add(it)
		b.Store().Add(it)
	}
	if _, err := a.SyncReplica(ctx, b.Addr()); err != nil {
		t.Fatal(err)
	}
	st := a.syncStateOf(b.Addr())
	if st.theirs == 0 {
		t.Fatal("setup: no baseline recorded")
	}
	a.removeReplica(b.Addr())
	if got := a.syncStateOf(b.Addr()); got != st {
		t.Fatalf("baseline lost on transient replica removal: %+v != %+v", got, st)
	}
	a.AddReplica(b.Addr())
	b.Store().Insert(fitem(0.805, "post-remove"))
	rep, err := a.SyncReplica(ctx, b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != SyncDelta {
		t.Errorf("sync after re-discovery kind = %q, want delta (baseline kept)", rep.Kind)
	}
}

// TestFirstContactWithGCHistoryMergesNotReplaces pins the data-loss guard:
// meeting a replica for the first time proves nothing about its staleness,
// so even a peer with GC history must walk-merge — not wholesale-replace
// the other side's content, which could destroy quorum-acked writes the
// newcomer never had a chance to sync out.
func TestFirstContactWithGCHistoryMergesNotReplaces(t *testing.T) {
	ctx := context.Background()
	a, b, _ := syncPair(t, 32)
	a.Store().SetGCPolicy(replication.GCPolicy{MinVersions: 1})
	for i := 0; i < 20; i++ {
		it := fitem(float64(i)/20, fmt.Sprintf("v%d", i))
		a.Store().Add(it)
		b.Store().Add(it)
	}
	// Give a a GC history (floor > 0) without b ever syncing.
	a.Store().Delete(fkeyAt(0.31), "v6")
	a.Store().Insert(fitem(0.32, "churn"))
	if a.Store().CompactTombstones() == 0 || a.Store().GCFloor() == 0 {
		t.Fatal("setup: no GC history")
	}
	// b holds a write a must not destroy.
	b.Store().Insert(fitem(0.755, "acked-only-on-b"))

	rep, err := a.SyncReplica(ctx, b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind == SyncRebuildPush || rep.Kind == SyncRebuildPull {
		t.Fatalf("first contact used destructive %q; want a merge", rep.Kind)
	}
	if !a.Store().Live(fkeyAt(0.755), "acked-only-on-b") || !b.Store().Live(fkeyAt(0.755), "acked-only-on-b") {
		t.Fatal("first-contact sync lost the newcomer's write")
	}
}

// fkeyAt mirrors fitem's key construction for assertions.
func fkeyAt(x float64) keyspace.Key { return keyspace.MustFromFloat(x, 32) }

// TestDigestWalkTransfersShortKeys pins the zero-padded bucket membership:
// a pair held only by the responder whose key is shorter than every
// child-bucket depth of the walk (here 3 bits, below even the first 4-bit
// round) must still land in exactly one bucket on both sides and be
// transferred — without the padding rule the responder's child digests all
// match, the walk finds nothing, and the replicas stay divergent forever.
// The pair's bucket is crowded well past the leaf limit so early
// leaf-transfer cannot mask the bug.
func TestDigestWalkTransfersShortKeys(t *testing.T) {
	ctx := context.Background()
	a, b, _ := syncPair(t, 34)
	for i := 0; i < 80; i++ {
		it := fitem(float64(i)/80, fmt.Sprintf("v%d", i))
		a.Store().Add(it)
		b.Store().Add(it)
	}
	// Crowd the "0100" bucket (keys in [0.25, 0.28125)) past digestLeafLimit.
	for i := 0; i < 2*digestLeafLimit; i++ {
		it := fitem(0.25+0.03*float64(i)/float64(2*digestLeafLimit), fmt.Sprintf("crowd%d", i))
		a.Store().Add(it)
		b.Store().Add(it)
	}
	for _, shortKey := range []string{"010", "010101"} {
		short := replication.Item{Key: keyspace.MustFromString(shortKey), Value: "short-" + shortKey}
		b.Store().Insert(short)
		if _, err := a.SyncReplica(ctx, b.Addr()); err != nil {
			t.Fatal(err)
		}
		if !a.Store().Live(short.Key, short.Value) {
			t.Fatalf("digest walk failed to transfer responder-only pair with %d-bit key", len(shortKey))
		}
		if !storesEqual(t, a, b) {
			t.Fatalf("replicas did not converge with a %d-bit key in play", len(shortKey))
		}
	}
}

// TestRebuildPushPreservesReplicaDelta pins the data-preservation order of
// a rebuild-push: before wholesale-replacing a replica that missed the GC
// window, the initiator pulls the replica's still-comparable delta, so a
// fresh quorum-acked write held only by that replica survives the rebuild.
func TestRebuildPushPreservesReplicaDelta(t *testing.T) {
	ctx := context.Background()
	sim := network.NewSim(network.SimConfig{Seed: 35})
	cfg := Config{MaxKeys: 1 << 20, MinReplicas: 1, TombstoneGCVersions: 8, Seed: 35}
	a := New(cfg, sim.Endpoint("a35"))
	b := New(cfg, sim.Endpoint("b35"))
	a.AddReplica(b.Addr())
	b.AddReplica(a.Addr())
	doomed := fitem(0.5, "doomed")
	for i := 0; i < 20; i++ {
		it := fitem(float64(i)/20, fmt.Sprintf("v%d", i))
		a.Store().Add(it)
		b.Store().Add(it)
	}
	a.Store().Add(doomed)
	b.Store().Add(doomed)
	if _, err := a.SyncReplica(ctx, b.Addr()); err != nil {
		t.Fatal(err)
	}
	// b accepts a fresh write only it holds; meanwhile a deletes a pair,
	// churns past the version horizon, and prunes the tombstone.
	fresh := fitem(0.815, "acked-only-on-b")
	b.Store().Insert(fresh)
	a.Store().Delete(doomed.Key, doomed.Value)
	for i := 0; i < 12; i++ {
		a.Store().Insert(fitem(0.9+float64(i)/1000, fmt.Sprintf("churn%d", i)))
	}
	if a.Store().CompactTombstones() == 0 {
		t.Fatal("setup: tombstone not pruned")
	}
	rep, err := a.SyncReplica(ctx, b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != SyncRebuildPush {
		t.Fatalf("sync kind = %q, want rebuild-push", rep.Kind)
	}
	if !a.Store().Live(fresh.Key, fresh.Value) || !b.Store().Live(fresh.Key, fresh.Value) {
		t.Fatal("rebuild-push destroyed the replica's fresh quorum-acked write")
	}
	if a.Store().Live(doomed.Key, doomed.Value) || b.Store().Live(doomed.Key, doomed.Value) {
		t.Fatal("pruned delete resurrected by the pre-rebuild delta pull")
	}
	if !storesEqual(t, a, b) {
		t.Fatal("replicas did not converge after rebuild-push")
	}
}
