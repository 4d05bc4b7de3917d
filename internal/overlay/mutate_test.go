package overlay

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"pgrid/internal/keyspace"
	"pgrid/internal/network"
	"pgrid/internal/replication"
	"pgrid/internal/workload"
)

// twoPartitionCluster builds a hand-wired overlay with one peer on "0" and
// two mutually replicating peers on "1", which is the smallest topology that
// exercises routing plus replica fan-out.
func twoPartitionCluster(t *testing.T, seed int64, quorum int) (sim *network.Sim, origin, r1, r2 *Peer) {
	t.Helper()
	sim = network.NewSim(network.SimConfig{Seed: seed})
	cfg := Config{MaxKeys: 100, MinReplicas: 1, WriteQuorum: quorum, Seed: seed}
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
	return sim, origin, r1, r2
}

func TestInsertRoutedToAllReplicas(t *testing.T) {
	_, origin, r1, r2 := twoPartitionCluster(t, 50, 2)
	ctx := context.Background()
	key := keyspace.MustFromString("1100")

	res, err := origin.Insert(ctx, replication.Item{Key: key, Value: "fresh"})
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	if res.Acks < 2 {
		t.Errorf("acks = %d, want >= 2 (responsible peer + replica)", res.Acks)
	}
	if res.Hops != 1 {
		t.Errorf("hops = %d, want 1", res.Hops)
	}
	for _, p := range []*Peer{r1, r2} {
		if got := p.Store().Lookup(key); len(got) != 1 || got[0].Value != "fresh" {
			t.Errorf("replica %s items = %v, want the inserted item", p.Addr(), got)
		}
	}
	// The origin must not hold a copy: the write belongs to partition "1".
	if got := origin.Store().Lookup(key); len(got) != 0 {
		t.Errorf("origin should not store the item, got %v", got)
	}
	// Read-your-write through the overlay.
	qres, err := origin.Query(ctx, key)
	if err != nil || len(qres.Items) != 1 {
		t.Errorf("query after insert: %v %v", qres.Items, err)
	}
}

func TestInsertLocallyResponsibleNoRouting(t *testing.T) {
	_, _, r1, r2 := twoPartitionCluster(t, 51, 2)
	ctx := context.Background()
	key := keyspace.MustFromString("1010")
	res, err := r1.Insert(ctx, replication.Item{Key: key, Value: "local"})
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	if res.Hops != 0 {
		t.Errorf("hops = %d, want 0 for a locally responsible write", res.Hops)
	}
	if res.Responsible != r1.Addr() {
		t.Errorf("responsible = %s, want %s", res.Responsible, r1.Addr())
	}
	if got := r2.Store().Lookup(key); len(got) != 1 {
		t.Errorf("fan-out missed the replica: %v", got)
	}
}

func TestDeleteNeverReturnedAfterQuorumAck(t *testing.T) {
	_, origin, r1, r2 := twoPartitionCluster(t, 52, 2)
	ctx := context.Background()
	key := keyspace.MustFromString("1110")
	if _, err := origin.Insert(ctx, replication.Item{Key: key, Value: "doomed"}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	res, err := origin.Delete(ctx, key, "doomed")
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	if res.Acks < 2 {
		t.Errorf("delete acks = %d, want >= 2", res.Acks)
	}
	// No peer may ever return the pair again.
	if qres, err := origin.Query(ctx, key); err == nil && len(qres.Items) != 0 {
		t.Errorf("deleted item still returned: %v", qres.Items)
	}
	// Anti-entropy between the replicas must not resurrect it.
	if _, err := r1.SyncReplica(ctx, r2.Addr()); err != nil {
		t.Fatalf("anti-entropy: %v", err)
	}
	for _, p := range []*Peer{r1, r2} {
		if got := p.Store().Lookup(key); len(got) != 0 {
			t.Errorf("replica %s resurrected the deleted item: %v", p.Addr(), got)
		}
	}
}

// TestDeleteAfterReinsertSurvivesStaleReplica is the regression test for
// the delete → re-insert → delete sequence with a replica that slept through
// the middle write: the second delete's fan-out carries the coordinator's
// generation stamp, so when the stale replica reconciles with one that holds
// the (now superseded) re-insert, the delete still wins everywhere.
func TestDeleteAfterReinsertSurvivesStaleReplica(t *testing.T) {
	sim, origin, r1, r2 := twoPartitionCluster(t, 59, 1)
	ctx := context.Background()
	key := keyspace.MustFromString("1101")

	// Delete 1 reaches both replicas, then r2 churns out.
	if _, err := origin.Insert(ctx, replication.Item{Key: key, Value: "v"}); err != nil {
		t.Fatal(err)
	}
	if _, err := origin.Delete(ctx, key, "v"); err != nil {
		t.Fatal(err)
	}
	sim.SetOnline(r2.Addr(), false)
	// Re-insert and delete again while r2 is away; r2's tombstone history is
	// now one write behind.
	if _, err := origin.Insert(ctx, replication.Item{Key: key, Value: "v"}); err != nil {
		t.Fatal(err)
	}
	if !r1.Store().Live(key, "v") {
		t.Fatal("setup: re-insert did not reach r1")
	}
	// r2 returns (tombstone history one write behind) and takes part in
	// delete 2 — whether as coordinator or via the Direct fan-out leg, the
	// stamp it ends up with must order above r1's re-insert.
	sim.SetOnline(r2.Addr(), true)
	if _, err := origin.Delete(ctx, key, "v"); err != nil {
		t.Fatal(err)
	}

	// Reconciliation in both directions must leave the pair deleted
	// everywhere — the stale replica's old tombstone must not lose to a
	// resurrected copy, nor resurrect one itself.
	if _, err := r2.SyncReplica(ctx, r1.Addr()); err != nil {
		t.Fatal(err)
	}
	if _, err := r1.SyncReplica(ctx, r2.Addr()); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Peer{r1, r2} {
		if p.Store().Live(key, "v") {
			t.Errorf("replica %s resurrected a quorum-acked delete", p.Addr())
		}
	}
	if qres, err := origin.Query(ctx, key); err == nil && len(qres.Items) != 0 {
		t.Errorf("query returned the deleted pair: %v", qres.Items)
	}
}

// TestInsertByStaleCoordinatorRestamps is the regression test for a write
// coordinated by a replica that missed an earlier delete: its first stamp
// ties the remote tombstone and is refused, and the coordinator must re-stamp
// above the reported generation so the acknowledged write survives
// reconciliation instead of being silently destroyed.
func TestInsertByStaleCoordinatorRestamps(t *testing.T) {
	_, _, r1, r2 := twoPartitionCluster(t, 60, 2)
	ctx := context.Background()
	key := keyspace.MustFromString("1010")
	// r2 holds a tombstone for the pair that r1 (the future coordinator)
	// never saw.
	r2.Store().Delete(key, "v")

	res, err := r1.Insert(ctx, replication.Item{Key: key, Value: "v"})
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	if res.Acks < 2 {
		t.Fatalf("acks = %d, want 2 — the re-stamped retry must win at the tombstone holder", res.Acks)
	}
	for _, p := range []*Peer{r1, r2} {
		if !p.Store().Live(key, "v") {
			t.Errorf("pair not live at %s after re-stamped insert", p.Addr())
		}
	}
	// Reconciliation must not undo the acknowledged write.
	if _, err := r2.SyncReplica(ctx, r1.Addr()); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Peer{r1, r2} {
		if !p.Store().Live(key, "v") {
			t.Errorf("anti-entropy destroyed the acknowledged write at %s", p.Addr())
		}
	}
}

// TestDuplicateMutationNotRecoordinated: the α-race can deliver the same
// routed mutation to more than one responsible peer; a duplicate recognised
// by its ID must not be coordinated again (a late duplicate delete would
// otherwise stamp a tombstone above a newer acknowledged re-insert).
func TestDuplicateMutationNotRecoordinated(t *testing.T) {
	_, _, r1, r2 := twoPartitionCluster(t, 61, 1)
	ctx := context.Background()
	key := keyspace.MustFromString("1001")

	del := DeleteRequest{Key: key, Value: "v", ID: 42, TTL: 8}
	if resp := r1.handleDelete(ctx, del); !resp.Found {
		t.Fatal("first delete not coordinated")
	}
	// The pair is re-inserted (new generation) after the delete was acked.
	if _, err := r1.Insert(ctx, replication.Item{Key: key, Value: "v"}); err != nil {
		t.Fatal(err)
	}
	genBefore := r1.Store().PairGen(key, "v")
	// A late duplicate of the old delete arrives — at the original
	// coordinator and at its replica (which learned the ID from the Direct
	// fan-out leg). Neither may re-coordinate it.
	for _, p := range []*Peer{r1, r2} {
		p.handleDelete(ctx, del)
		if !p.Store().Live(key, "v") {
			t.Fatalf("duplicate delete destroyed the newer write at %s", p.Addr())
		}
	}
	if gen := r1.Store().PairGen(key, "v"); gen != genBefore {
		t.Errorf("duplicate delete changed the pair's generation: %d -> %d", genBefore, gen)
	}
}

func TestMutationQuorumFailure(t *testing.T) {
	sim, origin, r1, r2 := twoPartitionCluster(t, 53, 3)
	ctx := context.Background()
	key := keyspace.MustFromString("1011")
	// Only two peers serve partition "1": a quorum of 3 cannot be met even
	// with everything online. Take r2 offline to also exercise the replica
	// drop.
	sim.SetOnline(r2.Addr(), false)
	res, err := origin.Insert(ctx, replication.Item{Key: key, Value: "lonely"})
	if !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("err = %v, want ErrNoQuorum", err)
	}
	if res.Acks != 1 {
		t.Errorf("acks = %d, want 1 (responsible peer only)", res.Acks)
	}
	// The write is still applied where it landed.
	if got := r1.Store().Lookup(key); len(got) != 1 {
		t.Errorf("responsible peer should hold the item despite the missed quorum: %v", got)
	}
	// The unreachable replica was dropped from the replica set.
	if n := len(r1.Replicas()); n != 0 {
		t.Errorf("replica set after failed fan-out = %d entries, want 0", n)
	}
}

func TestMutationOnUnbuiltOverlayFails(t *testing.T) {
	sim := network.NewSim(network.SimConfig{Seed: 54})
	cfg := Config{Seed: 54}
	a := New(cfg, sim.Endpoint("A"))
	b := New(cfg, sim.Endpoint("B"))
	_ = b
	a.Table().SetPath("0")
	// No references at all: a write into the foreign partition cannot route.
	key := keyspace.MustFromString("1000")
	if _, err := a.Insert(context.Background(), replication.Item{Key: key, Value: "x"}); err == nil {
		t.Error("insert without a route should fail")
	}
	if _, err := a.Delete(context.Background(), key, "x"); err == nil {
		t.Error("delete without a route should fail")
	}
}

func TestMaintainTickAntiEntropyConvergesReplicas(t *testing.T) {
	_, _, r1, r2 := twoPartitionCluster(t, 55, 1)
	ctx := context.Background()
	key := keyspace.MustFromString("1001")
	// Write lands only on r1 (r2 is not consulted: quorum 1 still fans out,
	// so bypass the fan-out by writing to the store directly, simulating a
	// replica that missed the write entirely).
	r1.Store().Insert(replication.Item{Key: key, Value: "late"})
	r1.Store().Delete(keyspace.MustFromString("1111"), "ghost")
	r2.Store().Add(replication.Item{Key: keyspace.MustFromString("1111"), Value: "ghost"})

	rep := r2.MaintainTick(ctx, MaintenanceOptions{})
	if rep.Replica == "" {
		t.Fatal("maintenance tick should have run anti-entropy with a replica")
	}
	if got := r2.Store().Lookup(key); len(got) != 1 {
		t.Errorf("anti-entropy did not deliver the missed write: %v", got)
	}
	// A second tick from r1 pulls the tombstone the other way; after both
	// directions ran, the ghost pair is gone everywhere.
	r1.MaintainTick(ctx, MaintenanceOptions{})
	for _, p := range []*Peer{r1, r2} {
		if got := p.Store().Lookup(keyspace.MustFromString("1111")); len(got) != 0 {
			t.Errorf("peer %s still holds the deleted pair: %v", p.Addr(), got)
		}
	}
}

func TestMaintainTickPrunesDeadRef(t *testing.T) {
	sim, origin, r1, _ := twoPartitionCluster(t, 56, 1)
	ctx := context.Background()
	sim.SetOnline(r1.Addr(), false)
	pruned := false
	for i := 0; i < 8 && !pruned; i++ {
		rep := origin.MaintainTick(ctx, MaintenanceOptions{Probes: 2})
		pruned = rep.RefsPruned > 0
	}
	if !pruned {
		t.Fatal("maintenance never pruned the dead reference")
	}
	for _, ref := range origin.Table().Refs(0) {
		if ref.Addr == r1.Addr() {
			t.Error("dead reference still present after pruning")
		}
	}
}

func TestMaintainTickRediscoversReplica(t *testing.T) {
	_, _, r1, r2 := twoPartitionCluster(t, 57, 1)
	ctx := context.Background()
	key := keyspace.MustFromString("1010")
	r1.Store().Insert(replication.Item{Key: key, Value: "anchor"})
	r2.Store().Insert(replication.Item{Key: key, Value: "anchor"})
	// r1 forgets its replicas (as happens after a split).
	r1.removeReplica(r2.Addr())
	if len(r1.Replicas()) != 0 {
		t.Fatal("setup: replica set should be empty")
	}
	// Discovery bounces the lookup off a peer outside the partition; which
	// replica answers is raced, so allow a few ticks.
	discovered := false
	for i := 0; i < 20 && !discovered; i++ {
		rep := r1.MaintainTick(ctx, MaintenanceOptions{})
		discovered = rep.ReplicaDiscovered
	}
	if !discovered {
		t.Fatal("maintenance should have re-discovered a replica by routed self-lookup")
	}
	found := false
	for _, a := range r1.Replicas() {
		if a == r2.Addr() {
			found = true
		}
	}
	if !found {
		t.Errorf("replica set after discovery = %v, want to contain %s", r1.Replicas(), r2.Addr())
	}
}

// TestLiveMutationsConvergeUnderChurn is the end-to-end convergence check of
// the mutation subsystem: after Build, writes are routed while a slice of
// the peers is offline; when they come back, maintenance ticks alone (no
// re-Build) must spread every insert to every online responsible peer and
// must never resurrect a deleted item.
func TestLiveMutationsConvergeUnderChurn(t *testing.T) {
	cfg := Config{MaxKeys: 20, MinReplicas: 3, DoneAfterIdle: 3, MaxRefs: 4, WriteQuorum: 1}
	c := newTestCluster(t, 32, 10, workload.Uniform{}, cfg, 57)
	c.replicateAll(t)
	c.construct(t, 60)
	ctx := context.Background()

	// A quarter of the peers churn out before the writes happen.
	offline := map[int]bool{}
	for len(offline) < len(c.peers)/4 {
		offline[c.rng.Intn(len(c.peers))] = true
	}
	for idx := range offline {
		c.sim.SetOnline(c.peers[idx].Addr(), false)
	}

	// Routed inserts and deletes from random online origins.
	var onlineIdx []int
	for i := range c.peers {
		if !offline[i] {
			onlineIdx = append(onlineIdx, i)
		}
	}
	type write struct {
		key keyspace.Key
		val string
	}
	var inserted, deleted []write
	existing := c.allItems()
	for i := 0; i < 20; i++ {
		key := keyspace.MustFromFloat(float64(i)/20+0.013, keyspace.DefaultDepth)
		w := write{key: key, val: fmt.Sprintf("live-%d", i)}
		origin := c.peers[onlineIdx[c.rng.Intn(len(onlineIdx))]]
		if _, err := origin.Insert(ctx, replication.Item{Key: w.key, Value: w.val}); err != nil && !errors.Is(err, ErrNoQuorum) {
			t.Fatalf("insert %d: %v", i, err)
		}
		inserted = append(inserted, w)
	}
	for i := 0; i < 8; i++ {
		it := existing[c.rng.Intn(len(existing))]
		origin := c.peers[onlineIdx[c.rng.Intn(len(onlineIdx))]]
		if _, err := origin.Delete(ctx, it.Key, it.Value); err != nil && !errors.Is(err, ErrNoQuorum) {
			t.Fatalf("delete %d: %v", i, err)
		}
		deleted = append(deleted, write{key: it.Key, val: it.Value})
	}

	// Churned peers come back with stale state; maintenance must reconcile
	// them without a re-Build.
	for idx := range offline {
		c.sim.SetOnline(c.peers[idx].Addr(), true)
	}
	converged := false
	for round := 0; round < 40 && !converged; round++ {
		for _, p := range c.peers {
			p.MaintainTick(ctx, MaintenanceOptions{Probes: 1})
		}
		converged = true
		for _, w := range inserted {
			for _, p := range c.peers {
				if p.Table().Responsible(w.key) && len(p.Store().Lookup(w.key)) == 0 {
					converged = false
				}
			}
		}
	}
	if !converged {
		t.Error("inserts did not reach every responsible peer after 40 maintenance rounds")
	}
	// Deleted pairs must be gone from every responsible peer and must never
	// be returned by a query — resurrecting one via anti-entropy would be
	// the classic delete/repair bug. (Orphan copies at non-responsible peers
	// are invisible to routing and are not reachable by partition-scoped
	// anti-entropy; they are not resurrection.)
	for _, w := range deleted {
		for _, p := range c.peers {
			if !p.Table().Responsible(w.key) {
				continue
			}
			for _, it := range p.Store().Lookup(w.key) {
				if it.Value == w.val {
					t.Errorf("responsible peer %s resurrected deleted pair %s/%s", p.Addr(), w.key, w.val)
				}
			}
		}
		for i := 0; i < 4; i++ {
			origin := c.peers[c.rng.Intn(len(c.peers))]
			if res, err := origin.Query(ctx, w.key); err == nil {
				for _, it := range res.Items {
					if it.Value == w.val {
						t.Errorf("query returned deleted pair %s/%s", w.key, w.val)
					}
				}
			}
		}
	}
	// And reads after convergence see the inserts.
	okReads := 0
	for _, w := range inserted {
		origin := c.peers[c.rng.Intn(len(c.peers))]
		if res, err := origin.Query(ctx, w.key); err == nil {
			for _, it := range res.Items {
				if it.Value == w.val {
					okReads++
					break
				}
			}
		}
	}
	if okReads < len(inserted)*8/10 {
		t.Errorf("only %d/%d inserted items readable after convergence", okReads, len(inserted))
	}
}
