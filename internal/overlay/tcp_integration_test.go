package overlay

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"pgrid/internal/keyspace"
	"pgrid/internal/network"
	"pgrid/internal/replication"
)

// TestOverlayOverTCP runs the construction protocol and queries over the
// real TCP transport, exercising the same code path as cmd/pgridnode.
func TestOverlayOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp integration test")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	cfg := Config{MaxKeys: 4, MinReplicas: 1, Seed: 1}
	var peers []*Peer
	for i := 0; i < 3; i++ {
		ep, err := network.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		pcfg := cfg
		pcfg.Seed = int64(i + 1)
		peers = append(peers, New(pcfg, ep))
	}
	// Load distinct uniform items on every peer, remembering each peer's
	// own original items for the replication phase.
	own := make([][]replication.Item, len(peers))
	for i, p := range peers {
		for k := 0; k < 8; k++ {
			own[i] = append(own[i], replication.Item{
				Key:   keyspace.MustFromFloat(float64(i*8+k)/24.0, 32),
				Value: fmt.Sprintf("tcp-item-%d-%d", i, k),
			})
		}
		p.AddItems(own[i])
	}
	// Pre-construction replication phase: each peer replicates its own
	// items to its ring successor (MinReplicas = 1).
	for i, p := range peers {
		target := peers[(i+1)%len(peers)].Addr()
		if err := p.ReplicateItems(ctx, own[i], []network.Addr{target}); err != nil {
			t.Fatalf("replicate over tcp: %v", err)
		}
	}
	// Peers 1 and 2 interact with peer 0 over TCP until the partitions form.
	for round := 0; round < 12; round++ {
		for i := 1; i < 3; i++ {
			if _, err := peers[i].Interact(ctx, peers[0].Addr()); err != nil {
				t.Fatalf("interact over tcp: %v", err)
			}
		}
		if peers[0].Path().Depth() > 0 && peers[1].Path().Depth() > 0 && peers[2].Path().Depth() > 0 {
			break
		}
	}
	split := false
	for _, p := range peers {
		if p.Path().Depth() > 0 {
			split = true
		}
	}
	if !split {
		t.Error("no peer extended its path over the TCP transport")
	}
	// Query every original key from peer 2: routing over TCP should locate
	// most of them (items can only be missed when they were orphaned at a
	// peer whose partition no longer covers them).
	found := 0
	for i := 0; i < 24; i++ {
		key := keyspace.MustFromFloat(float64(i)/24.0, 32)
		res, err := peers[2].Query(ctx, key)
		if err == nil && len(res.Items) > 0 {
			found++
		}
	}
	if found < 10 {
		t.Errorf("only %d of 24 items located over the TCP transport", found)
	}
}

// TestMutationsAndBatchOverTCP drives the live mutation subsystem and batch
// queries end-to-end over the real TCP transport: a routed Insert with
// quorum-ack across both replicas of the responsible partition, a QueryBatch
// spanning both partitions, a routed Delete, and an anti-entropy round that
// must not resurrect the deleted pair.
func TestMutationsAndBatchOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp integration test")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	cfg := Config{MaxKeys: 100, MinReplicas: 1, WriteQuorum: 2}
	var peers []*Peer
	for i := 0; i < 3; i++ {
		ep, err := network.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		pcfg := cfg
		pcfg.Seed = int64(60 + i)
		peers = append(peers, New(pcfg, ep))
	}
	origin, r1, r2 := peers[0], peers[1], peers[2]
	origin.Table().SetPath("0")
	r1.Table().SetPath("1")
	r2.Table().SetPath("1")
	origin.Table().Add(0, refFor(r1))
	origin.Table().Add(0, refFor(r2))
	r1.Table().Add(0, refFor(origin))
	r2.Table().Add(0, refFor(origin))
	r1.AddReplica(r2.Addr())
	r2.AddReplica(r1.Addr())

	ownKey := keyspace.MustFromString("0100")
	origin.AddItems([]replication.Item{{Key: ownKey, Value: "local"}})

	// Routed insert over TCP: must reach both replicas of partition "1".
	key := keyspace.MustFromString("1100")
	res, err := origin.Insert(ctx, replication.Item{Key: key, Value: "tcp-live"})
	if err != nil {
		t.Fatalf("insert over tcp: %v", err)
	}
	if res.Acks < 2 {
		t.Errorf("insert acks over tcp = %d, want >= 2", res.Acks)
	}
	for _, p := range []*Peer{r1, r2} {
		if got := p.Store().Lookup(key); len(got) != 1 || got[0].Value != "tcp-live" {
			t.Errorf("replica %s missed the routed insert: %v", p.Addr(), got)
		}
	}

	// Batch query spanning both partitions, served over the wire codec.
	results := origin.QueryBatch(ctx, []keyspace.Key{ownKey, key})
	if results[0].Err != nil || len(results[0].Items) != 1 || results[0].Items[0].Value != "local" {
		t.Errorf("batch key 0: %+v", results[0])
	}
	if results[1].Err != nil || len(results[1].Items) != 1 || results[1].Items[0].Value != "tcp-live" {
		t.Errorf("batch key 1: %+v", results[1])
	}

	// Routed delete over TCP: tombstoned at both replicas, and an
	// anti-entropy round between them must not bring the pair back.
	dres, err := origin.Delete(ctx, key, "tcp-live")
	if err != nil {
		t.Fatalf("delete over tcp: %v", err)
	}
	if dres.Acks < 2 {
		t.Errorf("delete acks over tcp = %d, want >= 2", dres.Acks)
	}
	if _, err := r1.SyncReplica(ctx, r2.Addr()); err != nil {
		t.Fatalf("anti-entropy over tcp: %v", err)
	}
	for _, p := range []*Peer{r1, r2} {
		if got := p.Store().Lookup(key); len(got) != 0 {
			t.Errorf("replica %s resurrected the deleted pair over tcp: %v", p.Addr(), got)
		}
	}
	if qres, err := origin.Query(ctx, key); err == nil && len(qres.Items) != 0 {
		t.Errorf("deleted pair still returned over tcp: %v", qres.Items)
	}
}

// TestDeltaSyncOverTCP drives the digest/delta anti-entropy protocol
// end-to-end over the real TCP transport: a first-contact digest walk, a
// steady-state in-sync round, an exact delta after divergence (including a
// tombstone), and a post-GC stale rejoin that must rebuild instead of
// resurrecting the deleted pair.
func TestDeltaSyncOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp integration test")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	cfg := Config{MaxKeys: 1 << 20, MinReplicas: 1, TombstoneGCVersions: 16}
	var peers []*Peer
	for i := 0; i < 2; i++ {
		ep, err := network.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		pcfg := cfg
		pcfg.Seed = int64(80 + i)
		peers = append(peers, New(pcfg, ep))
	}
	a, b := peers[0], peers[1]
	a.AddReplica(b.Addr())
	b.AddReplica(a.Addr())

	// Mostly shared content with a few divergent pairs: first contact must
	// run a digest walk and converge.
	for i := 0; i < 60; i++ {
		it := replication.Item{Key: keyspace.MustFromFloat(float64(i)/60, 32), Value: fmt.Sprintf("tcp-%d", i)}
		a.Store().Add(it)
		b.Store().Add(it)
	}
	b.Store().Insert(replication.Item{Key: keyspace.MustFromFloat(0.515, 32), Value: "only-b"})
	rep, err := a.SyncReplica(ctx, b.Addr())
	if err != nil {
		t.Fatalf("first sync over tcp: %v", err)
	}
	if rep.Kind != SyncWalk {
		t.Errorf("first tcp sync kind = %q, want walk", rep.Kind)
	}
	if !a.Store().Live(keyspace.MustFromFloat(0.515, 32), "only-b") {
		t.Error("walk over tcp did not transfer the divergent pair")
	}

	// Steady state: one cheap digest round trip.
	if rep, err = a.SyncReplica(ctx, b.Addr()); err != nil || rep.Kind != SyncInSync {
		t.Fatalf("steady-state sync over tcp: %v %+v", err, rep)
	}

	// Diverge with an insert and a delete; the next sync must be an exact
	// delta that moves the tombstone without resurrecting the pair.
	doomedKey := keyspace.MustFromFloat(10.0/60, 32)
	b.Store().Insert(replication.Item{Key: keyspace.MustFromFloat(0.717, 32), Value: "late-b"})
	b.Store().Delete(doomedKey, "tcp-10")
	rep, err = a.SyncReplica(ctx, b.Addr())
	if err != nil {
		t.Fatalf("delta sync over tcp: %v", err)
	}
	if rep.Kind != SyncDelta {
		t.Errorf("post-baseline tcp sync kind = %q, want delta", rep.Kind)
	}
	if rep.Received != 2 {
		t.Errorf("tcp delta received %d changes, want 2 (insert + tombstone)", rep.Received)
	}
	if a.Store().Live(doomedKey, "tcp-10") {
		t.Error("tcp delta sync resurrected the deleted pair")
	}

	// Post-GC stale rejoin: b deletes, keeps writing, prunes the tombstone;
	// a has not synced since, so its next sync must rebuild, not merge.
	zombieKey := keyspace.MustFromFloat(20.0/60, 32)
	b.Store().Delete(zombieKey, "tcp-20")
	for i := 0; i < 20; i++ {
		b.Store().Insert(replication.Item{Key: keyspace.MustFromFloat(0.9+float64(i)/1000, 32), Value: fmt.Sprintf("fill-%d", i)})
	}
	if n := b.Store().CompactTombstones(); n == 0 {
		t.Fatal("setup: tcp tombstone not pruned")
	}
	rep, err = a.SyncReplica(ctx, b.Addr())
	if err != nil {
		t.Fatalf("rejoin sync over tcp: %v", err)
	}
	if rep.Kind != SyncRebuildPull {
		t.Errorf("post-GC rejoin tcp sync kind = %q, want rebuild-pull", rep.Kind)
	}
	if a.Store().Live(zombieKey, "tcp-20") {
		t.Error("post-GC rejoin over tcp resurrected the deleted pair")
	}
	ha, _ := a.Store().Digest(keyspace.Root)
	hb, _ := b.Store().Digest(keyspace.Root)
	if ha != hb {
		t.Error("replicas not identical after tcp rebuild")
	}
}

// TestOversizedSyncOverTCP pins the fix for the oversized-transfer failure
// mode: under the legacy transport, a rebuild or delta payload larger than
// the frame cap could never be sent, so the sync engine failed every tick
// and retried forever. The binary transport fragments such messages, so a
// partition whose full image exceeds the frame limit still rebuilds. The
// endpoints run with a deliberately small frame limit, making the image
// dozens of frames without needing multi-MiB fixtures.
func TestOversizedSyncOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp integration test")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	cfg := Config{MaxKeys: 1 << 20, MinReplicas: 1, TombstoneGCVersions: 16}
	const frameLimit = 32 << 10
	var peers []*Peer
	for i := 0; i < 2; i++ {
		ep, err := network.ListenTCPOptions("127.0.0.1:0", network.TCPOptions{FrameLimit: frameLimit})
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		pcfg := cfg
		pcfg.Seed = int64(90 + i)
		peers = append(peers, New(pcfg, ep))
	}
	a, b := peers[0], peers[1]
	a.AddReplica(b.Addr())
	b.AddReplica(a.Addr())

	// Shared content whose serialised image dwarfs the frame limit: 300
	// pairs with 8 KiB values (~2.4 MiB against 32 KiB frames).
	bigValue := strings.Repeat("v", 8<<10)
	for i := 0; i < 300; i++ {
		it := replication.Item{
			Key:   keyspace.MustFromFloat(float64(i)/300, 32),
			Value: fmt.Sprintf("%s-%d", bigValue, i),
		}
		a.Store().Add(it)
		b.Store().Add(it)
	}
	if rep, err := a.SyncReplica(ctx, b.Addr()); err != nil || rep.Kind != SyncInSync {
		t.Fatalf("baseline sync: %v %+v", err, rep)
	}

	// b deletes a pair, keeps writing and prunes the tombstone, so a's
	// baseline provably predates the prune and the next sync must
	// wholesale-replace a's partition — one full-image transfer that
	// exceeds the frame cap many times over.
	doomed := keyspace.MustFromFloat(42.0/300, 32)
	b.Store().Delete(doomed, fmt.Sprintf("%s-%d", bigValue, 42))
	for i := 0; i < 20; i++ {
		b.Store().Insert(replication.Item{
			Key:   keyspace.MustFromFloat(0.99+float64(i)/10000, 32),
			Value: fmt.Sprintf("%s-fill-%d", bigValue, i),
		})
	}
	if n := b.Store().CompactTombstones(); n == 0 {
		t.Fatal("setup: tombstone not pruned")
	}
	rep, err := a.SyncReplica(ctx, b.Addr())
	if err != nil {
		t.Fatalf("oversized rebuild sync: %v", err)
	}
	if rep.Kind != SyncRebuildPull {
		t.Errorf("sync kind = %q, want rebuild-pull", rep.Kind)
	}
	if rep.Received < 300 {
		t.Errorf("rebuild received %d records, want the full image", rep.Received)
	}
	if a.Store().Live(doomed, fmt.Sprintf("%s-%d", bigValue, 42)) {
		t.Error("oversized rebuild resurrected the pruned delete")
	}
	ha, na := a.Store().Digest(keyspace.Root)
	hb, nb := b.Store().Digest(keyspace.Root)
	if ha != hb || na != nb {
		t.Errorf("replicas diverged after oversized rebuild: (%x,%d) vs (%x,%d)", ha, na, hb, nb)
	}

	// The reverse direction: a now prunes past b's baseline, so the next
	// sync pushes a's full oversized image onto b.
	victim := keyspace.MustFromFloat(7.0/300, 32)
	a.Store().Delete(victim, fmt.Sprintf("%s-%d", bigValue, 7))
	for i := 0; i < 20; i++ {
		a.Store().Insert(replication.Item{
			Key:   keyspace.MustFromFloat(0.98+float64(i)/10000, 32),
			Value: fmt.Sprintf("%s-pushfill-%d", bigValue, i),
		})
	}
	if n := a.Store().CompactTombstones(); n == 0 {
		t.Fatal("setup: push-side tombstone not pruned")
	}
	rep, err = a.SyncReplica(ctx, b.Addr())
	if err != nil {
		t.Fatalf("oversized rebuild-push sync: %v", err)
	}
	if rep.Kind != SyncRebuildPush {
		t.Errorf("push sync kind = %q, want rebuild-push", rep.Kind)
	}
	ha, na = a.Store().Digest(keyspace.Root)
	hb, nb = b.Store().Digest(keyspace.Root)
	if ha != hb || na != nb {
		t.Errorf("replicas diverged after oversized rebuild-push: (%x,%d) vs (%x,%d)", ha, na, hb, nb)
	}
}

// TestExchangeResponderBehind exercises the branch where the contacted peer
// is still at a shallower path than the initiator and must extend itself.
func TestExchangeResponderBehind(t *testing.T) {
	sim := network.NewSim(network.SimConfig{Seed: 20})
	cfg := Config{MaxKeys: 4, MinReplicas: 1, Seed: 20}
	deep := New(cfg, sim.Endpoint("deep"))
	shallow := New(cfg, sim.Endpoint("shallow"))
	other := New(cfg, sim.Endpoint("other"))

	// The deep peer has already split to "0", the shallow one is at the
	// root with data, the other peer serves as the deep peer's reference.
	deep.Table().SetPath("0")
	deep.Table().Add(0, refFor(other))
	other.Table().SetPath("1")
	for i := 0; i < 6; i++ {
		shallow.AddItems([]replication.Item{{Key: keyspace.MustFromFloat(float64(i)/6, 32), Value: fmt.Sprintf("s%d", i)}})
		deep.AddItems([]replication.Item{{Key: keyspace.MustFromFloat(float64(i)/12, 32), Value: fmt.Sprintf("d%d", i)}})
	}
	// The deep peer initiates: from its perspective the responder (shallow)
	// is behind and must extend its own path by the AEP rules.
	if _, err := deep.Interact(context.Background(), "shallow"); err != nil {
		t.Fatal(err)
	}
	if shallow.Path().Depth() != 1 {
		t.Errorf("shallow peer should have extended its path, got %q", shallow.Path())
	}
	// Referential integrity: the shallow peer must know a peer of the
	// complementary partition at level 0.
	if len(shallow.Table().Refs(0)) == 0 {
		t.Error("extended peer has no level-0 reference")
	}
}

// TestExchangeInitiatorBehindFollowsMajority exercises rule 4's indirect
// reference hand-over (the initiator follows the responder into the
// majority and receives a reference from the responder's routing table).
func TestExchangeInitiatorBehindFollowsMajority(t *testing.T) {
	sim := network.NewSim(network.SimConfig{Seed: 21})
	cfg := Config{MaxKeys: 1000, MinReplicas: 1, Seed: 21}
	undecided := New(cfg, sim.Endpoint("undecided"))
	decided := New(cfg, sim.Endpoint("decided"))
	other := New(cfg, sim.Endpoint("other"))
	other.Table().SetPath("1")

	// The decided peer sits on the majority side "0" (all data is below
	// 0.5) and owns a reference into "1".
	decided.Table().SetPath("0")
	decided.Table().Add(0, refFor(other))
	for i := 0; i < 10; i++ {
		k := keyspace.MustFromFloat(float64(i)/25, 32) // all in [0, 0.4)
		undecided.AddItems([]replication.Item{{Key: k, Value: fmt.Sprintf("u%d", i)}})
		decided.AddItems([]replication.Item{{Key: k, Value: fmt.Sprintf("d%d", i)}})
	}
	// With the whole load in sub-partition 0, the minority is 1 and beta is
	// (close to) zero, so the initiator must follow the responder into "0"
	// and obtain the reference to "other".
	if _, err := undecided.Interact(context.Background(), "decided"); err != nil {
		t.Fatal(err)
	}
	if undecided.Path() != "0" {
		t.Fatalf("initiator path = %q, want 0", undecided.Path())
	}
	refs := undecided.Table().Refs(0)
	if len(refs) == 0 {
		t.Fatal("initiator received no reference into the complementary partition")
	}
	foundOther := false
	for _, r := range refs {
		if r.Addr == "other" {
			foundOther = true
		}
	}
	if !foundOther {
		t.Errorf("initiator should have been handed the responder's reference, got %v", refs)
	}
}
