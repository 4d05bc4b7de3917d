package overlay

import (
	"context"
	"testing"

	"pgrid/internal/keyspace"
	"pgrid/internal/network"
	"pgrid/internal/replication"
)

// item07 returns a test item under partition "0" keyed by i.
func item07(i int, value string) replication.Item {
	return replication.Item{
		Key:   keyspace.MustFromFloat(float64(i%8)/16, 8), // bit strings 0000.. to 0111..
		Value: value,
	}
}

// TestRestartResumesDeltaSync is the tentpole's acceptance path: a peer
// restarted from its persistence directory recovers its partition path,
// replica set and sync baselines, and its first anti-entropy round with a
// replica that kept writing runs through the exact-delta path (SyncsDelta)
// — not a first-contact digest walk and not a rebuild.
func TestRestartResumesDeltaSync(t *testing.T) {
	ctx := context.Background()
	net := network.NewSim(network.SimConfig{Seed: 1})
	dir := t.TempDir()

	cfg := Config{MaxKeys: 50, MinReplicas: 1, Seed: 1}
	a := New(cfg, net.Endpoint("a"))
	pcfg := cfg
	pcfg.Seed = 2
	pcfg.DataDir = dir
	b, err := NewPersistent(pcfg, net.Endpoint("b"))
	if err != nil {
		t.Fatal(err)
	}
	a.Table().SetPath("0")
	b.Table().SetPath("0")
	a.AddReplica("b")
	b.AddReplica("a")

	for i := 0; i < 6; i++ {
		a.Store().Insert(item07(i, "seed"))
	}

	// First contact walks; the completed sync records b's durable baseline.
	rep, err := b.SyncReplica(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != SyncWalk {
		t.Fatalf("first contact took %q, want walk", rep.Kind)
	}
	// A maintenance tick persists the partition path alongside.
	b.MaintainTick(ctx, MaintenanceOptions{})

	// Writes land at a while b is down.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	missed := item07(7, "missed-while-down")
	a.Store().Insert(missed)

	// Restart b from its directory on the same address.
	b2, err := NewPersistent(pcfg, net.Endpoint("b"))
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if got := b2.Path(); got != "0" {
		t.Fatalf("recovered path %q, want 0", got)
	}
	replicas := b2.Replicas()
	if len(replicas) != 1 || replicas[0] != "a" {
		t.Fatalf("recovered replicas %v, want [a]", replicas)
	}

	rep, err = b2.SyncReplica(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != SyncDelta {
		t.Fatalf("post-restart sync took %q, want delta", rep.Kind)
	}
	if !b2.Store().Live(missed.Key, missed.Value) {
		t.Error("restarted peer did not receive the missed write")
	}
	if full := b2.Counts()[SyncsFull]; full != 0 {
		t.Errorf("restarted peer ran %v full syncs, want 0", full)
	}
}

// TestRestartNoResurrectAfterGC pins the residual risk this PR closes: a
// replica that rejoins after the GC horizon with a stale live copy of a
// pruned delete. With a durable baseline the authority can prove the
// staleness and the rejoiner is rebuilt (the delete holds); without
// persistence the baseline is lost, the rejoiner looks like a first
// contact, and the walk-merge resurrects the pair.
func TestRestartNoResurrectAfterGC(t *testing.T) {
	ctx := context.Background()
	net := network.NewSim(network.SimConfig{Seed: 1})
	dir := t.TempDir()

	acfg := Config{MaxKeys: 50, MinReplicas: 1, Seed: 1, TombstoneGCVersions: 4}
	a := New(acfg, net.Endpoint("a"))
	bcfg := Config{MaxKeys: 50, MinReplicas: 1, Seed: 2, DataDir: dir}
	b, err := NewPersistent(bcfg, net.Endpoint("b"))
	if err != nil {
		t.Fatal(err)
	}
	a.Table().SetPath("0")
	b.Table().SetPath("0")
	a.AddReplica("b")
	b.AddReplica("a")

	doomed := item07(1, "doomed")
	a.Store().Insert(doomed)
	if _, err := b.SyncReplica(ctx, "a"); err != nil { // walk: b now holds the pair
		t.Fatal(err)
	}
	if _, err := b.SyncReplica(ctx, "a"); err != nil { // in-sync: fresh baselines both sides
		t.Fatal(err)
	}
	if !b.Store().Live(doomed.Key, doomed.Value) {
		t.Fatal("pair did not replicate to b")
	}
	if err := b.Close(); err != nil { // b goes away holding the live copy
		t.Fatal(err)
	}

	// The delete happens — and is GC-pruned — while b is gone.
	a.Store().Delete(doomed.Key, doomed.Value)
	for i := 0; i < 6; i++ {
		a.Store().Insert(item07(2+i, "filler"))
	}
	if n := a.Store().CompactTombstones(); n != 1 {
		t.Fatalf("pruned %d tombstones, want 1", n)
	}

	// b rejoins from disk: its recovered baseline predates a's GC floor,
	// so a's responder proves it stale and b rebuild-pulls. The pruned
	// delete cannot resurrect.
	b2, err := NewPersistent(bcfg, net.Endpoint("b"))
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if !b2.Store().Live(doomed.Key, doomed.Value) {
		t.Fatal("recovered store should still hold the stale live copy")
	}
	rep, err := b2.SyncReplica(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != SyncRebuildPull {
		t.Fatalf("stale rejoin took %q, want rebuild-pull", rep.Kind)
	}
	if b2.Store().Live(doomed.Key, doomed.Value) {
		t.Error("pruned delete resurrected at the restarted replica")
	}
	if a.Store().Live(doomed.Key, doomed.Value) {
		t.Error("pruned delete resurrected at the authority")
	}

	// Contrast: the same rejoin WITHOUT a durable baseline (a fresh
	// in-memory peer with the stale copy) is indistinguishable from a
	// first contact, walk-merges, and resurrects the pair at the
	// authority. This is exactly the hole durable baselines close.
	c := New(Config{MaxKeys: 50, MinReplicas: 1, Seed: 3}, net.Endpoint("c"))
	c.Table().SetPath("0")
	c.AddReplica("a")
	c.Store().Add(replication.Item{Key: doomed.Key, Value: doomed.Value, Gen: doomed.Gen})
	if _, err := c.SyncReplica(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if !a.Store().Live(doomed.Key, doomed.Value) {
		t.Error("expected the baseline-less rejoin to resurrect the pair (documented residual risk)")
	}
}

// TestRestartMidWriteOverTCP restarts a persistent peer over the real TCP
// transport while its replica keeps absorbing writes, and requires the
// rejoin to resync via the exact-delta path and converge.
func TestRestartMidWriteOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp integration test")
	}
	ctx := context.Background()
	dir := t.TempDir()

	epA, err := network.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer epA.Close()
	a := New(Config{MaxKeys: 50, MinReplicas: 1, Seed: 1}, epA)
	a.Table().SetPath("0")

	epB, err := network.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bAddr := string(epB.Addr())
	bcfg := Config{MaxKeys: 50, MinReplicas: 1, Seed: 2, DataDir: dir}
	b, err := NewPersistent(bcfg, epB)
	if err != nil {
		t.Fatal(err)
	}
	b.Table().SetPath("0")
	a.AddReplica(network.Addr(bAddr))
	b.AddReplica(epA.Addr())

	for i := 0; i < 4; i++ {
		a.Store().Insert(item07(i, "pre"))
	}
	if _, err := b.SyncReplica(ctx, epA.Addr()); err != nil {
		t.Fatal(err)
	}
	b.MaintainTick(ctx, MaintenanceOptions{}) // persist the path

	// Mid-write: the peer dies between two batches of writes.
	a.Store().Insert(item07(5, "during-1"))
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := epB.Close(); err != nil {
		t.Fatal(err)
	}
	a.Store().Insert(item07(6, "during-2"))
	a.Store().Delete(item07(0, "pre").Key, "pre")

	// Restart on the same TCP address with the same data directory.
	epB2, err := network.ListenTCP(bAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer epB2.Close()
	b2, err := NewPersistent(bcfg, epB2)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()

	rep, err := b2.SyncReplica(ctx, epA.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != SyncDelta {
		t.Fatalf("post-restart TCP sync took %q, want delta", rep.Kind)
	}
	if full := b2.Counts()[SyncsFull]; full != 0 {
		t.Errorf("restarted peer ran %v full syncs, want 0", full)
	}
	if !b2.Store().Live(item07(5, "during-1").Key, "during-1") ||
		!b2.Store().Live(item07(6, "during-2").Key, "during-2") {
		t.Error("restarted peer missed writes issued while it was down")
	}
	if b2.Store().Live(item07(0, "pre").Key, "pre") {
		t.Error("restarted peer kept a pair deleted while it was down")
	}
}
