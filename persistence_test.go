package pgrid

import (
	"context"
	"errors"
	"sync"
	"testing"

	"pgrid/internal/overlay"
)

// TestClusterPersistenceRestart exercises the public durability surface:
// a cluster built with WithPersistence survives peer restarts — reads keep
// succeeding, the restarted peers rejoin their partitions with their data,
// and their first maintenance rounds run through the in-sync/delta paths
// rather than full rebuilds.
func TestClusterPersistenceRestart(t *testing.T) {
	ctx := context.Background()
	cluster, err := NewCluster(
		WithPeers(16),
		WithSeed(7),
		WithPersistence(t.TempDir()),
		WithMinReplicas(2),
		WithMaxKeys(10),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	terms := []string{"database", "datalog", "overlay", "network", "index", "replica", "quorum", "journal"}
	for i, term := range terms {
		if err := cluster.IndexString(term, "doc-"+term); err != nil {
			t.Fatal(err)
		}
		_ = i
	}
	if _, err := cluster.Build(ctx); err != nil {
		t.Fatal(err)
	}
	// A few synchronous maintenance rounds spread the data and record
	// durable sync baselines.
	for i := 0; i < 3; i++ {
		cluster.MaintenanceRound(ctx)
	}

	// A live write after construction must survive the restarts too.
	if _, err := cluster.InsertString(ctx, "durability", "doc-durability"); err != nil && !errors.Is(err, ErrNoQuorum) {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		cluster.MaintenanceRound(ctx)
	}

	restarted := []int{1, 5, 9, 13}
	for _, i := range restarted {
		if err := cluster.RestartPeer(i); err != nil {
			t.Fatalf("restart peer %d: %v", i, err)
		}
	}
	for _, i := range restarted {
		p := cluster.Peer(i)
		if p.Path().Depth() == 0 && len(p.Replicas()) == 0 {
			t.Errorf("peer %d recovered neither path nor replicas", i)
		}
	}
	for i := 0; i < 3; i++ {
		cluster.MaintenanceRound(ctx)
	}

	for _, term := range append(terms, "durability") {
		hits, err := cluster.SearchString(ctx, term)
		if err != nil {
			t.Errorf("search %q after restart: %v", term, err)
			continue
		}
		if len(hits) == 0 {
			t.Errorf("search %q after restart: no hits", term)
		}
	}
	// The rejoins must not have degraded to full-set transfers.
	for _, i := range restarted {
		c := cluster.Peer(i).Counts()
		if full := c[overlay.SyncsFull]; full != 0 {
			t.Errorf("restarted peer %d ran %v full syncs", i, full)
		}
		if c[overlay.SyncsInSync]+c[overlay.SyncsDelta] == 0 {
			t.Errorf("restarted peer %d completed no in-sync/delta rounds", i)
		}
	}
}

// TestClusterRestartWithBackgroundMaintenance restarts peers while the
// asynchronous maintenance loops are running, which exercises the
// per-peer loop swap and the copy-on-write peer list under -race.
func TestClusterRestartWithBackgroundMaintenance(t *testing.T) {
	ctx := context.Background()
	cluster, err := NewCluster(WithPeers(8), WithSeed(3), WithPersistence(t.TempDir()), WithMinReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	for _, term := range []string{"alpha", "beta", "gamma", "delta"} {
		if err := cluster.IndexString(term, "doc-"+term); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cluster.Build(ctx); err != nil {
		t.Fatal(err)
	}
	cluster.StartMaintenance()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 8; i++ {
			_, _ = cluster.SearchString(ctx, "alpha")
		}
	}()
	if err := cluster.RestartPeer(2); err != nil {
		t.Fatal(err)
	}
	if err := cluster.RestartPeer(6); err != nil {
		t.Fatal(err)
	}
	<-done
	cluster.StopMaintenance()
	if hits, err := cluster.SearchString(ctx, "beta"); err != nil || len(hits) == 0 {
		t.Errorf("search after concurrent restart: hits=%d err=%v", len(hits), err)
	}
}

// TestClusterCountersSurviveRestart requires the cluster-wide counters to be
// cumulative: restarting a peer replaces it with one whose counters start at
// zero, and MetricsSnapshot must still never report a counter lower than an
// earlier snapshot did — also while searches and restarts run concurrently
// with the scrapes.
func TestClusterCountersSurviveRestart(t *testing.T) {
	ctx := context.Background()
	cluster, err := NewCluster(WithPeers(8), WithSeed(5), WithPersistence(t.TempDir()), WithMinReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	for _, term := range []string{"alpha", "beta", "gamma", "delta"} {
		if err := cluster.IndexString(term, "doc-"+term); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cluster.Build(ctx); err != nil {
		t.Fatal(err)
	}
	cluster.MaintenanceRound(ctx)
	before := cluster.MetricsSnapshot().Counts
	if before[overlay.Interactions] == 0 {
		t.Fatal("construction recorded no interactions")
	}
	noDecrease := func(prev, next overlay.Counts) {
		for c := overlay.Counter(0); c < overlay.NumCounters; c++ {
			if next[c] < prev[c] {
				t.Errorf("%s %s went backwards: %v -> %v",
					overlay.Counters[c].Family, overlay.Counters[c].Label, prev[c], next[c])
			}
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_, _ = cluster.SearchString(ctx, "alpha")
			}
		}
	}()
	go func() {
		defer wg.Done()
		prev := before
		for {
			select {
			case <-stop:
				return
			default:
				next := cluster.MetricsSnapshot().Counts
				noDecrease(prev, next)
				prev = next
			}
		}
	}()
	for i := 0; i < cluster.Peers(); i += 3 {
		if err := cluster.RestartPeer(i); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
	noDecrease(before, cluster.MetricsSnapshot().Counts)
}
