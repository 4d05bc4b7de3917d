// Liveupdates: build an overlay once, then keep writing to it — routed
// inserts and deletes with quorum acknowledgement, background anti-entropy
// maintenance spreading every write to all replicas, and churn healed
// without a re-Build.
//
// Run with:
//
//	go run ./examples/liveupdates
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"pgrid"
	"pgrid/internal/overlay"
)

func main() {
	ctx := context.Background()

	cluster, err := pgrid.NewCluster(
		pgrid.WithPeers(32),
		pgrid.WithMaxKeys(12),
		pgrid.WithMinReplicas(3),
		pgrid.WithWriteQuorum(2),
		pgrid.WithMaintenanceInterval(10*time.Millisecond),
		// Bound tombstone lifetime: deletes older than the horizon are
		// compacted away, and the digest/delta anti-entropy protocol keeps
		// replicas converged without retransmitting the full data set.
		pgrid.WithTombstoneGC(time.Minute, 0),
		pgrid.WithSeed(7),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Seed the index and construct the overlay once.
	for i := 0; i < 120; i++ {
		if err := cluster.IndexString(fmt.Sprintf("term-%03d", i), fmt.Sprintf("doc-%d", i)); err != nil {
			log.Fatal(err)
		}
	}
	report, err := cluster.Build(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("construction:", report)

	// Background maintenance keeps replicas converged from here on.
	cluster.StartMaintenance()
	defer cluster.StopMaintenance()

	// A live write is routed to the responsible partition and fanned out to
	// its replicas; the report carries the quorum acknowledgement.
	rep, err := cluster.InsertString(ctx, "streaming", "doc-live-1")
	if err != nil && !errors.Is(err, pgrid.ErrNoQuorum) {
		log.Fatal(err)
	}
	fmt.Printf("insert 'streaming': %d/%d replicas acked in %d hop(s)\n", rep.Acks, rep.Replicas, rep.Hops)

	hits, err := cluster.SearchString(ctx, "streaming")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read-your-write: %d hit(s)\n", len(hits))

	// A delete tombstones the pair at every replica, so maintenance spreads
	// the removal instead of resurrecting the item.
	if _, err := cluster.DeleteString(ctx, "streaming", "doc-live-1"); err != nil && !errors.Is(err, pgrid.ErrNoQuorum) {
		log.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let a few maintenance ticks run
	switch hits, err := cluster.SearchString(ctx, "streaming"); {
	case err != nil:
		log.Fatalf("search after delete failed: %v", err)
	case len(hits) == 0:
		fmt.Println("after delete + maintenance: item gone everywhere")
	default:
		fmt.Printf("after delete: unexpected hits %v\n", hits)
	}

	// Churn: take a slice of peers offline, write while they are away, and
	// let maintenance catch them up when they return — no re-Build.
	for i := 0; i < 8; i++ {
		cluster.SetOnline(i, false)
	}
	if _, err := cluster.InsertString(ctx, "churned", "doc-live-2"); err != nil && !errors.Is(err, pgrid.ErrNoQuorum) {
		log.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		cluster.SetOnline(i, true)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		hits, err := cluster.SearchString(ctx, "churned")
		if err == nil && len(hits) > 0 {
			fmt.Printf("write during churn readable after returning peers caught up: %d hit(s)\n", len(hits))
			printSyncStats(cluster)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Println("write during churn did not become readable in time")
	printSyncStats(cluster)
}

// printSyncStats shows how the maintenance traffic split across the
// digest/delta protocol's outcomes: in steady state almost every round is a
// constant-cost digest match, and only divergent replicas pay for content.
func printSyncStats(cluster *pgrid.Cluster) {
	syncs := cluster.MetricsSnapshot().Counts
	fmt.Printf("anti-entropy rounds: %.0f in-sync (digest only), %.0f delta, %.0f full\n",
		syncs[overlay.SyncsInSync], syncs[overlay.SyncsDelta], syncs[overlay.SyncsFull])
}
