// Persistence: durable replica state and crash recovery. The cluster runs
// with WithPersistence, so every peer's store — items, delete tombstones,
// logical clock, GC floor, partition path, routing references and
// anti-entropy sync baselines — is captured by a CRC-framed write-ahead
// log plus periodic snapshots. The example kills and restarts peers
// mid-workload and shows that reads keep succeeding and that the restarted
// peers rejoin through the cheap exact-delta sync path (no full rebuild).
//
// Run with:
//
//	go run ./examples/persistence
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"pgrid"
	"pgrid/internal/overlay"
)

func main() {
	ctx := context.Background()

	// Durable state lives here; a real deployment would point this at a
	// persistent volume and reuse it across process restarts.
	dir, err := os.MkdirTemp("", "pgrid-persistence-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	cluster, err := pgrid.NewCluster(
		pgrid.WithPeers(16),
		pgrid.WithMaxKeys(10),
		pgrid.WithMinReplicas(2),
		pgrid.WithPersistence(dir),
		pgrid.WithSeed(7),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// Index, construct, and let maintenance record durable sync baselines.
	terms := []string{"database", "datalog", "overlay", "network", "index", "replica", "quorum", "journal"}
	for _, term := range terms {
		if err := cluster.IndexString(term, "doc-"+term); err != nil {
			log.Fatal(err)
		}
	}
	report, err := cluster.Build(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("built:", report)
	for i := 0; i < 3; i++ {
		cluster.MaintenanceRound(ctx)
	}

	// A live write after construction — it must survive the crash too.
	if _, err := cluster.InsertString(ctx, "durability", "doc-durability"); err != nil {
		fmt.Println("insert:", err)
	}
	for i := 0; i < 2; i++ {
		cluster.MaintenanceRound(ctx)
	}

	// Kill and restart a quarter of the cluster. Each restarted peer
	// reopens its WAL + snapshot directory, replays its state, and rejoins
	// its partition with its routing table and sync baselines intact.
	restarted := []int{1, 5, 9, 13}
	fmt.Printf("restarting peers %v ...\n", restarted)
	for _, i := range restarted {
		if err := cluster.RestartPeer(i); err != nil {
			log.Fatal(err)
		}
		p := cluster.Peer(i)
		fmt.Printf("  peer %2d recovered: path=%q items=%d replicas=%d\n",
			i, p.Path(), p.Store().Len(), len(p.Replicas()))
	}
	for i := 0; i < 3; i++ {
		cluster.MaintenanceRound(ctx)
	}

	// Reads survive the restarts.
	ok := 0
	for _, term := range append(terms, "durability") {
		hits, err := cluster.SearchString(ctx, term)
		if err == nil && len(hits) > 0 {
			ok++
		} else {
			fmt.Printf("  MISS %q: err=%v\n", term, err)
		}
	}
	fmt.Printf("reads after restart: %d/%d terms found\n", ok, len(terms)+1)

	// And the rejoins ran through the cheap paths: in-sync or exact delta,
	// never a full-set rebuild.
	for _, i := range restarted {
		c := cluster.Peer(i).Counts()
		fmt.Printf("  peer %2d post-restart syncs: in-sync=%.0f delta=%.0f full=%.0f\n",
			i, c[overlay.SyncsInSync], c[overlay.SyncsDelta], c[overlay.SyncsFull])
	}
}
