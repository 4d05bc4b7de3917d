package overlay

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pgrid/internal/keyspace"
	"pgrid/internal/replication"
	"pgrid/internal/workload"
)

// TestMetricsSnapshotUnderConcurrentWorkload scrapes MetricsSnapshot from
// one goroutine while queries, routed mutations and maintenance ticks run
// from others. Under -race this is the regression test for the exporter
// read path: the counters are updated without holding the peer lock, so the
// snapshot must go through the counters' atomic loads and the store's own
// locks.
func TestMetricsSnapshotUnderConcurrentWorkload(t *testing.T) {
	cfg := Config{MaxKeys: 20, MinReplicas: 2, DoneAfterIdle: 3}
	c := newTestCluster(t, 24, 8, workload.Uniform{}, cfg, 17)
	c.replicateAll(t)
	c.construct(t, 60)
	items := c.allItems()
	if len(items) == 0 {
		t.Fatal("no items in the network")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Query + mutation workload.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				origin := c.peers[(w*31+i)%len(c.peers)]
				it := items[(w*17+i)%len(items)]
				switch i % 3 {
				case 0:
					_, _ = origin.Query(ctx, it.Key)
				case 1:
					_, _ = origin.Insert(ctx, replication.Item{Key: it.Key, Value: fmt.Sprintf("w%d-%d", w, i)})
				default:
					origin.MaintainTick(ctx, MaintenanceOptions{})
				}
			}
		}(w)
	}

	// Scraper: read every peer's snapshot repeatedly, as an exporter would.
	deadline := time.Now().Add(500 * time.Millisecond)
	var last MetricsSnapshot
	for time.Now().Before(deadline) {
		var agg MetricsSnapshot
		for _, p := range c.peers {
			agg = agg.Merge(p.MetricsSnapshot())
		}
		if agg.Counts[Queries] < last.Counts[Queries] || agg.Counts[Mutations] < last.Counts[Mutations] {
			t.Errorf("aggregate counters went backwards: %+v then %+v", last, agg)
		}
		last = agg
	}
	close(stop)
	wg.Wait()

	if last.Counts[Queries] == 0 {
		t.Error("no queries counted during the workload")
	}
	if last.Store.Items == 0 {
		t.Error("store item gauge is zero on a populated overlay")
	}
}

// TestErrorClassification checks the exported sentinels: a lookup with no
// route classifies as ErrUnreachable, and ErrNotFound/ErrNoQuorum are
// distinct classes.
func TestErrorClassification(t *testing.T) {
	cfg := Config{MaxKeys: 4, MinReplicas: 1, DoneAfterIdle: 2}
	c := newTestCluster(t, 2, 6, workload.Uniform{}, cfg, 3)
	c.replicateAll(t)
	c.construct(t, 30)
	ctx := context.Background()

	// Force a divergent key with every remote peer offline: routing must
	// exhaust its references and classify as unreachable.
	p := c.peers[0]
	for _, q := range c.peers[1:] {
		c.sim.SetOnline(q.Addr(), false)
	}
	var divergent keyspace.Key
	found := false
	for i := 0; i < 1024 && !found; i++ {
		k := keyspace.MustFromFloat(float64(i)/1024, keyspace.DefaultDepth)
		if !p.Table().Responsible(k) {
			divergent, found = k, true
		}
	}
	if !found {
		t.Skip("peer 0 is responsible for the whole keyspace; cannot force a route")
	}
	if _, err := p.Query(ctx, divergent); !errors.Is(err, ErrUnreachable) {
		t.Errorf("query with no live route: got %v, want ErrUnreachable", err)
	}
	if _, err := p.Insert(ctx, replication.Item{Key: divergent, Value: "x"}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("insert with no live route: got %v, want ErrUnreachable", err)
	}
	if errors.Is(ErrNotFound, ErrUnreachable) || errors.Is(ErrNoQuorum, ErrUnreachable) {
		t.Error("error classes must be distinct")
	}
}
