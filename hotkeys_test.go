package pgrid

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"pgrid/internal/overlay"
	"pgrid/internal/workload"
)

// TestZipfCacheRegression runs a skewed read workload with the query answer
// cache enabled, against both storage engines, with writes to the hottest
// key racing the readers. It pins the two properties the cache promises:
//
//   - the cache actually serves (hit count > 0 under a Zipf workload), and
//   - invalidation is strict: caching never extends staleness beyond the
//     replicas themselves. The overlay's baseline is eventual — a routed
//     write covers the coordinator's replica view and anti-entropy spreads
//     it to the rest — so once maintenance has converged the partition,
//     every search must see the written value even though reader traffic
//     filled the caches with the pre-write answer moments earlier and those
//     entries are still inside their TTL. Only the clock-probe invalidation
//     can make that pass.
//
// Run under -race this also exercises the cache code for data races between
// concurrent readers, the writer and maintenance.
func TestZipfCacheRegression(t *testing.T) {
	for _, engine := range []string{"mem", "disk"} {
		t.Run(engine, func(t *testing.T) {
			c, err := NewCluster(
				WithPeers(24),
				WithSeed(17),
				WithStorageEngine(engine),
				WithQueryCache(128, time.Second),
			)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			ctx := context.Background()

			const vocab = 48
			terms := make([]string, vocab)
			for i := range terms {
				terms[i] = fmt.Sprintf("term-%03d", i)
				if err := c.IndexString(terms[i], "seed"); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := c.Build(ctx); err != nil {
				t.Fatalf("build: %v", err)
			}

			zipf := workload.NewZipf(vocab, 1.2)
			hot := terms[0]

			var wg sync.WaitGroup
			stop := make(chan struct{})
			errCh := make(chan error, 8)
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < 250; i++ {
						select {
						case <-stop:
							return
						default:
						}
						term := terms[zipf.Rank(rng)]
						if _, err := c.SearchString(ctx, term); err != nil {
							errCh <- fmt.Errorf("reader search %q: %w", term, err)
							return
						}
					}
				}(int64(100 + r))
			}

			// The writer is the invariant: after a write to the hot key has
			// converged through maintenance, cache-eligible searches must see
			// it — the pre-write entries the readers keep refilling are still
			// inside their TTL, so only probe invalidation can retire them.
			for i := 0; i < 8; i++ {
				val := fmt.Sprintf("gen-%02d", i)
				if _, err := c.InsertString(ctx, hot, val); err != nil {
					t.Fatalf("insert %s: %v", val, err)
				}
				found := false
				for round := 0; round < 30 && !found; round++ {
					c.MaintenanceRound(ctx)
					hits, err := c.SearchString(ctx, hot)
					if err != nil {
						t.Fatalf("search after insert %s: %v", val, err)
					}
					for _, h := range hits {
						if h.Value == val {
							found = true
							break
						}
					}
				}
				if !found {
					t.Fatalf("cache invalidation failed: %s still invisible after convergence", val)
				}
			}
			close(stop)
			wg.Wait()
			select {
			case err := <-errCh:
				t.Fatal(err)
			default:
			}

			snap := c.MetricsSnapshot()
			if snap.Counts[overlay.CacheHits] == 0 {
				t.Errorf("Zipf workload produced no cache hits (misses=%v)", snap.Counts[overlay.CacheMisses])
			}
		})
	}
}
