package pgrid

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func buildTestCluster(t *testing.T, opts ...Option) *Cluster {
	t.Helper()
	base := []Option{WithPeers(32), WithSeed(7), WithMaxKeys(12), WithMinReplicas(2), WithMaxConstructionRounds(60)}
	c, err := NewCluster(append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(WithPeers(1)); err == nil {
		t.Error("expected error for a single-peer cluster")
	}
	c, err := NewCluster()
	if err != nil {
		t.Fatal(err)
	}
	if c.Peers() != 32 {
		t.Errorf("default peers = %d", c.Peers())
	}
}

func TestKeyEncoders(t *testing.T) {
	if StringKey("abc").Compare(StringKey("abd")) >= 0 {
		t.Error("StringKey not order preserving")
	}
	if FloatKey(0.2).Compare(FloatKey(0.8)) >= 0 {
		t.Error("FloatKey not order preserving")
	}
	if Uint64Key(10).Compare(Uint64Key(1<<60)) >= 0 {
		t.Error("Uint64Key not order preserving")
	}
}

func TestClusterBuildAndSearch(t *testing.T) {
	c := buildTestCluster(t)
	ctx := context.Background()
	terms := []string{"database", "datalog", "overlay", "network", "index", "peer", "query", "trie", "range", "replica"}
	for i, term := range terms {
		for d := 0; d < 8; d++ {
			if err := c.IndexString(term, fmt.Sprintf("doc-%d-%d", i, d)); err != nil {
				t.Fatal(err)
			}
		}
	}
	report, err := c.Build(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Built() {
		t.Error("cluster should report built")
	}
	if report.DistinctPartitions < 2 {
		t.Errorf("expected the key space to be partitioned: %+v", report)
	}
	if report.String() == "" {
		t.Error("report rendering empty")
	}
	// Every term must be findable.
	for i, term := range terms {
		hits, err := c.SearchString(ctx, term)
		if err != nil {
			t.Fatalf("search %q: %v", term, err)
		}
		if len(hits) == 0 {
			t.Errorf("no hits for %q", term)
			continue
		}
		found := false
		for _, h := range hits {
			if strings.HasPrefix(h.Value, fmt.Sprintf("doc-%d-", i)) {
				found = true
			}
		}
		if !found {
			t.Errorf("hits for %q do not contain its documents: %v", term, hits)
		}
	}
	// Build twice is rejected.
	if _, err := c.Build(ctx); err == nil {
		t.Error("second build should be rejected")
	}
}

func TestClusterSearchMany(t *testing.T) {
	c := buildTestCluster(t, WithSeed(13))
	ctx := context.Background()
	terms := []string{"database", "datalog", "overlay", "network", "index", "peer", "query", "trie"}
	for i, term := range terms {
		for d := 0; d < 6; d++ {
			if err := c.IndexString(term, fmt.Sprintf("doc-%d-%d", i, d)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := c.Build(ctx); err != nil {
		t.Fatal(err)
	}
	// Batch the terms plus one key that exists nowhere.
	lookups := append(append([]string(nil), terms...), "zzz-missing")
	hits, err := c.SearchManyStrings(ctx, lookups)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != len(lookups) {
		t.Fatalf("got %d result slices for %d keys", len(hits), len(lookups))
	}
	for i, term := range terms {
		if len(hits[i]) == 0 {
			t.Errorf("no hits for %q in batch", term)
			continue
		}
		found := false
		for _, h := range hits[i] {
			if strings.HasPrefix(h.Value, fmt.Sprintf("doc-%d-", i)) {
				found = true
			}
		}
		if !found {
			t.Errorf("batch hits for %q do not contain its documents: %v", term, hits[i])
		}
	}
	if len(hits[len(hits)-1]) != 0 {
		t.Errorf("missing term should produce no hits, got %v", hits[len(hits)-1])
	}
	if _, err := c.SearchMany(ctx, nil); err != nil {
		t.Errorf("empty batch should be a no-op, got %v", err)
	}
}

func TestClusterRangeSearch(t *testing.T) {
	c := buildTestCluster(t, WithSeed(9))
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		x := float64(i) / 200
		if err := c.IndexFloat(x, fmt.Sprintf("v%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Build(ctx); err != nil {
		t.Fatal(err)
	}
	hits, err := c.SearchRange(ctx, FloatKey(0.25), FloatKey(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) < 35 || len(hits) > 55 {
		t.Errorf("range hits = %d, want ≈50", len(hits))
	}
	for i := 1; i < len(hits); i++ {
		if hits[i-1].Key.Compare(hits[i].Key) > 0 {
			t.Error("range hits not sorted")
		}
	}
}

func TestClusterStringRangeSearch(t *testing.T) {
	c := buildTestCluster(t, WithSeed(11))
	ctx := context.Background()
	words := []string{"apple", "apricot", "banana", "blueberry", "cherry", "damson", "elderberry", "fig", "grape"}
	for _, w := range words {
		for d := 0; d < 5; d++ {
			_ = c.IndexString(w, fmt.Sprintf("%s-%d", w, d))
		}
	}
	if _, err := c.Build(ctx); err != nil {
		t.Fatal(err)
	}
	hits, err := c.SearchStringRange(ctx, "b", "d")
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hits {
		w := strings.SplitN(h.Value, "-", 2)[0]
		if w[0] != 'b' && w[0] != 'c' {
			t.Errorf("unexpected hit %q for range [b,d)", h.Value)
		}
	}
	if len(hits) < 10 {
		t.Errorf("expected the b/c words, got %d hits", len(hits))
	}
}

func TestIndexAfterBuild(t *testing.T) {
	c := buildTestCluster(t, WithSeed(13))
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		_ = c.IndexFloat(float64(i)/100, fmt.Sprintf("pre-%d", i))
	}
	if _, err := c.Build(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.IndexString("lateinsert", "doc-late"); err != nil {
		t.Fatal(err)
	}
	hits, err := c.SearchString(ctx, "lateinsert")
	if err != nil {
		t.Fatalf("search for late insert: %v", err)
	}
	found := false
	for _, h := range hits {
		if h.Value == "doc-late" {
			found = true
		}
	}
	if !found {
		t.Error("late-inserted item not found")
	}
}

func TestClusterChurnControls(t *testing.T) {
	c := buildTestCluster(t, WithSeed(15), WithMinReplicas(3), WithRoutingRedundancy(4))
	ctx := context.Background()
	for i := 0; i < 150; i++ {
		_ = c.IndexFloat(float64(i)/150, fmt.Sprintf("item-%d", i))
	}
	if _, err := c.Build(ctx); err != nil {
		t.Fatal(err)
	}
	before := c.OnlinePeers()
	for i := 0; i < c.Peers()/4; i++ {
		c.SetOnline(i, false)
	}
	if c.OnlinePeers() >= before {
		t.Error("offline peers not reflected")
	}
	// Queries should still mostly succeed thanks to replication.
	success := 0
	for i := 0; i < 40; i++ {
		hits, err := c.Search(ctx, FloatKey(float64(i*3)/150))
		if err == nil && len(hits) > 0 {
			success++
		}
	}
	if success < 25 {
		t.Errorf("only %d/40 queries succeeded under churn", success)
	}
}

func TestClusterOptionCoverage(t *testing.T) {
	c, err := NewCluster(
		WithPeers(8),
		WithSeed(3),
		WithMaxKeys(20),
		WithMinReplicas(2),
		WithSampleSize(5),
		WithCorrectedProbabilities(),
		WithBootstrapDegree(3),
		WithMaxConstructionRounds(10),
		WithRoutingRedundancy(2),
		WithNetworkLatency(time.Microsecond),
		WithMessageLoss(0),
		WithQueryAlpha(2),
		WithQueryFanout(6),
	)
	if err != nil {
		t.Fatal(err)
	}
	if c.Peer(0).Config().Samples != 5 || !c.Peer(0).Config().UseCorrection {
		t.Error("options not propagated to peers")
	}
	if cfg := c.Peer(0).Config(); cfg.Alpha != 2 || cfg.Fanout != 6 {
		t.Errorf("query concurrency options not propagated: %+v", cfg)
	}
	h, err := NewCluster(WithPeers(4), WithHeuristicProbabilities())
	if err != nil {
		t.Fatal(err)
	}
	if !h.Peer(0).Config().UseHeuristic {
		t.Error("heuristic option not propagated")
	}
	if len(c.Paths()) != 8 {
		t.Error("Paths should list every peer")
	}
}

func TestClusterLiveMutations(t *testing.T) {
	c := buildTestCluster(t, WithWriteQuorum(2), WithMinReplicas(3), WithMaintenanceInterval(10*time.Millisecond))
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		if err := c.IndexFloat(float64(i)/200, fmt.Sprintf("seed-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Mutations before Build are rejected.
	if _, err := c.Insert(ctx, FloatKey(0.5), "early"); !errors.Is(err, ErrNotBuilt) {
		t.Errorf("pre-build insert err = %v, want ErrNotBuilt", err)
	}
	if _, err := c.Build(ctx); err != nil {
		t.Fatal(err)
	}

	rep, err := c.InsertString(ctx, "freshterm", "doc-new")
	if err != nil && !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("insert: %v", err)
	}
	if rep.Acks < 1 {
		t.Errorf("insert acks = %d", rep.Acks)
	}
	hits, err := c.SearchString(ctx, "freshterm")
	if err != nil || len(hits) == 0 {
		t.Fatalf("read-your-write failed: %v %v", hits, err)
	}

	if _, err := c.DeleteString(ctx, "freshterm", "doc-new"); err != nil && !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("delete: %v", err)
	}
	if hits, err := c.SearchString(ctx, "freshterm"); err == nil && len(hits) != 0 {
		t.Errorf("deleted item still returned: %v", hits)
	}
	// Maintenance rounds must not resurrect the deleted pair.
	for i := 0; i < 3; i++ {
		c.MaintenanceRound(ctx)
	}
	if hits, err := c.SearchString(ctx, "freshterm"); err == nil && len(hits) != 0 {
		t.Errorf("maintenance resurrected deleted item: %v", hits)
	}
}

// TestClusterConcurrentMutationsAndQueries drives inserts, deletes and
// searches from many goroutines at once with background maintenance running;
// with -race this is the live system's synchronization test.
func TestClusterConcurrentMutationsAndQueries(t *testing.T) {
	c := buildTestCluster(t, WithMaintenanceInterval(5*time.Millisecond))
	ctx := context.Background()
	for i := 0; i < 150; i++ {
		if err := c.IndexFloat(float64(i)/150, fmt.Sprintf("seed-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Build(ctx); err != nil {
		t.Fatal(err)
	}
	c.StartMaintenance()
	defer c.StopMaintenance()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				key := FloatKey(float64((w*15+i)%150)/150 + 0.0003)
				val := fmt.Sprintf("live-%d-%d", w, i)
				if _, err := c.Insert(ctx, key, val); err != nil && !errors.Is(err, ErrNoQuorum) {
					errs <- fmt.Errorf("insert: %w", err)
					return
				}
				if _, err := c.Search(ctx, key); err != nil {
					errs <- fmt.Errorf("search: %w", err)
					return
				}
				if i%3 == 0 {
					if _, err := c.Delete(ctx, key, val); err != nil && !errors.Is(err, ErrNoQuorum) {
						errs <- fmt.Errorf("delete: %w", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestRunExperimentFacade(t *testing.T) {
	cfg := DefaultExperimentConfig()
	cfg.Peers = 48
	cfg.KeysPerPeer = 8
	cfg.Overlay.MaxKeys = 16
	cfg.Overlay.MinReplicas = 2
	cfg.Queries = 40
	cfg.MaxRounds = 50
	res, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deviation <= 0 || res.QuerySuccessRate <= 0 {
		t.Errorf("experiment facade returned implausible result: %+v", res)
	}
}

// TestBuildUnderMessageLoss builds over a lossy network: a lost
// pre-construction replica push costs one copy, not the whole build.
func TestBuildUnderMessageLoss(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 10; seed++ {
		c, err := NewCluster(WithPeers(32), WithSeed(seed), WithMessageLoss(0.01))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if err := c.IndexString(fmt.Sprintf("term-%03d", i), fmt.Sprintf("doc-%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		report, err := c.Build(ctx)
		if err != nil {
			t.Errorf("seed %d: build failed under 1%% message loss: %v", seed, err)
			continue
		}
		if report.DistinctPartitions < 2 {
			t.Errorf("seed %d: %d partitions, want at least 2", seed, report.DistinctPartitions)
		}
	}
}
