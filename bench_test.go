package pgrid

// This file contains one benchmark per table/figure of the paper's
// evaluation, so `go test -bench=.` exercises every experiment end to end
// (with sizes reduced to keep a full benchmark run in the minutes range).
// The cmd/pgridbench binary runs the same experiments at full size and
// prints the rows/series the paper reports; docs/ARCHITECTURE.md maps the
// figures onto the packages.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"pgrid/internal/churn"
	"pgrid/internal/core"
	"pgrid/internal/keyspace"
	"pgrid/internal/network"
	"pgrid/internal/overlay"
	"pgrid/internal/replication"
	"pgrid/internal/routing"
	"pgrid/internal/sim"
	"pgrid/internal/stats"
	"pgrid/internal/workload"
)

// contextBackground is a tiny helper so benchmarks read uniformly.
func contextBackground() context.Context { return context.Background() }

// benchSweepConfig returns a reduced-size Figure 6 sweep configuration.
func benchSweepConfig() sim.SweepConfig {
	return sim.SweepConfig{
		Repetitions:   1,
		Peers:         96,
		KeysPerPeer:   10,
		MinReplicas:   3,
		MaxKeysFactor: 10,
		Seed:          1,
	}
}

// BenchmarkFig3AlphaSecondDerivative regenerates Figure 3: the numerical
// solution for alpha(p) and its second derivative over the skewed branch.
func BenchmarkFig3AlphaSecondDerivative(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for p := 0.05; p <= 0.3; p += 0.01 {
			if _, err := core.AlphaOf(p); err != nil {
				b.Fatal(err)
			}
			core.AlphaSecondDerivative(p)
		}
	}
}

// BenchmarkFig4PartitionDeviation regenerates Figure 4: the deviation of the
// partition-0 size from n*p for the five models (MVA, SAM, AEP, COR, AUT).
func BenchmarkFig4PartitionDeviation(b *testing.B) {
	cfg := core.ExperimentConfig{N: 300, Samples: 10, Trials: 5, Seed: 1}
	fractions := []float64{0.1, 0.3, 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := core.Sweep(cfg, fractions)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != len(core.AllModels())*len(fractions) {
			b.Fatal("missing points")
		}
	}
}

// BenchmarkFig5Interactions regenerates Figure 5: the number of interactions
// required by each model (the same sweep, reported on the cost axis).
func BenchmarkFig5Interactions(b *testing.B) {
	cfg := core.ExperimentConfig{N: 300, Samples: 10, Trials: 5, Seed: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := core.Sweep(cfg, []float64{0.05, 0.25, 0.5})
		if err != nil {
			b.Fatal(err)
		}
		total := 0.0
		for _, pt := range pts {
			total += pt.MeanInteractions
		}
		if total <= 0 {
			b.Fatal("no interactions measured")
		}
	}
}

// benchRunOnce runs one construction experiment for the given distribution
// and population.
func benchRunOnce(b *testing.B, dist workload.Distribution, peers, nmin, dmaxFactor int, heuristic bool) *sim.Result {
	b.Helper()
	cfg := sim.Config{
		Peers:        peers,
		KeysPerPeer:  10,
		Distribution: dist,
		Overlay: overlay.Config{
			MaxKeys:      dmaxFactor * nmin,
			MinReplicas:  nmin,
			MaxRefs:      3,
			UseHeuristic: heuristic,
		},
		MaxRounds: 80,
		Seed:      int64(peers) + int64(nmin),
	}
	res, err := sim.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig6aDeviationByPopulation regenerates Figure 6(a): deviation per
// distribution for growing peer populations.
func BenchmarkFig6aDeviationByPopulation(b *testing.B) {
	for _, dist := range []workload.Distribution{workload.Uniform{}, workload.NewPareto(1.0)} {
		for _, peers := range []int{64, 128} {
			b.Run(fmt.Sprintf("%s/n=%d", dist.Name(), peers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res := benchRunOnce(b, dist, peers, 3, 10, false)
					if res.Deviation <= 0 {
						b.Fatal("no deviation measured")
					}
				}
			})
		}
	}
}

// BenchmarkFig6bDeviationByReplication regenerates Figure 6(b): deviation
// for increasing required replication n_min.
func BenchmarkFig6bDeviationByReplication(b *testing.B) {
	for _, nmin := range []int{3, 5} {
		b.Run(fmt.Sprintf("nmin=%d", nmin), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchRunOnce(b, workload.NewPareto(1.0), 96, nmin, 10, false)
			}
		})
	}
}

// BenchmarkFig6cDeviationBySampleSize regenerates Figure 6(c): deviation for
// different d_max factors (the sample size available to the estimators).
func BenchmarkFig6cDeviationBySampleSize(b *testing.B) {
	for _, factor := range []int{10, 20, 30} {
		b.Run(fmt.Sprintf("dmax=%dxnmin", factor), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchRunOnce(b, workload.Uniform{}, 96, 3, factor, false)
			}
		})
	}
}

// BenchmarkFig6dTheoryVsHeuristics regenerates Figure 6(d): analytical
// decision probabilities versus naive heuristics.
func BenchmarkFig6dTheoryVsHeuristics(b *testing.B) {
	for _, heuristic := range []bool{false, true} {
		name := "theory"
		if heuristic {
			name = "heuristic"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchRunOnce(b, workload.NewPareto(1.0), 96, 3, 10, heuristic)
			}
		})
	}
}

// BenchmarkFig6eInteractionsPerPeer regenerates Figure 6(e): construction
// interactions per peer across populations.
func BenchmarkFig6eInteractionsPerPeer(b *testing.B) {
	for _, peers := range []int{64, 128} {
		b.Run(fmt.Sprintf("n=%d", peers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := benchRunOnce(b, workload.Uniform{}, peers, 3, 10, false)
				if res.InteractionsPerPeer <= 0 {
					b.Fatal("no interactions measured")
				}
			}
		})
	}
}

// BenchmarkFig6fKeysMoved regenerates Figure 6(f): data keys moved per peer
// during construction.
func BenchmarkFig6fKeysMoved(b *testing.B) {
	for _, dist := range []workload.Distribution{workload.Uniform{}, workload.NewNormal()} {
		b.Run(dist.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := benchRunOnce(b, dist, 96, 3, 10, false)
				if res.KeysMovedPerPeer <= 0 {
					b.Fatal("no key movement measured")
				}
			}
		})
	}
}

// benchTimelineConfig returns a reduced PlanetLab-style timeline.
func benchTimelineConfig() sim.TimelineConfig {
	return sim.TimelineConfig{
		Experiment: sim.Config{
			Peers:        96,
			KeysPerPeer:  10,
			Distribution: workload.NewTextCorpus(workload.DefaultCorpusConfig()),
			Overlay:      overlay.Config{MaxKeys: 30, MinReplicas: 3, MaxRefs: 4},
			MaxRounds:    60,
			Seed:         3,
		},
		JoinEnd:       20 * time.Minute,
		ConstructEnd:  60 * time.Minute,
		QueryEnd:      90 * time.Minute,
		ChurnEnd:      110 * time.Minute,
		QueryInterval: 2 * time.Minute,
		Churn:         churn.PaperModel(),
		HopLatency:    4 * time.Second,
		Step:          time.Minute,
	}
}

// BenchmarkFig7PeersOverTime regenerates Figure 7: the number of
// participating peers over the experiment timeline.
func BenchmarkFig7PeersOverTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := sim.RunTimeline(benchTimelineConfig())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Peers.Buckets()) == 0 {
			b.Fatal("no peer series")
		}
	}
}

// BenchmarkFig8Bandwidth regenerates Figure 8: aggregate maintenance and
// query bandwidth over the timeline.
func BenchmarkFig8Bandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := sim.RunTimeline(benchTimelineConfig())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.MaintenanceBandwidth.Buckets()) == 0 || len(res.QueryBandwidth.Buckets()) == 0 {
			b.Fatal("no bandwidth series")
		}
	}
}

// BenchmarkFig9QueryLatency regenerates Figure 9: query latency over the
// timeline, including the churn phase.
func BenchmarkFig9QueryLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := sim.RunTimeline(benchTimelineConfig())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.QueryLatency.Buckets()) == 0 {
			b.Fatal("no latency series")
		}
	}
}

// BenchmarkTable1SystemMetrics regenerates the in-text metrics of Section
// 5.2 (deviation, path length, hops, replication factor, success rate).
func BenchmarkTable1SystemMetrics(b *testing.B) {
	cfg := sim.Config{
		Peers:        96,
		KeysPerPeer:  10,
		Distribution: workload.NewTextCorpus(workload.DefaultCorpusConfig()),
		Overlay:      overlay.Config{MaxKeys: 30, MinReplicas: 3, MaxRefs: 4},
		MaxRounds:    80,
		Queries:      100,
		Seed:         4,
	}
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.QuerySuccessRate <= 0 {
			b.Fatal("no successful queries")
		}
	}
}

// BenchmarkTable2PartitionCost regenerates the Section 3 cost comparison:
// eager/AEP versus autonomous partitioning at p = 1/2.
func BenchmarkTable2PartitionCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.TheoreticalInteractions(0.5, 1000); err != nil {
			b.Fatal(err)
		}
		core.AutonomousTheoreticalInteractions(1000)
	}
}

// --- Ablation benchmarks for the reproduction's design choices ---

// BenchmarkAblationSampleSize measures the influence of the load-estimation
// sample size (the paper finds none).
func BenchmarkAblationSampleSize(b *testing.B) {
	for _, samples := range []int{0, 2, 10} {
		b.Run(fmt.Sprintf("s=%d", samples), func(b *testing.B) {
			cfg := sim.Config{
				Peers:        96,
				KeysPerPeer:  10,
				Distribution: workload.NewPareto(1.0),
				Overlay:      overlay.Config{MaxKeys: 30, MinReplicas: 3, Samples: samples},
				MaxRounds:    80,
				Seed:         5,
			}
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCorrectedProbabilities compares plain AEP with the
// bias-corrected COR variant in the discrete partitioning model.
func BenchmarkAblationCorrectedProbabilities(b *testing.B) {
	for _, m := range []core.Model{core.ModelAEP, core.ModelCOR} {
		b.Run(m.String(), func(b *testing.B) {
			cfg := core.ExperimentConfig{N: 500, Samples: 10, Trials: 5, Seed: 6}
			for i := 0; i < b.N; i++ {
				if _, err := core.Sweep(cfg, []float64{0.2, 0.4}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationRoutingRedundancy measures query success under churn for
// different numbers of routing references per level.
func BenchmarkAblationRoutingRedundancy(b *testing.B) {
	for _, refs := range []int{1, 3} {
		b.Run(fmt.Sprintf("refs=%d", refs), func(b *testing.B) {
			cfg := sim.Config{
				Peers:           96,
				KeysPerPeer:     10,
				Distribution:    workload.Uniform{},
				Overlay:         overlay.Config{MaxKeys: 30, MinReplicas: 3, MaxRefs: refs},
				MaxRounds:       80,
				Queries:         100,
				OfflineFraction: 0.25,
				Seed:            7,
			}
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationReplicaEstimation exercises the key-overlap replica
// estimator against exact knowledge in the discrete model (the estimator is
// what lets the protocol run without any global coordination).
func BenchmarkAblationReplicaEstimation(b *testing.B) {
	cfg := sim.Config{
		Peers:        96,
		KeysPerPeer:  10,
		Distribution: workload.Uniform{},
		Overlay:      overlay.Config{MaxKeys: 30, MinReplicas: 3},
		MaxRounds:    80,
		Seed:         8,
	}
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.MeanReplicasPerPartition <= 0 {
			b.Fatal("no replication measured")
		}
	}
}

// BenchmarkClusterBuild measures the end-to-end public-API construction
// path.
func BenchmarkClusterBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := NewCluster(WithPeers(48), WithMaxKeys(20), WithMinReplicas(2), WithSeed(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 300; j++ {
			_ = c.IndexFloat(float64(j)/300, fmt.Sprintf("v%d", j))
		}
		b.StartTimer()
		if _, err := c.Build(contextBackground()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Concurrent query-engine benchmarks ---
//
// These compare the α-parallel lookup and concurrent shower fan-out against
// their sequential baselines (α=1, fanout=1) on an overlay with realistic
// message latency and a fraction of stale routing references (offline
// peers), the regime the concurrency is designed for. Run them with -race to
// exercise the in-flight accounting.
//
// Note that the concurrent engine (α=3, fanout=4) is now the DEFAULT for
// every query in this repo, including the paper-figure reproductions above:
// query bandwidth accounting includes the extra racing requests, and success
// under churn benefits from racing plus pruning. Pin alpha=1/fanout=1 in
// overlay.Config for the historical sequential regime.
//
// The query engine prunes stale references as it encounters them, which
// would drain the very regime these benchmarks measure after the first few
// iterations; snapshotRefs/restoreRefs re-introduce the pruned references
// every iteration so all b.N samples see the same overlay.

// snapshotRefs captures every peer's routing references.
func snapshotRefs(c *Cluster) [][][]routing.Ref {
	out := make([][][]routing.Ref, c.Peers())
	for i := range out {
		_, levels := c.Peer(i).Table().Snapshot()
		out[i] = levels
	}
	return out
}

// restoreRefs re-adds previously snapshotted references (pruned stale ones
// included) to every peer's routing table.
func restoreRefs(c *Cluster, snaps [][][]routing.Ref) {
	for i := range snaps {
		t := c.Peer(i).Table()
		for level, refs := range snaps[i] {
			for _, ref := range refs {
				t.Add(level, ref)
			}
		}
	}
}

// benchQueryEngineCluster builds a constructed overlay with per-message
// latency, indexes nKeys float keys, and takes every fifth peer offline so
// routing tables contain stale references.
func benchQueryEngineCluster(b *testing.B, seed int64, latency time.Duration, offline bool, opts ...Option) (*Cluster, []Key) {
	b.Helper()
	c, err := NewCluster(append([]Option{
		WithPeers(64),
		WithMaxKeys(20),
		WithMinReplicas(2),
		WithRoutingRedundancy(4),
		WithSeed(seed),
		WithNetworkLatency(latency),
	}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	const nKeys = 400
	keys := make([]Key, nKeys)
	for j := 0; j < nKeys; j++ {
		keys[j] = FloatKey(float64(j) / nKeys)
		_ = c.Index(keys[j], fmt.Sprintf("v%d", j))
	}
	if _, err := c.Build(contextBackground()); err != nil {
		b.Fatal(err)
	}
	if offline {
		for i := 0; i < c.Peers(); i += 5 {
			c.SetOnline(i, false)
		}
	}
	return c, keys
}

// BenchmarkAlphaLookupStaleRefs measures exact-match lookups whose origin
// races α ∈ {1,2,3,5} references while 20% of the peers are offline: with
// α=1 a stale reference costs its full failure latency (a one-way delay in
// the simulator, a dial timeout on TCP) before the next candidate is tried,
// with α>1 the origin's live candidates answer concurrently. Forwarders
// try one reference at a time whatever α is, so a stale reference at a
// later hop costs its failure latency at every α. Pruned references are
// restored every iteration so each sample sees the same stale-ref regime;
// the p50-us and p95-us metrics report the per-query latency distribution
// (ns/op includes the refresh and is not the figure of merit).
func BenchmarkAlphaLookupStaleRefs(b *testing.B) {
	for _, alpha := range []int{1, 2, 3, 5} {
		b.Run(fmt.Sprintf("alpha=%d", alpha), func(b *testing.B) {
			c, keys := benchQueryEngineCluster(b, 7, 500*time.Microsecond, true, WithQueryAlpha(alpha))
			snaps := snapshotRefs(c)
			origin := c.Peer(1) // peer 1 stays online
			ctx := contextBackground()
			lat := make([]float64, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				restoreRefs(c, snaps)
				start := time.Now()
				_, _ = origin.Query(ctx, keys[(i*37)%len(keys)])
				lat = append(lat, float64(time.Since(start).Microseconds()))
			}
			b.StopTimer()
			sum := stats.Summarize(lat)
			b.ReportMetric(sum.Median, "p50-us")
			b.ReportMetric(sum.P95, "p95-us")
		})
	}
}

// BenchmarkRangeFanout measures a multi-partition shower query with the
// sub-tree fan-out forwarded serially (fanout=1) versus concurrently.
func BenchmarkRangeFanout(b *testing.B) {
	for _, fanout := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			c, _ := benchQueryEngineCluster(b, 8, 500*time.Microsecond, false, WithQueryFanout(fanout))
			ctx := contextBackground()
			lo, hi := FloatKey(0.05), FloatKey(0.95)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.SearchRange(ctx, lo, hi); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBatchVsSingleLookups compares resolving 32 keys as one pipelined
// batch (keys sharing a route share messages) against 32 independent
// sequential lookups from the same origin.
func BenchmarkBatchVsSingleLookups(b *testing.B) {
	const batch = 32
	pick := func(keys []Key, i int) []Key {
		out := make([]Key, batch)
		for j := 0; j < batch; j++ {
			out[j] = keys[(i*batch+j*13)%len(keys)]
		}
		return out
	}
	b.Run("single", func(b *testing.B) {
		c, keys := benchQueryEngineCluster(b, 9, 200*time.Microsecond, false)
		origin := c.Peer(1)
		ctx := contextBackground()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, k := range pick(keys, i) {
				_, _ = origin.Query(ctx, k)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		c, keys := benchQueryEngineCluster(b, 9, 200*time.Microsecond, false)
		origin := c.Peer(1)
		ctx := contextBackground()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = origin.QueryBatch(ctx, pick(keys, i))
		}
	})
}

// BenchmarkClusterQuery measures exact-match query latency on a constructed
// overlay.
func BenchmarkClusterQuery(b *testing.B) {
	c, err := NewCluster(WithPeers(48), WithMaxKeys(20), WithMinReplicas(2), WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	for j := 0; j < 300; j++ {
		_ = c.IndexFloat(float64(j)/300, fmt.Sprintf("v%d", j))
	}
	if _, err := c.Build(contextBackground()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Search(contextBackground(), FloatKey(float64(i%300)/300)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterQueryCacheHit measures the answer-cache hot path: every
// entry peer holds the answer after warm-up, so each search costs a cache
// lookup plus the one-hop clock revalidation probe instead of routing.
// Compare with BenchmarkClusterQuery for the uncached cost.
func BenchmarkClusterQueryCacheHit(b *testing.B) {
	c, err := NewCluster(WithPeers(48), WithMaxKeys(20), WithMinReplicas(2), WithSeed(1),
		WithQueryCache(64, time.Hour))
	if err != nil {
		b.Fatal(err)
	}
	for j := 0; j < 300; j++ {
		_ = c.IndexFloat(float64(j)/300, fmt.Sprintf("v%d", j))
	}
	if _, err := c.Build(contextBackground()); err != nil {
		b.Fatal(err)
	}
	// Warm every peer's cache for the measured key.
	for j := 0; j < 4*c.Peers(); j++ {
		if _, err := c.Search(contextBackground(), FloatKey(0.5)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Search(contextBackground(), FloatKey(0.5)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSyncPeers builds two in-sync replica peers of the root partition with
// the given number of items, for anti-entropy protocol benchmarks.
func benchSyncPeers(b *testing.B, items int) (*overlay.Peer, *overlay.Peer) {
	b.Helper()
	net := network.NewSim(network.SimConfig{Seed: 3})
	cfg := overlay.Config{MaxKeys: 1 << 20, MinReplicas: 1, Seed: 3}
	pa := overlay.New(cfg, net.Endpoint("bench-a"))
	cfgB := cfg
	cfgB.Seed = 4
	pb := overlay.New(cfgB, net.Endpoint("bench-b"))
	pa.AddReplica(pb.Addr())
	pb.AddReplica(pa.Addr())
	for i := 0; i < items; i++ {
		it := replication.Item{Key: FloatKey(float64(i) / float64(items)), Value: fmt.Sprintf("v%d", i)}
		pa.Store().Add(it)
		pb.Store().Add(it)
	}
	return pa, pb
}

// BenchmarkAntiEntropySteadyState measures one digest-protocol sync between
// identical replicas — the steady-state maintenance hot path, whose cost
// must stay independent of the store size.
func BenchmarkAntiEntropySteadyState(b *testing.B) {
	pa, pb := benchSyncPeers(b, 1000)
	ctx := contextBackground()
	if _, err := pa.SyncReplica(ctx, pb.Addr()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pa.SyncReplica(ctx, pb.Addr()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAntiEntropyDelta measures an incremental sync moving a handful of
// changed pairs between 1000-item replicas.
func BenchmarkAntiEntropyDelta(b *testing.B) {
	pa, pb := benchSyncPeers(b, 1000)
	ctx := contextBackground()
	if _, err := pa.SyncReplica(ctx, pb.Addr()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb.Store().Insert(replication.Item{Key: FloatKey(0.111), Value: fmt.Sprintf("hot-%d", i)})
		pa.Store().Delete(FloatKey(0.111), fmt.Sprintf("hot-%d", i-1))
		if _, err := pa.SyncReplica(ctx, pb.Addr()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreMutation measures raw store insert+delete throughput,
// including the incremental digest-tree and version maintenance every
// mutation now performs — the write-amplification guard for the digest
// subsystem.
func BenchmarkStoreMutation(b *testing.B) {
	s := replication.NewStore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := FloatKey(float64(i%4096) / 4096)
		val := fmt.Sprintf("v%d", i%64)
		s.Insert(replication.Item{Key: key, Value: val})
		s.Delete(key, val)
	}
}

// BenchmarkClusterInsertDelete measures the routed live-write path end to
// end (α-raced routing, replica fan-out, quorum-ack).
func BenchmarkClusterInsertDelete(b *testing.B) {
	c, err := NewCluster(WithPeers(48), WithMaxKeys(20), WithMinReplicas(2), WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	for j := 0; j < 300; j++ {
		_ = c.IndexFloat(float64(j)/300, fmt.Sprintf("v%d", j))
	}
	ctx := contextBackground()
	if _, err := c.Build(ctx); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := FloatKey((float64(i%300) + 0.41) / 300)
		val := fmt.Sprintf("live-%d", i)
		_, _ = c.Insert(ctx, key, val)
		_, _ = c.Delete(ctx, key, val)
	}
}

// BenchmarkStoreMutationWAL is BenchmarkStoreMutation against a persistent
// store with the default fsync batching — the WAL-enabled write hot path
// introduced by the durability subsystem. The delta versus
// BenchmarkStoreMutation is the full cost of durability per mutation.
func BenchmarkStoreMutationWAL(b *testing.B) {
	s, err := replication.OpenStore(b.TempDir(), replication.PersistOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := FloatKey(float64(i%4096) / 4096)
		val := fmt.Sprintf("v%d", i%64)
		s.Insert(replication.Item{Key: key, Value: val})
		s.Delete(key, val)
	}
}

// BenchmarkStoreWALAppend measures the per-insert cost of the WAL write
// path alone (buffered frame append under the default fsync batching).
func BenchmarkStoreWALAppend(b *testing.B) {
	s, err := replication.OpenStore(b.TempDir(), replication.PersistOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Bounded value set: re-inserting the same pairs re-stamps their
		// generation in place, so per-op cost stays flat and the WAL
		// append (one record per insert) dominates what is measured.
		s.Insert(replication.Item{Key: FloatKey(float64(i%4096) / 4096), Value: fmt.Sprintf("v%d", i%64)})
	}
}

// BenchmarkStoreRecover measures crash recovery: replaying a 5000-record
// WAL into a fresh store, which bounds a restarted peer's time-to-rejoin
// between checkpoints.
func BenchmarkStoreRecover(b *testing.B) {
	dir := b.TempDir()
	s, err := replication.OpenStore(dir, replication.PersistOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		s.Insert(replication.Item{Key: FloatKey(float64(i%4096) / 4096), Value: fmt.Sprintf("v%d", i%64)})
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := replication.OpenStore(dir, replication.PersistOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreCheckpoint measures writing a snapshot of a 5000-pair store
// and rotating the WAL — the periodic compaction cost the maintenance tick
// pays when the log outgrows the threshold.
func BenchmarkStoreCheckpoint(b *testing.B) {
	s, err := replication.OpenStore(b.TempDir(), replication.PersistOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 5000; i++ {
		s.Insert(replication.Item{Key: FloatKey(float64(i%4096) / 4096), Value: fmt.Sprintf("v%d", i%64)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWireMessage returns a representative mid-size protocol message (a
// query response carrying 16 items) for the codec benchmarks.
func benchWireMessage() overlay.QueryResponse {
	items := make([]replication.Item, 16)
	for i := range items {
		items[i] = replication.Item{
			Key:   FloatKey(float64(i) / 16),
			Value: fmt.Sprintf("document-%04d", i),
			Gen:   uint64(i % 3),
		}
	}
	return overlay.QueryResponse{
		Found:           true,
		Items:           items,
		Hops:            3,
		Responsible:     "127.0.0.1:40404",
		ResponsiblePath: "101101",
	}
}

// BenchmarkWireEncodeBinary measures encoding one protocol message with the
// compact binary codec (the pooled transport's hot path) and reports the
// frame size, the bytes-per-message half of the transport comparison.
func BenchmarkWireEncodeBinary(b *testing.B) {
	msg := benchWireMessage()
	data, err := network.EncodeMessageBinary("bench", msg, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := network.EncodeMessageBinary("bench", msg, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(data)), "wire-B/msg")
}

// BenchmarkWireDecodeBinary measures the binary decode path (frame parse,
// reassembly bookkeeping, the codec derived from the message struct).
func BenchmarkWireDecodeBinary(b *testing.B) {
	data, err := network.EncodeMessageBinary("bench", benchWireMessage(), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := network.DecodeMessageBinary(data); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTCPPair starts a loopback server answering every query with the
// representative response, plus a client endpoint.
func benchTCPPair(b *testing.B) (server, client *network.TCPEndpoint) {
	b.Helper()
	server, err := network.ListenTCP("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	resp := benchWireMessage()
	server.Handle(func(context.Context, network.Addr, any) (any, error) { return resp, nil })
	client, err = network.ListenTCP("127.0.0.1:0")
	if err != nil {
		server.Close()
		b.Fatal(err)
	}
	b.Cleanup(func() {
		client.Close()
		server.Close()
	})
	return server, client
}

// BenchmarkTCPCallBinaryPooled measures one request/response over the
// pooled persistent-connection binary transport — the per-hop wire cost a
// query pays in a TCP deployment.
func BenchmarkTCPCallBinaryPooled(b *testing.B) {
	server, client := benchTCPPair(b)
	ctx := contextBackground()
	req := overlay.QueryRequest{Key: FloatKey(0.42), TTL: 16}
	if _, err := client.Call(ctx, server.Addr(), req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Call(ctx, server.Addr(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTCPCallBinaryPooledParallel drives the pooled transport with
// concurrent callers, the shape α-raced lookups produce: all requests
// multiplex over one connection per peer.
func BenchmarkTCPCallBinaryPooledParallel(b *testing.B) {
	server, client := benchTCPPair(b)
	req := overlay.QueryRequest{Key: FloatKey(0.42), TTL: 16}
	if _, err := client.Call(contextBackground(), server.Addr(), req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ctx := contextBackground()
		for pb.Next() {
			if _, err := client.Call(ctx, server.Addr(), req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStoreCheckpointLargeValues measures checkpointing a store whose
// image is dominated by value bytes — the case where the streamed binary
// snapshot writer's allocation profile differs most from the old
// whole-image json.Marshal (allocs/op is the interesting column).
func BenchmarkStoreCheckpointLargeValues(b *testing.B) {
	s, err := replication.OpenStore(b.TempDir(), replication.PersistOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	value := make([]byte, 4096)
	for i := range value {
		value[i] = byte('a' + i%26)
	}
	for i := 0; i < 2000; i++ {
		s.Insert(replication.Item{Key: FloatKey(float64(i) / 2000), Value: fmt.Sprintf("%s-%d", value, i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEngineStore opens a persistent store on the given engine kind,
// preloads n distinct pairs and checkpoints, so a disk engine's pairs are
// resident in real segment files rather than only the memtable — the
// steady state the engine benchmarks below are meant to measure.
func benchEngineStore(b *testing.B, engine string, n int) *replication.Store {
	b.Helper()
	s, err := replication.OpenStore(b.TempDir(), replication.PersistOptions{Engine: engine})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	for i := 0; i < n; i++ {
		s.Insert(replication.Item{Key: FloatKey(float64(i) / float64(n)), Value: fmt.Sprintf("v%d", i)})
	}
	if err := s.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	return s
}

// engineBenchKinds are the storage engines the Engine* benchmarks compare.
var engineBenchKinds = []string{"mem", "disk"}

// BenchmarkEnginePut measures the store's write path per engine: an insert
// re-stamping a bounded key set (so per-op cost stays flat) on top of a
// 20k-pair resident store.
func BenchmarkEnginePut(b *testing.B) {
	for _, engine := range engineBenchKinds {
		b.Run(engine, func(b *testing.B) {
			s := benchEngineStore(b, engine, 20000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Insert(replication.Item{Key: FloatKey(float64(i%4096) / 4096), Value: fmt.Sprintf("w%d", i%64)})
			}
		})
	}
}

// BenchmarkEngineGet measures exact-key lookups against a 20k-pair store —
// for the disk engine, a memtable miss resolving through the segment
// sparse indexes.
func BenchmarkEngineGet(b *testing.B) {
	for _, engine := range engineBenchKinds {
		b.Run(engine, func(b *testing.B) {
			const n = 20000
			s := benchEngineStore(b, engine, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := s.Lookup(FloatKey(float64(i%n) / n)); len(got) == 0 {
					b.Fatal("lookup missed a preloaded pair")
				}
			}
		})
	}
}

// BenchmarkEngineScanPrefix measures a range ("shower") scan streaming
// roughly 1/16th of a 20k-pair store through the engine iterator.
func BenchmarkEngineScanPrefix(b *testing.B) {
	for _, engine := range engineBenchKinds {
		b.Run(engine, func(b *testing.B) {
			s := benchEngineStore(b, engine, 20000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				count := 0
				s.ScanRange(keyspace.NewRange(FloatKey(0.25), FloatKey(0.3125)), func(replication.Item) bool {
					count++
					return true
				})
				if count == 0 {
					b.Fatal("scan yielded nothing")
				}
			}
		})
	}
}

// BenchmarkEngineRecoverLarge measures reopening a checkpointed 50k-pair
// store. Both install the snapshot's digest cells; the mem policy reads
// the checkpointed segment back into its memtable, while the disk policy
// adopts the segment manifest without scanning the pairs, so its recovery
// time stays flat as stores grow to millions of keys.
func BenchmarkEngineRecoverLarge(b *testing.B) {
	for _, engine := range engineBenchKinds {
		b.Run(engine, func(b *testing.B) {
			const n = 50000
			dir := b.TempDir()
			opts := replication.PersistOptions{Engine: engine}
			s, err := replication.OpenStore(dir, opts)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				s.Insert(replication.Item{Key: FloatKey(float64(i) / n), Value: fmt.Sprintf("v%d", i)})
			}
			if err := s.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := replication.OpenStore(dir, opts)
				if err != nil {
					b.Fatal(err)
				}
				if r.Len() != n {
					b.Fatalf("recovered %d pairs, want %d", r.Len(), n)
				}
				if err := r.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
