// Command pgridbench regenerates the tables and figures of "Indexing
// data-oriented overlay networks" (VLDB 2005) from this reproduction.
//
// Usage:
//
//	pgridbench -fig 3          # alpha''(p) (Figure 3)
//	pgridbench -fig 4          # partitioning deviation per model (Figure 4)
//	pgridbench -fig 5          # interactions per model (Figure 5)
//	pgridbench -fig 6a ... 6f  # construction-quality sweeps (Figure 6)
//	pgridbench -fig 7|8|9      # PlanetLab-style timeline figures
//	pgridbench -fig t1         # Section 5.2 in-text system metrics
//	pgridbench -fig t2         # eager vs autonomous analytic cost
//	pgridbench -fig q          # concurrent query engine: α / fan-out sweep
//	pgridbench -fig w          # live mutations: mixed read/write workload
//	pgridbench -fig dur        # durability: WAL append / checkpoint / recovery
//	pgridbench -fig zipf       # hot keys: answer cache vs skew
//	pgridbench -fig all        # everything
//
// The -quick flag shrinks populations and repetition counts so a full run
// finishes in a couple of minutes on a laptop; drop it to use the paper's
// parameters (n up to 1024 peers, 100 repetitions for Figures 4/5).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"pgrid"
	"pgrid/internal/churn"
	"pgrid/internal/core"
	"pgrid/internal/overlay"
	"pgrid/internal/replication"
	"pgrid/internal/routing"
	"pgrid/internal/sim"
	"pgrid/internal/stats"
	"pgrid/internal/workload"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 3,4,5,6a,6b,6c,6d,6e,6f,7,8,9,t1,t2,q,w,ae,dur,zipf,all")
	quick := flag.Bool("quick", true, "use reduced sizes for fast runs")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	targets := strings.Split(*fig, ",")
	if *fig == "all" {
		targets = []string{"3", "4", "5", "6a", "6b", "6c", "6d", "6e", "6f", "7", "8", "9", "t1", "t2", "q", "w", "ae", "dur", "zipf"}
	}
	for _, t := range targets {
		if err := run(strings.TrimSpace(t), *quick, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "pgridbench: figure %s: %v\n", t, err)
			os.Exit(1)
		}
	}
}

func run(fig string, quick bool, seed int64) error {
	switch fig {
	case "3":
		return figure3()
	case "4", "5":
		return figure45(fig, quick, seed)
	case "6a":
		return figure6a(quick, seed)
	case "6b":
		return figure6b(quick, seed)
	case "6c":
		return figure6c(quick, seed)
	case "6d":
		return figure6d(quick, seed)
	case "6e", "6f":
		return figure6ef(fig, quick, seed)
	case "7", "8", "9":
		return figure789(fig, quick, seed)
	case "t1":
		return table1(quick, seed)
	case "t2":
		return table2()
	case "q":
		return queryEngine(quick, seed)
	case "w":
		return liveWorkload(quick, seed)
	case "ae":
		return antiEntropy(quick, seed)
	case "dur":
		return durability(quick, seed)
	case "zipf":
		return zipfHotKeys(quick, seed)
	default:
		return fmt.Errorf("unknown figure %q", fig)
	}
}

func header(title string) {
	fmt.Printf("\n==== %s ====\n", title)
}

// figure3 prints alpha”(p), the curvature of the balanced-split probability
// on the skewed branch (Figure 3).
func figure3() error {
	header("Figure 3: alpha''(p) over the skewed branch")
	fmt.Printf("%8s %12s %12s %14s\n", "p", "alpha(p)", "beta(p)", "alpha''(p)")
	for p := 0.05; p <= 0.305; p += 0.025 {
		a, err := core.AlphaOf(p)
		if err != nil {
			return err
		}
		b, _ := core.BetaOf(p)
		fmt.Printf("%8.3f %12.4f %12.4f %14.2f\n", p, a, b, core.AlphaSecondDerivative(p))
	}
	return nil
}

// figure45 prints the per-model deviation (Figure 4) or interaction count
// (Figure 5) over the load fractions of the paper.
func figure45(which string, quick bool, seed int64) error {
	cfg := core.DefaultExperimentConfig()
	cfg.Seed = seed
	if quick {
		cfg.N = 400
		cfg.Trials = 20
	}
	if which == "4" {
		header(fmt.Sprintf("Figure 4: deviation of |partition 0| from n*p (N=%d, s=%d, %d trials)", cfg.N, cfg.Samples, cfg.Trials))
	} else {
		header(fmt.Sprintf("Figure 5: total number of interactions (N=%d, s=%d, %d trials)", cfg.N, cfg.Samples, cfg.Trials))
	}
	points, err := core.Sweep(cfg, core.PaperFractions())
	if err != nil {
		return err
	}
	models := core.AllModels()
	fmt.Printf("%8s", "p")
	for _, m := range models {
		fmt.Printf(" %10s", m)
	}
	fmt.Println()
	for _, p := range core.PaperFractions() {
		fmt.Printf("%8.2f", p)
		for _, m := range models {
			for _, pt := range points {
				if pt.Model == m && math.Abs(pt.P-p) < 1e-9 {
					if which == "4" {
						fmt.Printf(" %10.2f", pt.MeanDeviation)
					} else {
						fmt.Printf(" %10.0f", pt.MeanInteractions)
					}
				}
			}
		}
		fmt.Println()
	}
	return nil
}

func sweepConfig(quick bool, seed int64) sim.SweepConfig {
	sc := sim.DefaultSweepConfig()
	sc.Seed = seed
	if quick {
		sc.Repetitions = 2
		sc.Peers = 128
	} else {
		sc.Repetitions = 10
	}
	return sc
}

func figure6a(quick bool, seed int64) error {
	header("Figure 6(a): deviation per distribution and peer population")
	sc := sweepConfig(quick, seed)
	populations := []int{256, 512, 1024}
	if quick {
		populations = []int{64, 128, 256}
	}
	pts, err := sim.SweepPopulations(sc, populations)
	if err != nil {
		return err
	}
	fmt.Print(sim.FormatSweep(pts, "deviation"))
	return nil
}

func figure6b(quick bool, seed int64) error {
	header("Figure 6(b): deviation per required replication factor n_min")
	sc := sweepConfig(quick, seed)
	nmins := []int{5, 10, 15, 20, 25}
	if quick {
		nmins = []int{5, 10, 15}
	}
	pts, err := sim.SweepReplication(sc, nmins)
	if err != nil {
		return err
	}
	fmt.Print(sim.FormatSweep(pts, "deviation"))
	return nil
}

func figure6c(quick bool, seed int64) error {
	header("Figure 6(c): deviation per data sample size d_max")
	sc := sweepConfig(quick, seed)
	factors := []int{10, 20, 30}
	pts, err := sim.SweepSampleSize(sc, factors)
	if err != nil {
		return err
	}
	fmt.Print(sim.FormatSweep(pts, "deviation"))
	return nil
}

func figure6d(quick bool, seed int64) error {
	header("Figure 6(d): theoretical probabilities vs heuristics")
	sc := sweepConfig(quick, seed)
	nmins := []int{5, 10}
	if quick {
		nmins = []int{5}
	}
	pts, err := sim.SweepTheoryVsHeuristics(sc, nmins)
	if err != nil {
		return err
	}
	fmt.Print(sim.FormatSweep(pts, "deviation"))
	return nil
}

func figure6ef(which string, quick bool, seed int64) error {
	sc := sweepConfig(quick, seed)
	populations := []int{256, 512, 1024}
	if quick {
		populations = []int{64, 128, 256}
	}
	pts, err := sim.SweepPopulations(sc, populations)
	if err != nil {
		return err
	}
	if which == "6e" {
		header("Figure 6(e): construction interactions per peer")
		fmt.Print(sim.FormatSweep(pts, "interactions"))
	} else {
		header("Figure 6(f): data keys moved per peer (bandwidth)")
		fmt.Print(sim.FormatSweep(pts, "keysmoved"))
	}
	return nil
}

func figure789(which string, quick bool, seed int64) error {
	cfg := sim.DefaultTimelineConfig()
	cfg.Experiment.Seed = seed
	if quick {
		cfg.Experiment.Peers = 96
		cfg.JoinEnd = 30 * time.Minute
		cfg.ConstructEnd = 90 * time.Minute
		cfg.QueryEnd = 130 * time.Minute
		cfg.ChurnEnd = 160 * time.Minute
		cfg.Churn = churn.PaperModel()
	}
	res, err := sim.RunTimeline(cfg)
	if err != nil {
		return err
	}
	switch which {
	case "7":
		header("Figure 7: number of participating peers over time")
		fmt.Print(res.Peers.Table())
	case "8":
		header("Figure 8: aggregate bandwidth (maintenance vs queries), bytes/sec")
		fmt.Print(res.MaintenanceBandwidth.Table())
		fmt.Print(res.QueryBandwidth.Table())
	case "9":
		header("Figure 9: query latency (seconds)")
		fmt.Print(res.QueryLatency.Table())
	}
	fmt.Println(res.Summary())
	return nil
}

// table1 prints the in-text system metrics of Section 5.2.
func table1(quick bool, seed int64) error {
	header("Section 5.2 system metrics (simulation vs PlanetLab report)")
	cfg := sim.DefaultConfig()
	cfg.Peers = 296
	cfg.Distribution = workload.NewTextCorpus(workload.DefaultCorpusConfig())
	cfg.Seed = seed
	cfg.Queries = 400
	if quick {
		cfg.Peers = 128
		cfg.Queries = 200
	}
	var devs []float64
	reps := 3
	if quick {
		reps = 2
	}
	var last *sim.Result
	for i := 0; i < reps; i++ {
		cfg.Seed = seed + int64(i)
		res, err := sim.Run(cfg)
		if err != nil {
			return err
		}
		devs = append(devs, res.Deviation)
		last = res
	}
	fmt.Printf("%-36s %12s %12s\n", "metric", "paper", "measured")
	fmt.Printf("%-36s %12s %12.2f ± %.2f\n", "load-balancing deviation", "0.38-0.39", stats.Mean(devs), stats.Std(devs))
	fmt.Printf("%-36s %12s %12.2f\n", "mean path length", "≈6", last.MeanPathLength)
	fmt.Printf("%-36s %12s %12.2f\n", "mean query hops", "≈3", last.MeanQueryHops)
	fmt.Printf("%-36s %12s %12.2f\n", "replicas per partition", "≈5", last.MeanReplicasPerPartition)
	fmt.Printf("%-36s %12s %12.0f%%\n", "query success rate", "95-100%", last.QuerySuccessRate*100)
	return nil
}

// queryEngine measures the concurrent query engine: exact-match lookup
// latency for α ∈ {1,2,3,5} with a fifth of the peers offline (stale
// routing references), shower-query latency for serial versus concurrent
// sub-tree fan-out, and 32-key batches versus independent lookups. α=1 and
// fanout=1 are the sequential baselines of the original engine.
func queryEngine(quick bool, seed int64) error {
	header("Query engine: α-parallel lookups and concurrent shower fan-out")
	ctx := context.Background()
	peers, queries := 128, 300
	if quick {
		peers, queries = 64, 120
	}
	latency := 500 * time.Microsecond
	build := func(offline bool, opts ...pgrid.Option) (*pgrid.Cluster, []pgrid.Key, error) {
		c, err := pgrid.NewCluster(append([]pgrid.Option{
			pgrid.WithPeers(peers),
			pgrid.WithMaxKeys(20),
			pgrid.WithMinReplicas(2),
			pgrid.WithRoutingRedundancy(4),
			pgrid.WithSeed(seed),
			pgrid.WithNetworkLatency(latency),
		}, opts...)...)
		if err != nil {
			return nil, nil, err
		}
		n := 6 * peers
		keys := make([]pgrid.Key, n)
		for j := range keys {
			keys[j] = pgrid.FloatKey(float64(j) / float64(n))
			if err := c.Index(keys[j], fmt.Sprintf("v%d", j)); err != nil {
				return nil, nil, err
			}
		}
		if _, err := c.Build(ctx); err != nil {
			return nil, nil, err
		}
		if offline {
			for i := 0; i < peers; i += 5 {
				c.SetOnline(i, false)
			}
		}
		return c, keys, nil
	}

	// The engine prunes stale references as it hits them; restore them
	// before every query so each sample measures the same 20%-stale regime.
	snapshotRefs := func(c *pgrid.Cluster) [][][]routing.Ref {
		out := make([][][]routing.Ref, c.Peers())
		for i := range out {
			_, levels := c.Peer(i).Table().Snapshot()
			out[i] = levels
		}
		return out
	}
	restoreRefs := func(c *pgrid.Cluster, snaps [][][]routing.Ref) {
		for i := range snaps {
			t := c.Peer(i).Table()
			for level, refs := range snaps[i] {
				for _, ref := range refs {
					t.Add(level, ref)
				}
			}
		}
	}

	fmt.Printf("%d peers, %v one-way latency, 20%% offline during lookups\n", peers, latency)
	fmt.Println("(the concurrent engine is the repo-wide default; alpha=1/fanout=1 is the sequential baseline)")
	fmt.Println()
	fmt.Printf("%-24s %10s %10s %10s %10s\n", "exact-match lookup", "p50 (ms)", "p95 (ms)", "mean (ms)", "success")
	for _, alpha := range []int{1, 2, 3, 5} {
		c, keys, err := build(true, pgrid.WithQueryAlpha(alpha))
		if err != nil {
			return err
		}
		snaps := snapshotRefs(c)
		origin := c.Peer(1)
		var lat []float64
		ok := 0
		for i := 0; i < queries; i++ {
			restoreRefs(c, snaps)
			start := time.Now()
			_, err := origin.Query(ctx, keys[(i*37)%len(keys)])
			lat = append(lat, float64(time.Since(start).Microseconds())/1000)
			if err == nil {
				ok++
			}
		}
		s := stats.Summarize(lat)
		fmt.Printf("%-24s %10.2f %10.2f %10.2f %9.0f%%\n",
			fmt.Sprintf("alpha=%d", alpha), s.Median, s.P95, s.Mean, 100*float64(ok)/float64(queries))
	}

	fmt.Printf("\n%-24s %10s %10s %10s\n", "shower range [.05,.95)", "p50 (ms)", "p95 (ms)", "mean (ms)")
	rangeReps := queries / 10
	for _, fanout := range []int{1, 4, 8} {
		c, _, err := build(false, pgrid.WithQueryFanout(fanout))
		if err != nil {
			return err
		}
		lo, hi := pgrid.FloatKey(0.05), pgrid.FloatKey(0.95)
		var lat []float64
		for i := 0; i < rangeReps; i++ {
			start := time.Now()
			if _, err := c.SearchRange(ctx, lo, hi); err != nil {
				return err
			}
			lat = append(lat, float64(time.Since(start).Microseconds())/1000)
		}
		s := stats.Summarize(lat)
		fmt.Printf("%-24s %10.2f %10.2f %10.2f\n", fmt.Sprintf("fanout=%d", fanout), s.Median, s.P95, s.Mean)
	}

	fmt.Printf("\n%-24s %10s\n", "32-key batch", "mean (ms)")
	for _, mode := range []string{"single lookups", "QueryBatch"} {
		c, keys, err := build(false)
		if err != nil {
			return err
		}
		origin := c.Peer(1)
		reps := queries / 10
		start := time.Now()
		for i := 0; i < reps; i++ {
			batch := make([]pgrid.Key, 32)
			for j := range batch {
				batch[j] = keys[(i*32+j*13)%len(keys)]
			}
			if mode == "QueryBatch" {
				origin.QueryBatch(ctx, batch)
			} else {
				for _, k := range batch {
					_, _ = origin.Query(ctx, k)
				}
			}
		}
		fmt.Printf("%-24s %10.2f\n", mode, float64(time.Since(start).Microseconds())/1000/float64(reps))
	}
	return nil
}

// liveWorkload measures the live mutation subsystem: insert and delete
// latency under a mixed read/write workload (70/20/10) against a constructed
// overlay with background maintenance running, and the read-your-writes
// convergence time — how long after a quorum-acked insert every online
// responsible peer serves the item, with a fifth of the peers churning
// through the write phase.
func liveWorkload(quick bool, seed int64) error {
	header("Live mutations: routed writes, quorum-ack, maintenance convergence")
	ctx := context.Background()
	peers, ops := 96, 600
	if quick {
		peers, ops = 48, 240
	}
	latency := 500 * time.Microsecond
	c, err := pgrid.NewCluster(
		pgrid.WithPeers(peers),
		pgrid.WithMaxKeys(20),
		pgrid.WithMinReplicas(3),
		pgrid.WithWriteQuorum(2),
		pgrid.WithRoutingRedundancy(4),
		pgrid.WithSeed(seed),
		pgrid.WithNetworkLatency(latency),
		pgrid.WithMaintenanceInterval(5*time.Millisecond),
	)
	if err != nil {
		return err
	}
	n := 6 * peers
	keys := make([]pgrid.Key, n)
	for j := range keys {
		keys[j] = pgrid.FloatKey(float64(j) / float64(n))
		if err := c.Index(keys[j], fmt.Sprintf("v%d", j)); err != nil {
			return err
		}
	}
	if _, err := c.Build(ctx); err != nil {
		return err
	}
	c.StartMaintenance()
	defer c.StopMaintenance()

	fmt.Printf("%d peers, %v one-way latency, write quorum 2, maintenance every 5ms\n\n", peers, latency)

	// Mixed workload: 70% reads, 20% inserts, 10% deletes of earlier
	// inserts.
	var insertLat, deleteLat []float64
	type live struct {
		key pgrid.Key
		val string
	}
	var lives []live
	reads, readHits, quorumMisses := 0, 0, 0
	for i := 0; i < ops; i++ {
		switch {
		case i%10 < 7:
			reads++
			if hits, err := c.Search(ctx, keys[(i*37)%len(keys)]); err == nil && len(hits) > 0 {
				readHits++
			}
		case i%10 < 9:
			w := live{key: pgrid.FloatKey(float64(i%n)/float64(n) + 0.31/float64(2*n)), val: fmt.Sprintf("live-%d", i)}
			start := time.Now()
			_, err := c.Insert(ctx, w.key, w.val)
			insertLat = append(insertLat, float64(time.Since(start).Microseconds())/1000)
			if errors.Is(err, pgrid.ErrNoQuorum) {
				quorumMisses++
			} else if err != nil {
				return err
			}
			lives = append(lives, w)
		default:
			if len(lives) == 0 {
				continue
			}
			w := lives[len(lives)-1]
			lives = lives[:len(lives)-1]
			start := time.Now()
			if _, err := c.Delete(ctx, w.key, w.val); err != nil && !errors.Is(err, pgrid.ErrNoQuorum) {
				return err
			}
			deleteLat = append(deleteLat, float64(time.Since(start).Microseconds())/1000)
		}
	}
	fmt.Printf("%-24s %10s %10s %10s\n", "mixed workload op", "p50 (ms)", "p95 (ms)", "mean (ms)")
	for _, row := range []struct {
		name string
		lat  []float64
	}{{"insert (quorum=2)", insertLat}, {"delete (quorum=2)", deleteLat}} {
		if len(row.lat) == 0 {
			continue
		}
		s := stats.Summarize(row.lat)
		fmt.Printf("%-24s %10.2f %10.2f %10.2f\n", row.name, s.Median, s.P95, s.Mean)
	}
	fmt.Printf("%-24s %9.0f%%   (%d quorum misses of %d inserts)\n", "read success",
		100*float64(readHits)/float64(reads), quorumMisses, len(insertLat))

	// Read-your-writes convergence under churn: a fifth of the peers is
	// offline while fresh items are inserted; once they return, background
	// maintenance must deliver each item to every responsible peer.
	for i := 0; i < peers; i += 5 {
		c.SetOnline(i, false)
	}
	m := 20
	type pending struct {
		key   pgrid.Key
		val   string
		since time.Time
	}
	var writes []pending
	unroutable := 0
	for i := 0; i < m; i++ {
		key := pgrid.FloatKey((float64(i) + 0.137) / float64(m))
		val := fmt.Sprintf("conv-%d", i)
		if _, err := c.Insert(ctx, key, val); err != nil && !errors.Is(err, pgrid.ErrNoQuorum) {
			// With a fifth of the peers offline a partition can lose all its
			// replicas; such writes cannot route and are not measured.
			unroutable++
			continue
		}
		writes = append(writes, pending{key: key, val: val, since: time.Now()})
	}
	for i := 0; i < peers; i += 5 {
		c.SetOnline(i, true)
	}
	var convLat []float64
	deadline := time.Now().Add(30 * time.Second)
	for len(writes) > 0 && time.Now().Before(deadline) {
		remaining := writes[:0]
		for _, w := range writes {
			converged := true
			for i := 0; i < c.Peers(); i++ {
				p := c.Peer(i)
				if !p.Table().Responsible(w.key) {
					continue
				}
				found := false
				for _, it := range p.Store().Lookup(w.key) {
					if it.Value == w.val {
						found = true
						break
					}
				}
				if !found {
					converged = false
					break
				}
			}
			if converged {
				convLat = append(convLat, float64(time.Since(w.since).Microseconds())/1000)
			} else {
				remaining = append(remaining, w)
			}
		}
		writes = append([]pending(nil), remaining...)
		time.Sleep(2 * time.Millisecond)
	}
	if len(convLat) > 0 {
		s := stats.Summarize(convLat)
		fmt.Printf("\n%-24s %10.2f %10.2f %10.2f   (%d/%d converged, 20%% peers churned, %d unroutable)\n",
			"convergence time (ms)", s.Median, s.P95, s.Mean, len(convLat), m, unroutable)
	}
	if len(writes) > 0 {
		fmt.Printf("%-24s %d writes had not reached every responsible peer at the deadline\n", "", len(writes))
	}
	return nil
}

// antiEntropy measures maintenance bandwidth as a function of lifetime
// deletes: the digest/delta protocol pays a constant digest round in steady
// state however many deletes the overlay has ever seen, and the tombstone GC
// bounds the metadata itself — compared here against the same protocol
// keeping tombstones forever. docs/ARCHITECTURE.md's anti-entropy protocol
// notes describe both mechanisms.
func antiEntropy(quick bool, seed int64) error {
	header("Anti-entropy: maintenance bytes/tick vs lifetime deletes")
	ctx := context.Background()
	peers, items := 48, 240
	epochDeletes := []int{30, 300, 3000}
	if quick {
		peers, items = 32, 120
		epochDeletes = []int{20, 200, 2000}
	}
	measureTicks := 8

	build := func(opts ...pgrid.Option) (*pgrid.Cluster, error) {
		base := []pgrid.Option{
			pgrid.WithPeers(peers),
			pgrid.WithMaxKeys(20),
			pgrid.WithMinReplicas(2),
			pgrid.WithRoutingRedundancy(4),
			pgrid.WithSeed(seed),
		}
		c, err := pgrid.NewCluster(append(base, opts...)...)
		if err != nil {
			return nil, err
		}
		for j := 0; j < items; j++ {
			if err := c.Index(pgrid.FloatKey(float64(j)/float64(items)), fmt.Sprintf("v%d", j)); err != nil {
				return nil, err
			}
		}
		if _, err := c.Build(ctx); err != nil {
			return nil, err
		}
		return c, nil
	}

	keep, err := build()
	if err != nil {
		return err
	}
	gc, err := build(pgrid.WithTombstoneGC(0, 64))
	if err != nil {
		return err
	}

	maintBytes := func(c *pgrid.Cluster) float64 { return c.MetricsSnapshot().MaintenanceBytes }
	tombstones := func(c *pgrid.Cluster) int {
		n := 0
		for i := 0; i < c.Peers(); i++ {
			n += c.Peer(i).Store().TombstoneCount()
		}
		return n
	}
	// churn writes: insert a fresh pair, then delete it, so every round
	// trip leaves one more lifetime delete behind.
	writeDelete := func(c *pgrid.Cluster, i int) {
		key := pgrid.FloatKey((float64(i%items) + 0.37) / float64(items))
		val := fmt.Sprintf("churn-%d", i)
		_, _ = c.Insert(ctx, key, val)
		_, _ = c.Delete(ctx, key, val)
	}
	bytesPerTick := func(c *pgrid.Cluster) float64 {
		// Let replicas converge first so the measurement sees the steady
		// state, then average the cost of the next ticks.
		for i := 0; i < 4; i++ {
			c.MaintenanceRound(ctx)
		}
		start := maintBytes(c)
		for i := 0; i < measureTicks; i++ {
			c.MaintenanceRound(ctx)
		}
		return (maintBytes(c) - start) / float64(measureTicks)
	}

	fmt.Printf("%d peers, %d base items, %d maintenance ticks per measurement\n", peers, items, measureTicks)
	fmt.Println("no-gc = digest/delta protocol, tombstones kept forever; gc = same protocol + GC horizon of 64 versions")
	fmt.Println()
	fmt.Printf("%16s %18s %18s %16s %16s\n", "lifetime deletes", "no-gc B/tick", "gc B/tick", "no-gc tombstones", "gc tombstones")
	done := 0
	for _, target := range epochDeletes {
		for ; done < target; done++ {
			writeDelete(keep, done)
			writeDelete(gc, done)
			if done%50 == 49 {
				// Background maintenance keeps running while the write
				// workload churns, as it would in production.
				keep.MaintenanceRound(ctx)
				gc.MaintenanceRound(ctx)
			}
		}
		kb := bytesPerTick(keep)
		gb := bytesPerTick(gc)
		fmt.Printf("%16d %18.0f %18.0f %16d %16d\n", done, kb, gb, tombstones(keep), tombstones(gc))
	}
	syncs := gc.MetricsSnapshot().Counts
	fmt.Printf("\ngc cluster sync rounds: %.0f in-sync, %.0f delta, %.0f full\n",
		syncs[overlay.SyncsInSync], syncs[overlay.SyncsDelta], syncs[overlay.SyncsFull])
	return nil
}

// table2 prints the analytic interaction costs the paper derives in
// Section 3: ln2 per peer for eager partitioning versus 2*ln2 for
// autonomous partitioning at p = 1/2, plus the growth of t*(p) with skew.
func table2() error {
	header("Section 3 analytic interaction costs")
	fmt.Printf("eager / AEP interactions per peer at p=0.5:      %.4f (ln 2)\n", math.Ln2)
	fmt.Printf("autonomous partitioning interactions per peer:   %.4f (2 ln 2)\n", 2*math.Ln2)
	fmt.Printf("\n%8s %16s\n", "p", "t*(p) per peer")
	for _, p := range core.PaperFractions() {
		t, err := core.TerminationTime(p)
		if err != nil {
			return err
		}
		fmt.Printf("%8.2f %16.4f\n", p, t)
	}
	return nil
}

// durability prints the costs of the persistence subsystem: WAL append
// latency on the write path, checkpoint (snapshot + WAL truncation) cost,
// and crash-recovery time as the store grows — plus a cluster restart
// demonstrating that recovered peers rejoin through the in-sync/delta
// anti-entropy paths.
func durability(quick bool, seed int64) error {
	header("Durability: WAL append / checkpoint / recovery (beyond the paper)")
	sizes := []int{1000, 10000, 100000}
	if quick {
		sizes = []int{1000, 10000}
	}
	fmt.Printf("%10s %18s %16s %16s\n", "pairs", "WAL append µs/op", "checkpoint ms", "recovery ms")
	for _, n := range sizes {
		dir, err := os.MkdirTemp("", "pgridbench-dur-*")
		if err != nil {
			return err
		}
		s, err := replication.OpenStore(dir, replication.PersistOptions{})
		if err != nil {
			return err
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			s.Insert(replication.Item{
				Key:   pgrid.FloatKey(float64(i%65536) / 65536),
				Value: fmt.Sprintf("v%d", i),
			})
		}
		appendUS := float64(time.Since(start).Microseconds()) / float64(n)
		start = time.Now()
		if err := s.Checkpoint(); err != nil {
			return err
		}
		checkpointMS := float64(time.Since(start).Microseconds()) / 1000
		// Half the pairs mutate again so recovery replays a WAL tail on
		// top of the snapshot, like a real crash between checkpoints.
		for i := 0; i < n/2; i++ {
			s.Insert(replication.Item{
				Key:   pgrid.FloatKey(float64(i%65536) / 65536),
				Value: fmt.Sprintf("v%d", i),
			})
		}
		if err := s.Close(); err != nil {
			return err
		}
		start = time.Now()
		r, err := replication.OpenStore(dir, replication.PersistOptions{})
		if err != nil {
			return err
		}
		recoveryMS := float64(time.Since(start).Microseconds()) / 1000
		if r.Len() != s.Len() {
			return fmt.Errorf("recovery diverged: %d pairs, want %d", r.Len(), s.Len())
		}
		if err := r.Close(); err != nil {
			return err
		}
		os.RemoveAll(dir)
		fmt.Printf("%10d %18.2f %16.2f %16.2f\n", n, appendUS, checkpointMS, recoveryMS)
	}

	// Cluster restart: a quarter of the peers crash and recover; their
	// post-restart anti-entropy must run through the cheap paths.
	dir, err := os.MkdirTemp("", "pgridbench-dur-cluster-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cluster, err := pgrid.NewCluster(
		pgrid.WithPeers(16), pgrid.WithSeed(seed),
		pgrid.WithPersistence(dir), pgrid.WithMinReplicas(2), pgrid.WithMaxKeys(10),
	)
	if err != nil {
		return err
	}
	defer cluster.Close()
	ctx := context.Background()
	for i := 0; i < 64; i++ {
		if err := cluster.IndexFloat(float64(i)/64, fmt.Sprintf("doc-%d", i)); err != nil {
			return err
		}
	}
	if _, err := cluster.Build(ctx); err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		cluster.MaintenanceRound(ctx)
	}
	start := time.Now()
	for _, i := range []int{1, 5, 9, 13} {
		if err := cluster.RestartPeer(i); err != nil {
			return err
		}
	}
	restartMS := float64(time.Since(start).Microseconds()) / 1000
	for i := 0; i < 3; i++ {
		cluster.MaintenanceRound(ctx)
	}
	var syncs overlay.Counts
	for _, i := range []int{1, 5, 9, 13} {
		syncs.Add(cluster.Peer(i).Counts())
	}
	fmt.Printf("\ncluster restart (4/16 peers): %.1f ms; post-restart syncs: %.0f in-sync, %.0f delta, %.0f full\n",
		restartMS, syncs[overlay.SyncsInSync], syncs[overlay.SyncsDelta], syncs[overlay.SyncsFull])
	return nil
}

// zipfHotKeys measures the read path under skewed key popularity (beyond the
// paper): exact-match latency for a uniform workload versus Zipf-skewed ones,
// with the query answer cache disabled and enabled. The simulated network
// charges every endpoint a service cost per message byte, so the replicas of
// a hot partition become a genuine queueing bottleneck: without the cache,
// p95 latency grows steeply with skew as requests pile up behind the hot
// replicas' large answers; with it, most hot-key reads collapse into a cheap
// one-hop clock probe served from the forwarding peers' caches, and the tail
// stays near the uniform baseline.
func zipfHotKeys(quick bool, seed int64) error {
	header("Hot keys: answer cache vs Zipf skew")
	ctx := context.Background()
	peers, vocab, valsPerKey := 48, 64, 12
	workers, queriesPerWorker := 12, 400
	if quick {
		peers, queriesPerWorker = 32, 200
	}
	const (
		fixedCost = 20 * time.Microsecond
		byteCost  = 200 * time.Nanosecond
	)

	keys := make([]pgrid.Key, vocab)
	build := func(features bool) (*pgrid.Cluster, error) {
		opts := []pgrid.Option{
			pgrid.WithPeers(peers),
			pgrid.WithMaxKeys(12),
			pgrid.WithMinReplicas(2),
			pgrid.WithRoutingRedundancy(4),
			pgrid.WithSeed(seed),
			pgrid.WithServiceCost(fixedCost, byteCost),
		}
		if features {
			opts = append(opts, pgrid.WithQueryCache(256, 250*time.Millisecond))
		}
		c, err := pgrid.NewCluster(opts...)
		if err != nil {
			return nil, err
		}
		for k := 0; k < vocab; k++ {
			// Popularity rank is assigned to evenly spread key positions, so
			// skew concentrates load on one partition rather than on the
			// lexicographic neighbourhood a shared string prefix would give.
			keys[k] = pgrid.FloatKey((float64(k) + 0.5) / float64(vocab))
			for v := 0; v < valsPerKey; v++ {
				// Values sized like document identifiers, so a full answer
				// costs an order of magnitude more service time than a clock
				// probe.
				val := fmt.Sprintf("doc-%03d-%02d-%064d", k, v, k*valsPerKey+v)
				if err := c.Index(keys[k], val); err != nil {
					return nil, err
				}
			}
		}
		if _, err := c.Build(ctx); err != nil {
			return nil, err
		}
		return c, nil
	}

	workloads := []struct {
		name string
		s    float64 // Zipf exponent; 0 = uniform
	}{
		{"uniform", 0},
		{"zipf s=0.9", 0.9},
		{"zipf s=1.2", 1.2},
	}

	run := func(c *pgrid.Cluster, s float64) ([]float64, error) {
		var zipf *workload.Zipf
		if s != 0 {
			zipf = workload.NewZipf(vocab, s)
		}
		draw := func(rng *rand.Rand) pgrid.Key {
			if zipf == nil {
				return keys[rng.Intn(vocab)]
			}
			return keys[zipf.Rank(rng)]
		}
		// Warm-up primes the caches; only the second phase is measured.
		for phase, n := 0, queriesPerWorker/4; phase < 2; phase++ {
			if phase == 1 {
				n = queriesPerWorker
			}
			lat := make([][]float64, workers)
			errs := make([]error, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed + int64(1000*phase+w)))
					for i := 0; i < n; i++ {
						start := time.Now()
						if _, err := c.Search(ctx, draw(rng)); err != nil {
							errs[w] = err
							return
						}
						lat[w] = append(lat[w], float64(time.Since(start).Microseconds())/1000)
					}
				}(w)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return nil, err
				}
			}
			if phase == 1 {
				var all []float64
				for _, l := range lat {
					all = append(all, l...)
				}
				return all, nil
			}
		}
		return nil, nil
	}

	fmt.Printf("%d peers, %d keys x %d values, service cost %v + %v/B, %d workers x %d queries\n",
		peers, vocab, valsPerKey, fixedCost, byteCost, workers, queriesPerWorker)
	fmt.Println("baseline = cache disabled; features = WithQueryCache")
	fmt.Println()
	fmt.Printf("%-12s %-12s %9s %9s %9s %9s\n", "config", "workload", "p50 (ms)", "p95 (ms)", "mean", "hits")
	p95 := make(map[[2]string]float64)
	for _, features := range []bool{false, true} {
		name := "baseline"
		if features {
			name = "features"
		}
		for _, wl := range workloads {
			c, err := build(features)
			if err != nil {
				return err
			}
			lat, err := run(c, wl.s)
			if err != nil {
				c.Close()
				return err
			}
			snap := c.MetricsSnapshot()
			c.Close()
			st := stats.Summarize(lat)
			p95[[2]string{name, wl.name}] = st.P95
			fmt.Printf("%-12s %-12s %9.2f %9.2f %9.2f %9.0f\n",
				name, wl.name, st.Median, st.P95, st.Mean, snap.Counts[overlay.CacheHits])
		}
	}
	fmt.Println()
	for _, name := range []string{"baseline", "features"} {
		base := p95[[2]string{name, "uniform"}]
		if base <= 0 {
			continue
		}
		fmt.Printf("%-12s p95 growth uniform -> zipf s=1.2: %.1fx\n",
			name, p95[[2]string{name, "zipf s=1.2"}]/base)
	}
	fmt.Println("\nNear-flat growth for the features row is the figure's point: skew no")
	fmt.Println("longer concentrates full-answer work on the hot partition's replicas.")
	return nil
}
