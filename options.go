package pgrid

import (
	"time"

	"pgrid/internal/network"
	"pgrid/internal/overlay"
	"pgrid/internal/sim"
)

// options holds the tunable parameters of a Cluster.
//
// The full option surface, by concern:
//
//	Topology      WithPeers, WithBootstrapDegree, WithMaxConstructionRounds
//	Balancing     WithMaxKeys, WithMinReplicas, WithSampleSize,
//	              WithCorrectedProbabilities, WithHeuristicProbabilities
//	Routing       WithRoutingRedundancy, WithQueryAlpha, WithQueryFanout
//	Reads         WithQueryCache
//	Writes        WithWriteQuorum
//	Maintenance   WithMaintenanceInterval, WithTombstoneGC
//	Durability    WithPersistence, WithStorageEngine
//	Network       WithNetworkLatency, WithMessageLoss, WithServiceCost
//	Reproducing   WithSeed
type options struct {
	// cluster configures the peers and the construction; its KeysPerPeer,
	// Distribution and query fields are unused.
	cluster sim.Config
	// network configures the simulated network; its seed is the cluster's.
	network       network.SimConfig
	maintainEvery time.Duration
}

// defaultOptions returns the paper's parameters: n_min = 5,
// d_max = 10*n_min, 32 peers.
func defaultOptions() options {
	return options{
		cluster: sim.Config{
			Peers: 32,
			Overlay: overlay.Config{
				MaxKeys:     50,
				MinReplicas: 5,
				MaxRefs:     3,
			},
			MaxRounds: 100,
			Seed:      1,
		},
		maintainEvery: 100 * time.Millisecond,
	}
}

// Option customises a Cluster.
type Option func(*options)

// WithPeers sets the number of peers in the cluster.
func WithPeers(n int) Option { return func(o *options) { o.cluster.Peers = n } }

// WithSeed makes the cluster's randomness reproducible.
func WithSeed(seed int64) Option { return func(o *options) { o.cluster.Seed = seed } }

// WithMaxKeys sets d_max, the storage-load threshold above which a
// partition is split.
func WithMaxKeys(d int) Option { return func(o *options) { o.cluster.Overlay.MaxKeys = d } }

// WithMinReplicas sets n_min, the minimal number of replica peers per
// partition.
func WithMinReplicas(n int) Option { return func(o *options) { o.cluster.Overlay.MinReplicas = n } }

// WithSampleSize sets the number of locally stored keys sampled when peers
// estimate load fractions (0 = use all local keys).
func WithSampleSize(s int) Option { return func(o *options) { o.cluster.Overlay.Samples = s } }

// WithCorrectedProbabilities enables the bias-corrected decision
// probabilities (the paper's COR variant).
func WithCorrectedProbabilities() Option {
	return func(o *options) { o.cluster.Overlay.UseCorrection = true }
}

// WithHeuristicProbabilities replaces the analytical decision probabilities
// by the naive heuristic ones (the Figure 6(d) ablation).
func WithHeuristicProbabilities() Option {
	return func(o *options) { o.cluster.Overlay.UseHeuristic = true }
}

// WithRoutingRedundancy sets the number of routing references kept per
// trie level.
func WithRoutingRedundancy(refs int) Option {
	return func(o *options) { o.cluster.Overlay.MaxRefs = refs }
}

// WithQueryAlpha sets α, the race width of the peer that accepts a read
// (an exact-match or batch query): it races α routing references
// concurrently, the first responsible answer wins, and stale references
// encountered by the losers are pruned, so a dead reference does not hold
// the read for a full timeout while an alternative answers. Every later
// forwarder tries one reference at a time, moving on after a failure or a
// dead-end answer, so a read costs α forwards at its origin plus one per
// later hop. Inserts and deletes are never raced: every peer sends one
// copy and tries its next reference only after a failure. 1 restores the
// sequential try-one-reference-at-a-time behaviour for reads; the default
// is overlay.DefaultAlpha (3).
func WithQueryAlpha(alpha int) Option { return func(o *options) { o.cluster.Overlay.Alpha = alpha } }

// WithQueryFanout bounds how many overlapping sub-trees a range ("shower")
// query — or next-hop groups of a batch query — forwards to concurrently.
// 1 restores the serial branch-after-branch behaviour; the default is
// overlay.DefaultFanout (4).
func WithQueryFanout(n int) Option { return func(o *options) { o.cluster.Overlay.Fanout = n } }

// WithQueryCache enables the query-path answer cache on every peer: a peer
// that forwards an exact-match lookup memoizes the answer (bounded LRU of
// size entries, each expiring after ttl), and serves later lookups for the
// same key after revalidating the entry with a one-round-trip logical-clock
// probe to the responsible replica that produced it. A probe mismatch —
// any write to the partition advances its clock — invalidates the entry and
// routes normally, so cached reads are never stale (read-your-writes
// holds). A size of 0 disables the cache (the default); a ttl of 0 uses
// overlay.DefaultQueryCacheTTL.
func WithQueryCache(size int, ttl time.Duration) Option {
	return func(o *options) {
		o.cluster.Overlay.QueryCacheSize = size
		o.cluster.Overlay.QueryCacheTTL = ttl
	}
}

// WithWriteQuorum sets the number of replica acknowledgements (including
// the responsible peer itself) a routed Insert or Delete needs before it is
// reported successful. 1 (the default) accepts the responsible peer alone;
// higher values trade write latency for durability under churn. Writes that
// miss the quorum return ErrNoQuorum but still reach the replicas that
// acknowledged, and background maintenance spreads them further.
func WithWriteQuorum(n int) Option { return func(o *options) { o.cluster.Overlay.WriteQuorum = n } }

// WithMaintenanceInterval sets the mean pause between two background
// maintenance ticks per peer (anti-entropy with a random replica plus
// routing-reference probing) once StartMaintenance is called. The default is
// 100ms, suitable for the in-process simulated network.
func WithMaintenanceInterval(d time.Duration) Option {
	return func(o *options) {
		if d > 0 {
			o.maintainEvery = d
		}
	}
}

// WithTombstoneGC bounds the lifetime of delete tombstones (Cassandra-style
// gc_grace): a tombstone is pruned once it is older than age (wall clock) or
// once the peer's store clock has advanced by more than versions since it
// was recorded — whichever criterion is configured and met first; a zero
// disables that criterion. The horizon must comfortably exceed the
// maintenance interval: the digest/delta anti-entropy protocol detects
// replicas that stayed away longer and rebuilds them from an authoritative
// replica instead of merging (which could resurrect pruned deletes), at the
// cost of discarding whatever the stale replica never synced out. Without
// this option tombstones are kept forever.
func WithTombstoneGC(age time.Duration, versions uint64) Option {
	return func(o *options) {
		o.cluster.Overlay.TombstoneGCAge = age
		o.cluster.Overlay.TombstoneGCVersions = versions
	}
}

// WithPersistence makes every peer's replica state durable: each peer's
// store is backed by a CRC-framed, fsync-batched write-ahead log plus
// periodic compacted snapshots under dir/peer-NNNNN, capturing its items,
// delete tombstones, logical clock, tombstone-GC floor, partition path and
// per-replica anti-entropy baselines. Cluster.RestartPeer then simulates a
// process crash and recovery: the restarted peer reopens its store and
// resumes maintenance through the cheap exact-delta sync path instead of a
// first-contact walk or a post-GC rebuild. Call Cluster.Close when done to
// flush the logs.
func WithPersistence(dir string) Option {
	return func(o *options) { o.cluster.DataDir = dir }
}

// WithStorageEngine selects the residency policy of every peer's replica
// store: "mem" (the default; every pair stays in memory, and a checkpoint
// writes them as one segment that a restart reads back) or "disk" (pairs
// served from log-structured on-disk segments with a small memtable,
// keeping a partition's resident set bounded regardless of how many pairs
// it holds — for nodes storing millions of keys — and a restart recovers
// without rescanning every pair). The policy only matters together with
// WithPersistence: without a data directory a store is in memory under
// either and writes no file. An empty engine name uses the PGRID_ENGINE
// environment variable, falling back to "mem".
func WithStorageEngine(engine string) Option {
	return func(o *options) { o.cluster.Overlay.StorageEngine = engine }
}

// WithBootstrapDegree sets the degree of the unstructured bootstrap
// overlay.
func WithBootstrapDegree(d int) Option { return func(o *options) { o.cluster.Degree = d } }

// WithMaxConstructionRounds bounds the number of construction rounds Build
// will run (default 100; a non-positive r means 80).
func WithMaxConstructionRounds(r int) Option { return func(o *options) { o.cluster.MaxRounds = r } }

// WithNetworkLatency applies a constant one-way message latency to the
// cluster's simulated network.
func WithNetworkLatency(d time.Duration) Option {
	return func(o *options) { o.network.Latency = network.ConstantLatency(d) }
}

// WithMessageLoss drops each message independently with the given
// probability.
func WithMessageLoss(p float64) Option { return func(o *options) { o.network.LossProbability = p } }

// WithServiceCost gives every simulated endpoint a finite processing
// capacity: each delivered request occupies its receiver for
// fixed + perByte×(encoded request+response bytes) of service time, queueing FIFO
// behind earlier requests. With a service cost configured, sustained load on
// one peer inflates that peer's latency — which is what makes hot-key
// experiments (and the answer-cache countermeasure) measurable in
// simulation. Zero values disable the model (the default).
func WithServiceCost(fixed, perByte time.Duration) Option {
	return func(o *options) {
		o.network.Service = network.ServiceModel{Fixed: fixed, PerByte: perByte}
	}
}
