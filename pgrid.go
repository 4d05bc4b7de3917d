// Package pgrid is a Go implementation of the P-Grid data-oriented overlay
// network and of the decentralized, parallel construction algorithm
// described in "Indexing data-oriented overlay networks" (Aberer, Datta,
// Hauswirth, Schmidt — VLDB 2005).
//
// Unlike a classical DHT, a P-Grid overlay preserves the order of
// application keys: the key space [0,1) is recursively bisected into a trie
// whose shape follows the data distribution, so prefix and range queries
// stay efficient even for heavily skewed key sets (inverted-file terms,
// range-partitioned tuples, ...). The price is that the overlay must be
// constructed — and, when the indexing function changes, re-constructed —
// from scratch; the library's centerpiece is the fully parallel,
// self-organizing construction protocol of the paper (adaptive eager
// partitioning plus the split/replicate/refer encounter rules), together
// with the storage- and replication-load balancing it provides.
//
// The top-level API revolves around Cluster, an in-process deployment of
// many peers (each backed by the simulated message-passing network) that
// applications use to index data and run keyword, exact-match and range
// queries:
//
//	cluster, _ := pgrid.NewCluster(pgrid.WithPeers(64))
//	cluster.IndexString("database", "doc-17")
//	cluster.IndexString("datalog", "doc-3")
//	report, _ := cluster.Build(ctx)
//	hits, _ := cluster.SearchString(ctx, "database")
//
// The internal packages expose the full substrate (decision probabilities,
// reference partitioner, routing tables, simulated and TCP transports,
// workload generators, experiment harnesses) used to reproduce every table
// and figure of the paper; see docs/ARCHITECTURE.md for the mapping.
package pgrid

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"pgrid/internal/keyspace"
	"pgrid/internal/network"
	"pgrid/internal/overlay"
	"pgrid/internal/replication"
	"pgrid/internal/sim"
)

// Key is an order-preserving binary key in [0,1).
type Key = keyspace.Key

// Path identifies a key-space partition of the overlay trie.
type Path = keyspace.Path

// Item is one indexed data item: a key plus an opaque value (document id,
// tuple reference, ...).
type Item = replication.Item

// KeyDepth is the bit depth used for keys produced by the convenience
// encoders.
const KeyDepth = keyspace.DefaultDepth

// StringKey encodes a string (for example an inverted-file term) as an
// order-preserving key.
func StringKey(s string) Key { return keyspace.MustEncodeString(s, KeyDepth) }

// FloatKey encodes a value from [0,1) as an order-preserving key; values
// outside the interval are clamped.
func FloatKey(x float64) Key { return keyspace.MustFromFloat(x, KeyDepth) }

// Uint64Key encodes an unsigned integer (interpreted as the fraction
// v/2^64) as an order-preserving key.
func Uint64Key(v uint64) Key {
	k, _ := keyspace.EncodeUint64(v, KeyDepth)
	return k
}

// Cluster is an in-process P-Grid deployment: a set of peers connected by
// the simulated message-passing network, an unstructured bootstrap overlay,
// and the machinery to construct the structured overlay from the data that
// has been indexed. It is a locked façade over sim.Experiment, which drives
// the peers' lifecycle and the construction.
type Cluster struct {
	cfg   options
	exp   *sim.Experiment
	built bool

	// rngMu guards rng: queries and live mutations pick random origin peers
	// and may run concurrently.
	rngMu sync.Mutex
	rng   *rand.Rand

	// maintMu guards maintStops so Start/StopMaintenance and RestartPeer
	// are safe to call from concurrent goroutines.
	maintMu sync.Mutex
	// maintStops, when non-nil, stops the running background maintenance
	// loop of each peer (indexed like the peer list).
	maintStops []func()
}

// BuildReport summarises the outcome of constructing the overlay.
type BuildReport struct {
	// Rounds is the number of construction rounds executed.
	Rounds int
	// MeanPathLength and MaxPathLength describe the resulting trie depth.
	MeanPathLength float64
	MaxPathLength  int
	// DistinctPartitions is the number of distinct peer paths.
	DistinctPartitions int
	// MeanReplicasPerPartition is the average number of peers per path.
	MeanReplicasPerPartition float64
	// InteractionsPerPeer and KeysMovedPerPeer measure the construction
	// cost.
	InteractionsPerPeer float64
	KeysMovedPerPeer    float64
}

// String renders the report.
func (r BuildReport) String() string {
	return fmt.Sprintf("rounds=%d partitions=%d path-len=%.2f (max %d) replicas/partition=%.2f interactions/peer=%.2f keys-moved/peer=%.1f",
		r.Rounds, r.DistinctPartitions, r.MeanPathLength, r.MaxPathLength, r.MeanReplicasPerPartition, r.InteractionsPerPeer, r.KeysMovedPerPeer)
}

// SearchHit is one result of a search.
type SearchHit struct {
	// Key is the matched key.
	Key Key
	// Value is the stored value (document identifier, tuple, ...).
	Value string
	// Hops is the number of routing hops the query used.
	Hops int
}

// NewCluster creates a cluster of peers. By default the cluster has 32
// peers with the paper's load-balancing parameters (n_min = 5,
// d_max = 10*n_min).
func NewCluster(opts ...Option) (*Cluster, error) {
	cfg := defaultOptions()
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.cluster.Peers < 2 {
		return nil, errors.New("pgrid: a cluster needs at least two peers")
	}
	cfg.network.Seed = cfg.cluster.Seed
	exp, err := sim.Open(cfg.cluster, network.NewSim(cfg.network))
	if err != nil {
		return nil, fmt.Errorf("pgrid: %w", err)
	}
	return &Cluster{cfg: cfg, exp: exp, rng: rand.New(rand.NewSource(cfg.cluster.Seed))}, nil
}

// randIntn draws a uniform int from [0, n) under the RNG lock, so queries
// and live mutations can run from concurrent goroutines.
func (c *Cluster) randIntn(n int) int {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return c.rng.Intn(n)
}

// randomPeer picks a uniformly random peer as the origin of an operation.
func (c *Cluster) randomPeer() *overlay.Peer {
	peers := c.exp.Snapshot()
	return peers[c.randIntn(len(peers))]
}

// Peers returns the number of peers in the cluster.
func (c *Cluster) Peers() int { return len(c.exp.Snapshot()) }

// Peer returns the i-th peer (for advanced use and inspection).
func (c *Cluster) Peer(i int) *overlay.Peer {
	peers := c.exp.Snapshot()
	return peers[i%len(peers)]
}

// Paths returns the current path of every peer.
func (c *Cluster) Paths() []Path {
	peers := c.exp.Snapshot()
	out := make([]Path, len(peers))
	for i, p := range peers {
		out[i] = p.Path()
	}
	return out
}

// Index adds an item to the cluster, assigning it to a peer chosen uniformly
// at random (mirroring data that is born distributed). Items indexed before
// Build become part of the constructed overlay; items indexed afterwards are
// stored at the responsible partition directly.
func (c *Cluster) Index(key Key, value string) error {
	it := Item{Key: key, Value: value}
	peers := c.exp.Snapshot()
	owner := c.randIntn(len(peers))
	if !c.built {
		c.exp.OriginalItems[owner] = append(c.exp.OriginalItems[owner], it)
		peers[owner].AddItems([]Item{it})
		return nil
	}
	// After construction, store the item at every peer whose partition
	// covers the key (the responsible peer and its replicas). In a real
	// deployment the item would be routed to one responsible peer and
	// spread by anti-entropy; writing to all replicas here keeps the
	// in-process cluster immediately consistent.
	stored := false
	for _, p := range peers {
		if p.Table().Responsible(key) {
			p.AddItems([]Item{it})
			stored = true
		}
	}
	if !stored {
		peers[owner].AddItems([]Item{it})
	}
	return nil
}

// IndexString indexes a string key (for example a term of an inverted
// file).
func (c *Cluster) IndexString(term, value string) error {
	return c.Index(StringKey(term), value)
}

// IndexFloat indexes a numeric key from [0,1).
func (c *Cluster) IndexFloat(x float64, value string) error {
	return c.Index(FloatKey(x), value)
}

// Build constructs the structured overlay from the indexed data: the
// pre-construction replication phase followed by rounds of random
// encounters until every peer converges (Sections 2.2 and 4 of the paper).
// Replication is best effort: a push lost to churn or message loss costs
// one copy, not the build.
func (c *Cluster) Build(ctx context.Context) (BuildReport, error) {
	if c.built {
		return BuildReport{}, errors.New("pgrid: cluster already built; create a new cluster to re-index")
	}
	if err := c.exp.Replicate(ctx); err != nil {
		return BuildReport{}, err
	}
	rounds := c.exp.Construct(ctx)
	c.built = true
	s := c.exp.Summary(rounds)
	return BuildReport{
		Rounds:                   rounds,
		MeanPathLength:           s.MeanPathLength,
		MaxPathLength:            s.MaxPathLength,
		DistinctPartitions:       s.DistinctPaths,
		MeanReplicasPerPartition: s.MeanReplicasPerPartition,
		InteractionsPerPeer:      s.InteractionsPerPeer,
		KeysMovedPerPeer:         s.KeysMovedPerPeer,
	}, nil
}

// Built reports whether the overlay has been constructed.
func (c *Cluster) Built() bool { return c.built }

// ErrNotBuilt is returned by live mutations invoked before Build: until the
// overlay exists there is nothing to route through — use Index instead.
var ErrNotBuilt = errors.New("pgrid: live mutations require a built overlay; use Index before Build")

// ErrNoQuorum is returned by Insert and Delete when the responsible peer was
// reached but fewer replicas than the configured write quorum acknowledged
// the mutation. The write is still applied at the replicas that did
// acknowledge, and background maintenance spreads it further.
var ErrNoQuorum = overlay.ErrNoQuorum

// ErrNotFound classifies a lookup that reached the responsible partition
// and found nothing under the key — the overlay is healthy, the key is
// absent. Service layers map it to 404.
var ErrNotFound = overlay.ErrNotFound

// ErrUnreachable classifies an operation that could not reach the
// partition responsible for its key at all (routing exhausted its
// references, every candidate offline). Unlike ErrNotFound it signals an
// overlay problem, not an absent key; service layers map it to 503.
var ErrUnreachable = overlay.ErrUnreachable

// MetricsSnapshot aggregates every peer's protocol counters and replication
// gauges into one cluster-wide overlay.MetricsSnapshot: counters sum, size
// gauges (items, tombstones, replica links, WAL shape) sum, and the
// per-peer partition path is cleared. Counters include those of peers
// replaced by RestartPeer, so none goes backwards across a restart. Each
// peer is snapshotted with atomic loads, so this is safe to call while
// searches, mutations, maintenance and restarts run.
func (c *Cluster) MetricsSnapshot() overlay.MetricsSnapshot {
	var agg overlay.MetricsSnapshot
	for _, p := range c.exp.Snapshot() {
		agg = agg.Merge(p.MetricsSnapshot())
	}
	agg.Counts = c.exp.Counts()
	return agg
}

// MutateReport summarises a routed live write.
type MutateReport struct {
	// Acks is the number of replicas (including the responsible peer) that
	// applied the mutation.
	Acks int
	// Replicas is the size of the replica set the responsible peer wrote to,
	// including itself.
	Replicas int
	// Hops is the number of routing hops the mutation used to reach the
	// responsible partition.
	Hops int
}

// Insert routes a live write through the overlay to all replicas of the
// partition responsible for the key: the mutation travels the same
// α-concurrent routing path as an exact-match query, the responsible peer
// applies it and fans it out to its replica set, and the write succeeds once
// WriteQuorum replicas acknowledged it (ErrNoQuorum otherwise). Safe for
// concurrent use, including concurrently with searches.
func (c *Cluster) Insert(ctx context.Context, key Key, value string) (MutateReport, error) {
	if !c.built {
		return MutateReport{}, ErrNotBuilt
	}
	res, err := c.randomPeer().Insert(ctx, Item{Key: key, Value: value})
	return MutateReport{Acks: res.Acks, Replicas: res.Replicas, Hops: res.Hops}, err
}

// InsertString routes a live write for a string key; see Insert.
func (c *Cluster) InsertString(ctx context.Context, term, value string) (MutateReport, error) {
	return c.Insert(ctx, StringKey(term), value)
}

// Delete routes a live delete of the (key, value) pair to the responsible
// partition. Every replica that applies it records a tombstone, so
// anti-entropy maintenance spreads the delete instead of resurrecting the
// pair: a replica that acknowledged never serves it again, replicas that
// missed the delete converge via maintenance, and once tombstoned the pair
// cannot come back. For read-after-delete against any replica immediately,
// set WithWriteQuorum to the replica-set size; with smaller quorums a query
// racing ahead of maintenance can still see the pair on a replica the ack
// did not cover. Quorum semantics match Insert.
func (c *Cluster) Delete(ctx context.Context, key Key, value string) (MutateReport, error) {
	if !c.built {
		return MutateReport{}, ErrNotBuilt
	}
	res, err := c.randomPeer().Delete(ctx, key, value)
	return MutateReport{Acks: res.Acks, Replicas: res.Replicas, Hops: res.Hops}, err
}

// DeleteString routes a live delete for a string key; see Delete.
func (c *Cluster) DeleteString(ctx context.Context, term, value string) (MutateReport, error) {
	return c.Delete(ctx, StringKey(term), value)
}

// StartMaintenance launches the background maintenance loop on every peer:
// periodic anti-entropy with a random replica (spreading live writes and
// delete tombstones) and probing/pruning of stale routing references. The
// tick interval comes from WithMaintenanceInterval. Calling it again is a
// no-op while a loop is already running.
func (c *Cluster) StartMaintenance() {
	c.maintMu.Lock()
	defer c.maintMu.Unlock()
	if c.maintStops != nil {
		return
	}
	peers := c.exp.Snapshot()
	c.maintStops = make([]func(), len(peers))
	for i, p := range peers {
		c.maintStops[i] = p.StartMaintenance(overlay.MaintenanceOptions{Interval: c.cfg.maintainEvery})
	}
}

// StopMaintenance stops the background maintenance loops and waits for them
// to exit. It is a no-op when maintenance is not running.
func (c *Cluster) StopMaintenance() {
	c.maintMu.Lock()
	stops := c.maintStops
	c.maintStops = nil
	c.maintMu.Unlock()
	for _, stop := range stops {
		stop()
	}
}

// MaintenanceRound drives one synchronous maintenance tick on every peer
// (anti-entropy plus one routing probe each). It is what StartMaintenance
// does continuously in the background, exposed for deterministic tests and
// virtual-clock simulations.
func (c *Cluster) MaintenanceRound(ctx context.Context) {
	for _, p := range c.exp.Snapshot() {
		p.MaintainTick(ctx, overlay.MaintenanceOptions{})
	}
}

// RestartPeer simulates a process crash and restart of the i-th peer: its
// background maintenance is stopped, its persistence flushed and closed,
// and a fresh peer is bound to the same network address. With
// WithPersistence the new peer recovers its items, tombstones, partition
// path and anti-entropy baselines from disk and rejoins via the exact-delta
// sync path; without it the peer comes back empty, like a fresh joiner.
// Queries and mutations may run concurrently with a restart; in-flight
// operations against the restarting peer can fail over to its replicas
// like any churn.
func (c *Cluster) RestartPeer(i int) error {
	c.maintMu.Lock()
	defer c.maintMu.Unlock()
	n := c.Peers()
	i = ((i % n) + n) % n
	if c.maintStops != nil {
		c.maintStops[i]()
	}
	if err := c.exp.RestartPeer(i); err != nil {
		return fmt.Errorf("pgrid: %w", err)
	}
	if c.maintStops != nil {
		c.maintStops[i] = c.Peer(i).StartMaintenance(overlay.MaintenanceOptions{Interval: c.cfg.maintainEvery})
	}
	return nil
}

// Close stops background maintenance and flushes and closes every peer's
// persistence. The cluster must not be used afterwards. It is a no-op
// beyond maintenance shutdown for in-memory clusters.
func (c *Cluster) Close() error {
	c.StopMaintenance()
	return c.exp.Close()
}

// Search resolves an exact-match query for the key, starting from a random
// peer.
func (c *Cluster) Search(ctx context.Context, key Key) ([]SearchHit, error) {
	origin := c.randomPeer()
	res, err := origin.Query(ctx, key)
	if err != nil {
		return nil, err
	}
	return searchHits(res.Items, res.Hops), nil
}

// searchHits turns the items a query returned into hits.
func searchHits(items []Item, hops int) []SearchHit {
	hits := make([]SearchHit, 0, len(items))
	for _, it := range items {
		hits = append(hits, SearchHit{Key: it.Key, Value: it.Value, Hops: hops})
	}
	return hits
}

// SearchString resolves an exact-match query for a string key.
func (c *Cluster) SearchString(ctx context.Context, term string) ([]SearchHit, error) {
	return c.Search(ctx, StringKey(term))
}

// SearchMany resolves exact-match queries for many keys as one pipelined
// batch from a random origin peer: keys that route through the same next hop
// share a single message per hop instead of travelling as independent
// lookups. The result aligns with keys by index; keys that could not be
// resolved get a nil hit slice. An error is returned only when no key could
// be resolved at all.
func (c *Cluster) SearchMany(ctx context.Context, keys []Key) ([][]SearchHit, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	origin := c.randomPeer()
	results := origin.QueryBatch(ctx, keys)
	out := make([][]SearchHit, len(keys))
	resolved := 0
	for i, res := range results {
		if res.Err != nil {
			continue
		}
		resolved++
		out[i] = searchHits(res.Items, res.Hops)
	}
	if resolved == 0 {
		return out, errors.New("pgrid: no key of the batch could be resolved")
	}
	return out, nil
}

// SearchManyStrings resolves exact-match queries for many string keys as one
// pipelined batch; see SearchMany.
func (c *Cluster) SearchManyStrings(ctx context.Context, terms []string) ([][]SearchHit, error) {
	keys := make([]Key, len(terms))
	for i, t := range terms {
		keys[i] = StringKey(t)
	}
	return c.SearchMany(ctx, keys)
}

// SearchRange returns every item whose key falls into [lo, hi), in key
// order.
func (c *Cluster) SearchRange(ctx context.Context, lo, hi Key) ([]SearchHit, error) {
	origin := c.randomPeer()
	res, err := origin.RangeQuery(ctx, keyspace.NewRange(lo, hi))
	if err != nil {
		return nil, err
	}
	hits := searchHits(res.Items, res.Hops)
	sort.Slice(hits, func(i, j int) bool { return hits[i].Key.Compare(hits[j].Key) < 0 })
	return hits, nil
}

// SearchStringRange returns every item whose string key is >= loTerm and
// < hiTerm in lexicographic order (e.g. all terms with a given prefix when
// hiTerm is the prefix's upper bound).
func (c *Cluster) SearchStringRange(ctx context.Context, loTerm, hiTerm string) ([]SearchHit, error) {
	return c.SearchRange(ctx, StringKey(loTerm), StringKey(hiTerm))
}

// SetOnline switches a peer on- or offline, simulating churn.
func (c *Cluster) SetOnline(i int, online bool) {
	c.exp.Sim.SetOnline(c.Peer(i).Addr(), online)
}

// OnlinePeers returns the number of peers currently online.
func (c *Cluster) OnlinePeers() int { return c.exp.Sim.OnlineCount() }

// Experiment exposes the research-grade experiment harness used to
// reproduce the paper's evaluation; see the sim package for details.
type Experiment = sim.Experiment

// ExperimentConfig is the configuration of a reproduction experiment.
type ExperimentConfig = sim.Config

// ExperimentResult is the measured outcome of a reproduction experiment.
type ExperimentResult = sim.Result

// RunExperiment runs one complete construction experiment (replication,
// construction, optional churn, queries, measurement against the optimal
// partitioning of Algorithm 1).
func RunExperiment(cfg ExperimentConfig) (*ExperimentResult, error) { return sim.Run(cfg) }

// DefaultExperimentConfig returns the paper's main simulation parameters.
func DefaultExperimentConfig() ExperimentConfig { return sim.DefaultConfig() }
