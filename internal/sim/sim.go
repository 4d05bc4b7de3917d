// Package sim composes the substrates (workload, network, unstructured
// overlay, P-Grid peers, churn) into complete experiments: the
// construction-quality experiments of Figure 6, the PlanetLab-style
// timeline of Figures 7–9, and the in-text system metrics of Section 5.2.
// It stands in for both the Mathematica simulations (Section 4.4) and the
// PlanetLab deployment (Section 5) of the paper; see docs/ARCHITECTURE.md
// for the substitution rationale.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"

	"pgrid/internal/keyspace"
	"pgrid/internal/network"
	"pgrid/internal/overlay"
	"pgrid/internal/replication"
	"pgrid/internal/stats"
	"pgrid/internal/trie"
	"pgrid/internal/unstructured"
	"pgrid/internal/workload"
)

// Config parameterises one construction experiment.
type Config struct {
	// Peers is the number of peers (paper: 256, 512, 1024; PlanetLab ≈300).
	Peers int
	// KeysPerPeer is the number of data items initially assigned to each
	// peer (paper: 10).
	KeysPerPeer int
	// Distribution is the key workload (U, P0.5, P1.0, P1.5, N, A).
	Distribution workload.Distribution
	// Overlay is the per-peer configuration (d_max, n_min, sampling,
	// corrected vs. heuristic probabilities, ...).
	Overlay overlay.Config
	// MaxRounds bounds the number of construction rounds (0 means 80).
	MaxRounds int
	// Queries is the number of exact-match queries evaluated after
	// construction.
	Queries int
	// BatchQueries evaluates the query phase as pipelined batches through
	// Peer.QueryBatch (keys sharing a route share messages) instead of as
	// independent lookups.
	BatchQueries bool
	// BatchSize is the number of keys per batch when BatchQueries is set
	// (0 means 16).
	BatchSize int
	// OfflineFraction takes that fraction of peers offline before the query
	// phase to measure resilience (0 = no churn).
	OfflineFraction float64
	// Degree is the degree of the unstructured bootstrap overlay.
	Degree int
	// DataDir, when set, makes every peer's replica state durable under
	// DataDir/peer-NNNNN (WAL + snapshots), enabling RestartPeer to
	// simulate process crashes that recover their state — the timeline's
	// restart scenario. Empty keeps all stores in memory.
	DataDir string
	// Seed makes the experiment reproducible.
	Seed int64
}

// DefaultConfig returns the parameters of the paper's main simulation
// experiments: n_min = 5, d_max = 10*n_min, 10 keys per peer.
func DefaultConfig() Config {
	return Config{
		Peers:        256,
		KeysPerPeer:  10,
		Distribution: workload.Uniform{},
		Overlay: overlay.Config{
			MaxKeys:     50,
			MinReplicas: 5,
			Samples:     0,
			MaxRefs:     3,
		},
		MaxRounds: 80,
		Queries:   200,
		Degree:    6,
		Seed:      1,
	}
}

// maxRounds returns the construction round budget.
func (c Config) maxRounds() int {
	if c.MaxRounds <= 0 {
		return 80
	}
	return c.MaxRounds
}

// Result aggregates the measurements of one construction experiment.
type Result struct {
	// Deviation is the load-balancing deviation from the optimal
	// partitioning of Algorithm 1 (the metric of Section 4.4 and Figure 6).
	Deviation float64
	// Replication summarises the replica counts across reference
	// partitions.
	Replication trie.ReplicationStats
	// InteractionsPerPeer is the number of construction interactions
	// initiated per peer (Figure 6(e)).
	InteractionsPerPeer float64
	// KeysMovedPerPeer is the number of data items moved per peer during
	// construction (Figure 6(f)).
	KeysMovedPerPeer float64
	// Rounds is the number of construction rounds executed.
	Rounds int
	// ConvergedFraction is the fraction of peers that detected convergence.
	ConvergedFraction float64
	// MeanPathLength is the average peer path length (the paper reports
	// just below 6 on PlanetLab).
	MeanPathLength float64
	// MaxPathLength is the deepest peer path.
	MaxPathLength int
	// QuerySuccessRate is the fraction of successful queries (paper:
	// 95–100% even under churn).
	QuerySuccessRate float64
	// MeanQueryHops is the average number of routing hops per successful
	// query (paper: ≈ half the mean path length).
	MeanQueryHops float64
	// MeanReplicasPerPartition is the average number of peers per distinct
	// path (paper: ≈ n_min).
	MeanReplicasPerPartition float64
	// DistinctPaths is the number of distinct partitions formed.
	DistinctPaths int
}

// String renders the result as a compact report.
func (r *Result) String() string {
	return fmt.Sprintf("deviation=%.3f interactions/peer=%.2f keys-moved/peer=%.1f path-len=%.2f hops=%.2f success=%.2f replicas/partition=%.2f partitions=%d",
		r.Deviation, r.InteractionsPerPeer, r.KeysMovedPerPeer, r.MeanPathLength, r.MeanQueryHops, r.QuerySuccessRate, r.MeanReplicasPerPartition, r.DistinctPaths)
}

// Experiment is an in-memory deployment and the one driver of a cluster's
// lifecycle: it opens, restarts and closes the peers, runs the replication
// phase and the construction rounds, and summarises the resulting trie.
// pgrid.Cluster, the timeline runner, examples and benchmarks all drive
// their peers through it.
type Experiment struct {
	Config Config
	Sim    *network.Sim
	Graph  *unstructured.Graph
	// Peers is replaced, never modified in place: RestartPeer installs a
	// copy, so a slice obtained from Snapshot stays immutable.
	Peers []*overlay.Peer
	// OriginalItems is the multiset of items initially assigned to peers
	// (before replication), one slice per peer.
	OriginalItems [][]replication.Item
	// Retired sums the counters of peers replaced by RestartPeer (whose
	// fresh counters restart at zero), so aggregate series stay monotonic
	// across restarts. Bandwidth needs no such help: the endpoint that
	// counts it outlives the restart.
	Retired overlay.Counts
	// mu guards Peers and Retired for readers on other goroutines than
	// the one calling RestartPeer; see Snapshot and Counts.
	mu  sync.RWMutex
	rng *rand.Rand
}

// New creates the deployment: simulated network, peers with their initial
// data, and the unstructured bootstrap overlay.
func New(cfg Config) (*Experiment, error) {
	if cfg.KeysPerPeer <= 0 {
		return nil, errors.New("sim: KeysPerPeer must be positive")
	}
	if cfg.Distribution == nil {
		return nil, errors.New("sim: missing key distribution")
	}
	e, err := Open(cfg, network.NewSim(network.SimConfig{Seed: cfg.Seed}))
	if err != nil {
		return nil, err
	}
	for i, peer := range e.Peers {
		items := make([]replication.Item, cfg.KeysPerPeer)
		for k := range items {
			items[k] = replication.Item{
				Key:   keyspace.MustFromFloat(cfg.Distribution.Sample(e.rng), keyspace.DefaultDepth),
				Value: fmt.Sprintf("item-%d-%d", i, k),
			}
		}
		peer.AddItems(items)
		e.OriginalItems[i] = items
	}
	return e, nil
}

// Open creates a deployment of cfg.Peers peers, holding no items yet, over
// a simulated network the caller built, plus the unstructured bootstrap
// overlay. Config.KeysPerPeer and Config.Distribution are not used.
func Open(cfg Config, net *network.Sim) (*Experiment, error) {
	if cfg.Peers < 2 {
		return nil, errors.New("sim: need at least two peers")
	}
	e := &Experiment{
		Config:        cfg,
		Sim:           net,
		OriginalItems: make([][]replication.Item, cfg.Peers),
		rng:           rand.New(rand.NewSource(cfg.Seed)),
	}
	addrs := make([]network.Addr, cfg.Peers)
	for i := range addrs {
		addrs[i] = network.Addr(fmt.Sprintf("peer-%05d", i))
		peer, err := overlay.NewPersistent(e.peerConfig(i), net.Endpoint(addrs[i]))
		if err != nil {
			_ = e.Close() // release the WALs of the peers already opened
			return nil, fmt.Errorf("sim: open peer %d: %w", i, err)
		}
		e.Peers = append(e.Peers, peer)
	}
	e.Graph = unstructured.NewGraph(addrs, cfg.Degree, cfg.Seed+1)
	return e, nil
}

// peerConfig returns peer i's overlay configuration, including its
// persistence directory when Config.DataDir is set.
func (e *Experiment) peerConfig(i int) overlay.Config {
	pcfg := e.Config.Overlay
	pcfg.Seed = e.Config.Seed + int64(i)*104729
	if e.Config.DataDir != "" {
		pcfg.DataDir = filepath.Join(e.Config.DataDir, fmt.Sprintf("peer-%05d", i))
	}
	return pcfg
}

// Snapshot returns the current peer list. It is safe to call while
// RestartPeer runs on another goroutine: the list is never modified in
// place.
func (e *Experiment) Snapshot() []*overlay.Peer {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.Peers
}

// Counts sums Retired and every current peer's counters. It is safe to
// call while RestartPeer runs on another goroutine, and no counter it
// returns is lower than in an earlier call: the peers are read under the
// same lock that RestartPeer holds to fold a replaced peer into Retired.
func (e *Experiment) Counts() overlay.Counts {
	e.mu.RLock()
	defer e.mu.RUnlock()
	total := e.Retired
	for _, p := range e.Peers {
		total.Add(p.Counts())
	}
	return total
}

// RestartPeer simulates a process crash and restart of peer i: the running
// peer's persistence is flushed and closed, a fresh peer is bound to the
// same simulated endpoint, and the old peer's metric counters are folded
// into Retired as the new peer replaces it in a fresh copy of Peers. With
// Config.DataDir the new peer recovers its items, tombstones, partition
// path and anti-entropy baselines from disk; without it the peer rejoins
// empty. Calls to RestartPeer must not overlap.
func (e *Experiment) RestartPeer(i int) error {
	old := e.Peers[i]
	// Fail in-flight calls like churn while the store closes and reopens;
	// a call acknowledged into a closing store would be durably lost yet
	// advance the sender's sync baseline past it.
	e.Sim.SetOnline(old.Addr(), false)
	if err := old.Close(); err != nil {
		return fmt.Errorf("sim: close peer %d: %w", i, err)
	}
	peer, err := overlay.NewPersistent(e.peerConfig(i), e.Sim.Endpoint(old.Addr()))
	if err != nil {
		return fmt.Errorf("sim: reopen peer %d: %w", i, err)
	}
	next := slices.Clone(e.Peers)
	next[i] = peer
	e.mu.Lock()
	e.Peers = next
	e.Retired.Add(old.Counts())
	e.mu.Unlock()
	e.Sim.SetOnline(old.Addr(), true)
	return nil
}

// Close flushes and closes every peer's persistence (a no-op for in-memory
// experiments).
func (e *Experiment) Close() error {
	var first error
	for _, p := range e.Peers {
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Replicate runs the pre-construction replication phase: every peer pushes
// its original items to MinReplicas peers selected by random walks on the
// unstructured overlay. Peers that are offline (have not joined yet, or
// churned out) or hold no items are skipped; unreachable targets and lost
// pushes are tolerated, as in a real deployment.
func (e *Experiment) Replicate(ctx context.Context) error {
	nmin := e.Peers[0].Config().MinReplicas
	for i, p := range e.Peers {
		if len(e.OriginalItems[i]) == 0 {
			continue
		}
		if ep := e.Sim.Lookup(p.Addr()); ep != nil && !ep.Online() {
			continue
		}
		targets := make([]network.Addr, 0, nmin)
		for attempts := 0; len(targets) < nmin && attempts < 10*nmin; attempts++ {
			cand, err := e.Graph.RandomWalk(p.Addr(), 0, nil)
			if err != nil {
				return err
			}
			if cand != p.Addr() {
				targets = append(targets, cand)
			}
		}
		// Best effort: an unreachable target or a lost push costs one copy.
		_ = p.ReplicateItems(ctx, e.OriginalItems[i], targets)
	}
	return nil
}

// ConstructRound lets every not-yet-converged peer initiate one interaction
// with a partner selected by a random walk. It returns the number of peers
// that initiated an interaction.
func (e *Experiment) ConstructRound(ctx context.Context) int {
	active := 0
	order := e.rng.Perm(len(e.Peers))
	for _, idx := range order {
		p := e.Peers[idx]
		if p.Done() {
			continue
		}
		partner, err := e.Graph.RandomWalk(p.Addr(), 0, nil)
		if err != nil || partner == p.Addr() {
			continue
		}
		active++
		_, _ = p.Interact(ctx, partner)
	}
	return active
}

// Construct runs construction rounds until every peer converged or the
// round budget is exhausted. It returns the number of rounds used.
func (e *Experiment) Construct(ctx context.Context) int {
	maxRounds := e.Config.maxRounds()
	for round := 0; round < maxRounds; round++ {
		if e.ConstructRound(ctx) == 0 {
			return round
		}
	}
	return maxRounds
}

// ReferenceTree builds the optimal partition trie of Algorithm 1 over the
// global key multiset.
func (e *Experiment) ReferenceTree() (*trie.Tree, error) {
	var keys keyspace.Keys
	for _, items := range e.OriginalItems {
		for _, it := range items {
			keys = append(keys, it.Key)
		}
	}
	params := trie.Params{
		MaxKeys:     e.Peers[0].Config().MaxKeys,
		MinReplicas: e.Peers[0].Config().MinReplicas,
		MaxDepth:    overlay.MaxDepth,
	}
	return trie.Build(keys, float64(len(e.Peers)), params)
}

// Assignment returns the decentralized outcome: how many peers ended on
// each path.
func (e *Experiment) Assignment() trie.Assignment {
	paths := make([]keyspace.Path, len(e.Peers))
	for i, p := range e.Peers {
		paths[i] = p.Path()
	}
	return trie.AssignmentFromPaths(paths)
}

// RunQueries evaluates exact-match queries for randomly chosen existing
// items from randomly chosen online peers. It returns the success rate and
// the mean hop count of successful queries.
func (e *Experiment) RunQueries(ctx context.Context, n int) (successRate, meanHops float64) {
	if n <= 0 {
		return 0, 0
	}
	online := e.onlinePeers()
	if len(online) == 0 {
		return 0, 0
	}
	var success, hops float64
	attempts := 0
	for i := 0; i < n; i++ {
		ownerIdx := e.rng.Intn(len(e.OriginalItems))
		items := e.OriginalItems[ownerIdx]
		it := items[e.rng.Intn(len(items))]
		origin := online[e.rng.Intn(len(online))]
		attempts++
		res, err := origin.Query(ctx, it.Key)
		if err != nil {
			continue
		}
		found := false
		for _, got := range res.Items {
			if got.Value == it.Value {
				found = true
				break
			}
		}
		if found {
			success++
			hops += float64(res.Hops)
		}
	}
	if attempts == 0 {
		return 0, 0
	}
	if success > 0 {
		meanHops = hops / success
	}
	return success / float64(attempts), meanHops
}

// RunBatchQueries evaluates n exact-match queries for randomly chosen
// existing items as pipelined batches of the given size, each batch starting
// at a randomly chosen online peer. It returns the per-key success rate and
// the mean hop count of successful keys, matching RunQueries so the two
// query engines can be compared on the same metrics.
func (e *Experiment) RunBatchQueries(ctx context.Context, n, batchSize int) (successRate, meanHops float64) {
	if n <= 0 {
		return 0, 0
	}
	if batchSize <= 0 {
		batchSize = 16
	}
	online := e.onlinePeers()
	if len(online) == 0 {
		return 0, 0
	}
	var success, hops float64
	attempts := 0
	for n > 0 {
		size := batchSize
		if size > n {
			size = n
		}
		n -= size
		keys := make([]keyspace.Key, size)
		values := make([]string, size)
		for i := 0; i < size; i++ {
			items := e.OriginalItems[e.rng.Intn(len(e.OriginalItems))]
			it := items[e.rng.Intn(len(items))]
			keys[i] = it.Key
			values[i] = it.Value
		}
		origin := online[e.rng.Intn(len(online))]
		results := origin.QueryBatch(ctx, keys)
		for i, res := range results {
			attempts++
			if res.Err != nil {
				continue
			}
			for _, got := range res.Items {
				if got.Value == values[i] {
					success++
					hops += float64(res.Hops)
					break
				}
			}
		}
	}
	if attempts == 0 {
		return 0, 0
	}
	if success > 0 {
		meanHops = hops / success
	}
	return success / float64(attempts), meanHops
}

// onlinePeers returns the peers whose endpoints are currently online.
func (e *Experiment) onlinePeers() []*overlay.Peer {
	var out []*overlay.Peer
	for _, p := range e.Peers {
		if ep := e.Sim.Lookup(p.Addr()); ep != nil && ep.Online() {
			out = append(out, p)
		}
	}
	return out
}

// TakeOffline switches the given fraction of peers offline (uniformly at
// random) and returns their indices.
func (e *Experiment) TakeOffline(fraction float64) []int {
	n := int(fraction * float64(len(e.Peers)))
	perm := e.rng.Perm(len(e.Peers))
	var offline []int
	for i := 0; i < n && i < len(perm); i++ {
		idx := perm[i]
		e.Sim.SetOnline(e.Peers[idx].Addr(), false)
		offline = append(offline, idx)
	}
	return offline
}

// Summary measures the constructed trie's shape and the construction cost:
// every Result field that needs neither the reference trie of Algorithm 1
// nor a query phase.
func (e *Experiment) Summary(rounds int) *Result {
	res := &Result{Rounds: rounds}
	var pathLen, converged float64
	var total overlay.Counts
	counts := map[keyspace.Path]int{}
	for _, p := range e.Peers {
		total.Add(p.Counts())
		d := p.Path().Depth()
		pathLen += float64(d)
		res.MaxPathLength = max(res.MaxPathLength, d)
		if p.Done() {
			converged++
		}
		counts[p.Path()]++
	}
	n := float64(len(e.Peers))
	res.InteractionsPerPeer = total[overlay.Interactions] / n
	res.KeysMovedPerPeer = total[overlay.KeysMoved] / n
	res.MeanPathLength = pathLen / n
	res.ConvergedFraction = converged / n
	res.DistinctPaths = len(counts)
	var replicaCounts []float64
	for _, c := range counts {
		replicaCounts = append(replicaCounts, float64(c))
	}
	res.MeanReplicasPerPartition = stats.Mean(replicaCounts)
	return res
}

// Measure collects the construction-quality metrics of the experiment: the
// Summary plus the deviation from, and replication of, the reference trie.
func (e *Experiment) Measure(rounds int) (*Result, error) {
	ref, err := e.ReferenceTree()
	if err != nil {
		return nil, err
	}
	assignment := e.Assignment()
	res := e.Summary(rounds)
	res.Deviation = trie.Deviation(ref, assignment)
	res.Replication = trie.Replication(ref, assignment)
	return res, nil
}

// Run executes the complete experiment: replication, construction, optional
// churn, queries, and measurement.
func Run(cfg Config) (*Result, error) {
	ctx := context.Background()
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := e.Replicate(ctx); err != nil {
		return nil, err
	}
	rounds := e.Construct(ctx)
	res, err := e.Measure(rounds)
	if err != nil {
		return nil, err
	}
	if cfg.OfflineFraction > 0 {
		e.TakeOffline(cfg.OfflineFraction)
	}
	if cfg.BatchQueries {
		res.QuerySuccessRate, res.MeanQueryHops = e.RunBatchQueries(ctx, cfg.Queries, cfg.BatchSize)
	} else {
		res.QuerySuccessRate, res.MeanQueryHops = e.RunQueries(ctx, cfg.Queries)
	}
	return res, nil
}
