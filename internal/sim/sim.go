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
	// MaxRounds bounds the number of construction rounds.
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

// Experiment is a fully constructed in-memory deployment, exposed so that
// the timeline runner, examples and benchmarks can drive additional
// workload against it after construction.
type Experiment struct {
	Config Config
	Sim    *network.Sim
	Graph  *unstructured.Graph
	Peers  []*overlay.Peer
	// OriginalItems is the multiset of items initially assigned to peers
	// (before replication), one slice per peer.
	OriginalItems [][]replication.Item
	// Retired sums the counters of peers replaced by RestartPeer (whose
	// fresh counters restart at zero), so aggregate series stay monotonic
	// across restarts. Bandwidth needs no such help: the endpoint that
	// counts it outlives the restart.
	Retired overlay.Counts
	rng     *rand.Rand
}

// New creates the deployment: simulated network, peers with their initial
// data, and the unstructured bootstrap overlay.
func New(cfg Config) (*Experiment, error) {
	if cfg.Peers < 2 {
		return nil, errors.New("sim: need at least two peers")
	}
	if cfg.KeysPerPeer <= 0 {
		return nil, errors.New("sim: KeysPerPeer must be positive")
	}
	if cfg.Distribution == nil {
		return nil, errors.New("sim: missing key distribution")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	simNet := network.NewSim(network.SimConfig{Seed: cfg.Seed})
	e := &Experiment{Config: cfg, Sim: simNet, rng: rng}

	addrs := make([]network.Addr, cfg.Peers)
	for i := 0; i < cfg.Peers; i++ {
		addr := network.Addr(fmt.Sprintf("peer-%05d", i))
		addrs[i] = addr
		peer, err := overlay.NewPersistent(e.peerConfig(i), simNet.Endpoint(addr))
		if err != nil {
			_ = e.Close() // release the WALs of the peers already opened
			return nil, fmt.Errorf("sim: open peer %d: %w", i, err)
		}
		items := make([]replication.Item, cfg.KeysPerPeer)
		for k := range items {
			items[k] = replication.Item{
				Key:   keyspace.MustFromFloat(cfg.Distribution.Sample(rng), keyspace.DefaultDepth),
				Value: fmt.Sprintf("item-%d-%d", i, k),
			}
		}
		peer.AddItems(items)
		e.Peers = append(e.Peers, peer)
		e.OriginalItems = append(e.OriginalItems, items)
	}
	degree := cfg.Degree
	if degree <= 0 {
		degree = unstructured.DefaultDegree
	}
	e.Graph = unstructured.NewGraph(addrs, degree, cfg.Seed+1)
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

// RestartPeer simulates a process crash and restart of peer i: the running
// peer's persistence is flushed and closed, its metric counters are folded
// into Retired, and a fresh peer is bound to the same simulated endpoint.
// With Config.DataDir the new peer recovers its items, tombstones,
// partition path and anti-entropy baselines from disk; without it the peer
// rejoins empty.
func (e *Experiment) RestartPeer(i int) error {
	old := e.Peers[i]
	// Fail in-flight calls like churn while the store closes and reopens;
	// a call acknowledged into a closing store would be durably lost yet
	// advance the sender's sync baseline past it.
	e.Sim.SetOnline(old.Addr(), false)
	if err := old.Close(); err != nil {
		return fmt.Errorf("sim: close peer %d: %w", i, err)
	}
	e.Retired.Add(old.Counts())
	peer, err := overlay.NewPersistent(e.peerConfig(i), e.Sim.Endpoint(old.Addr()))
	if err != nil {
		return fmt.Errorf("sim: reopen peer %d: %w", i, err)
	}
	e.Peers[i] = peer
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
// churned out) are skipped; unreachable targets are tolerated, as in a real
// deployment.
func (e *Experiment) Replicate(ctx context.Context) error {
	nmin := e.Peers[0].Config().MinReplicas
	for i, p := range e.Peers {
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
		// Best effort: unreachable targets simply receive no copy.
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
	maxRounds := e.Config.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 80
	}
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

// Measure collects the construction-quality metrics of the experiment.
func (e *Experiment) Measure(rounds int) (*Result, error) {
	ref, err := e.ReferenceTree()
	if err != nil {
		return nil, err
	}
	assignment := e.Assignment()
	res := &Result{
		Deviation:   trie.Deviation(ref, assignment),
		Replication: trie.Replication(ref, assignment),
		Rounds:      rounds,
	}
	var pathLen, converged float64
	var total overlay.Counts
	maxPath := 0
	for _, p := range e.Peers {
		total.Add(p.Counts())
		d := p.Path().Depth()
		pathLen += float64(d)
		if d > maxPath {
			maxPath = d
		}
		if p.Done() {
			converged++
		}
	}
	n := float64(len(e.Peers))
	res.InteractionsPerPeer = total[overlay.Interactions] / n
	res.KeysMovedPerPeer = total[overlay.KeysMoved] / n
	res.MeanPathLength = pathLen / n
	res.MaxPathLength = maxPath
	res.ConvergedFraction = converged / n
	counts := map[keyspace.Path]int{}
	for _, p := range e.Peers {
		counts[p.Path()]++
	}
	res.DistinctPaths = len(counts)
	var replicaCounts []float64
	for _, c := range counts {
		replicaCounts = append(replicaCounts, float64(c))
	}
	res.MeanReplicasPerPartition = stats.Mean(replicaCounts)
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
