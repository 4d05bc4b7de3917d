package overlay

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pgrid/internal/core"
	"pgrid/internal/keyspace"
	"pgrid/internal/network"
	"pgrid/internal/replication"
	"pgrid/internal/routing"
	"pgrid/internal/xrand"
)

// Config parameterises a P-Grid peer.
type Config struct {
	// MaxKeys is d_max: a partition holding more keys than this is
	// considered overloaded and eligible for splitting.
	MaxKeys int
	// MinReplicas is n_min: the minimal number of replica peers per
	// partition; splits only happen while the estimated replica count
	// leaves at least MinReplicas on each side.
	MinReplicas int
	// MaxRefs is the number of routing references kept per level.
	MaxRefs int
	// Samples is the number of local keys sampled when estimating load
	// fractions (0 = use all local keys).
	Samples int
	// UseCorrection selects the bias-corrected decision probabilities.
	UseCorrection bool
	// UseHeuristic selects the naive heuristic probabilities (Figure 6(d)
	// ablation).
	UseHeuristic bool
	// DoneAfterIdle is the number of consecutive unproductive interactions
	// after which a peer considers its construction converged (paper: a
	// fixed small number such as 2).
	DoneAfterIdle int
	// Alpha is the race width of the peer that accepts a read (an
	// exact-match or batch query) from a client (a local call, or a
	// gateway's entry peer): it races this many routing references
	// concurrently and takes the first responsible answer, pruning stale
	// references it meets. Every later forwarder, and every peer on a
	// mutation's route, tries one reference at a time. 1 reproduces the
	// sequential try-one-at-a-time behaviour; 0 means the default of 3.
	Alpha int
	// Fanout bounds the number of sub-trees a range ("shower") query — or
	// next-hop groups of a batch query — forwards to concurrently. 1
	// reproduces the serial branch-after-branch behaviour; 0 means the
	// default of 4.
	Fanout int
	// WriteQuorum is the number of replica acknowledgements (including the
	// responsible peer itself) a routed Insert or Delete needs before it is
	// reported successful. 1 (the default) accepts the responsible peer
	// alone; higher values trade write latency for durability under churn.
	WriteQuorum int
	// TombstoneGCAge prunes delete tombstones older than this wall-clock
	// age (Cassandra's gc_grace). Zero keeps tombstones forever. The
	// horizon must comfortably exceed the maintenance interval: replicas
	// that stay unreachable longer are rebuilt from an authoritative
	// replica when they rejoin, discarding writes they never synced.
	TombstoneGCAge time.Duration
	// TombstoneGCVersions prunes tombstones once the local store clock has
	// advanced this many versions past them — the horizon to use under
	// virtual clocks (simulations). Zero disables the criterion.
	TombstoneGCVersions uint64
	// DataDir enables durable replica state: the peer's store is backed by
	// a write-ahead log plus periodic snapshots rooted at this directory,
	// and a restarted peer recovers its items, tombstones, logical clock,
	// GC floor, partition path and per-replica sync baselines from it — so
	// it re-enters anti-entropy through the cheap exact-delta path instead
	// of a first-contact walk. Empty (the default) keeps the store in
	// memory. Only NewPersistent reports persistence errors; New panics on
	// them.
	DataDir string
	// StorageEngine selects the residency policy of the store's pairs:
	// replication.EngineMem (all in memory) or replication.EngineDisk
	// (served from on-disk segments, for partitions far larger than RAM).
	// It only matters with a DataDir; without one the store is in memory
	// under either. Empty uses replication.DefaultEngine (the PGRID_ENGINE
	// environment variable, or mem).
	StorageEngine string
	// QueryCacheSize bounds the peer's query answer cache (entries). Zero
	// (the default) disables caching. A cached exact-lookup answer carries
	// the responsible store's logical clock as a freshness token and is only
	// served after a one-hop probe confirms the clock has not moved, so a
	// hit costs one tiny round trip instead of a multi-hop item transfer —
	// and writes invalidate naturally because every visible mutation bumps
	// the clock.
	QueryCacheSize int
	// QueryCacheTTL bounds the lifetime of a cached answer regardless of
	// probing (DefaultQueryCacheTTL when zero).
	QueryCacheTTL time.Duration
	// Seed drives the peer's local randomness.
	Seed int64
}

// DefaultConfig returns the configuration used by the paper's simulations:
// n_min = 5 and d_max = 10*n_min, with AEP probabilities.
func DefaultConfig() Config {
	return Config{
		MaxKeys:       50,
		MinReplicas:   5,
		MaxRefs:       routing.DefaultMaxRefs,
		DoneAfterIdle: 2,
	}
}

// normalize fills in defaults for zero-valued fields.
func (c Config) normalize() Config {
	if c.MaxKeys <= 0 {
		c.MaxKeys = 50
	}
	if c.MinReplicas <= 0 {
		c.MinReplicas = 5
	}
	if c.MaxRefs <= 0 {
		c.MaxRefs = routing.DefaultMaxRefs
	}
	if c.DoneAfterIdle <= 0 {
		c.DoneAfterIdle = 2
	}
	if c.Alpha <= 0 {
		c.Alpha = DefaultAlpha
	}
	if c.Fanout <= 0 {
		c.Fanout = DefaultFanout
	}
	if c.WriteQuorum <= 0 {
		c.WriteQuorum = DefaultWriteQuorum
	}
	if c.QueryCacheSize > 0 && c.QueryCacheTTL <= 0 {
		c.QueryCacheTTL = DefaultQueryCacheTTL
	}
	return c
}

// Fixed bounds of the overlay and default concurrency parameters of the
// query engine.
const (
	// MaxDepth bounds a peer's path length.
	MaxDepth = 32
	// queryTTL bounds the routing hops of one query or mutation.
	queryTTL = 64
	// DefaultAlpha is the default number of references a read's accepting
	// peer races (the α of Kademlia-style parallel lookups).
	DefaultAlpha = 3
	// DefaultFanout is the default bound on concurrently forwarded range
	// sub-trees and batch groups.
	DefaultFanout = 4
	// DefaultWriteQuorum is the default number of replica acks a routed
	// mutation needs: just the responsible peer, matching a single-copy
	// write; raise it for stronger durability.
	DefaultWriteQuorum = 1
	// DefaultQueryCacheTTL is the default lifetime of a cached query answer
	// (every serve is still clock-probed; the TTL only bounds how long an
	// entry may occupy cache space).
	DefaultQueryCacheTTL = 2 * time.Second
)

// Peer is one P-Grid node.
type Peer struct {
	// The hot query path touches mu (references are shuffled with rng under
	// it), table, store and transport; they lead the struct so their
	// offsets — and cache lines — stay stable as the cold configuration and
	// maintenance state below them grow.
	mu        sync.Mutex
	table     *routing.Table
	store     *replication.Store
	transport network.Transport
	rng       *rand.Rand

	// cfg is fixed once the peer is built and is read without a lock.
	cfg      Config
	decider  core.Decider
	replicas map[network.Addr]bool
	idle     int
	done     bool
	// syncStates holds the per-replica anti-entropy baselines (the store
	// clocks of the last completed digest/delta sync).
	syncStates map[network.Addr]syncState

	// cache is the query answer cache (nil when disabled); now is the time
	// source its TTLs run on (time.Now outside tests).
	cache *queryCache
	now   func() time.Time

	// counters are the peer's protocol counters, indexed by Counter. They
	// are advanced with atomic adds without holding mu, and Counts reads them
	// with atomic loads.
	counters [NumCounters]atomic.Uint64
}

// New creates a peer bound to the given transport. It panics when
// cfg.DataDir is set but the persistence directory cannot be opened — use
// NewPersistent to handle that error.
func New(cfg Config, transport network.Transport) *Peer {
	p, err := NewPersistent(cfg, transport)
	if err != nil {
		panic(fmt.Sprintf("overlay: open persistent peer: %v", err))
	}
	return p
}

// Store-metadata keys the overlay records its durable state under: the
// partition path, the routing references and the replica set. The path
// keeps a restarted peer in its partition; the references let it route
// (and answer) queries immediately; the replica addresses let its first
// maintenance tick reach a replica even when no sync baseline was ever
// completed.
const (
	metaPathKey     = "overlay.path"
	metaRefsKey     = "overlay.refs"
	metaReplicasKey = "overlay.replicas"
)

// metaRef is the JSON shape of one persisted routing reference.
type metaRef struct {
	Level int    `json:"l"`
	Addr  string `json:"a"`
	Path  string `json:"p"`
}

// NewPersistent creates a peer bound to the given transport, recovering
// durable replica state from cfg.DataDir when it is set: the store's items,
// tombstones, clock and GC floor are replayed from the WAL and snapshots,
// the partition path is restored, and the recovered per-replica sync
// baselines seed both the replica set and the anti-entropy sync states —
// so the first maintenance tick after a restart syncs via an exact delta
// rather than a first-contact walk. With an empty DataDir it behaves
// exactly like New.
func NewPersistent(cfg Config, transport network.Transport) (*Peer, error) {
	cfg = cfg.normalize()
	var store *replication.Store
	if cfg.DataDir != "" {
		var err error
		store, err = replication.OpenStore(cfg.DataDir, replication.PersistOptions{
			Engine: cfg.StorageEngine,
		})
		if err != nil {
			return nil, err
		}
	} else {
		var err error
		store, err = replication.NewStoreKind(cfg.StorageEngine)
		if err != nil {
			return nil, err
		}
	}
	p := &Peer{
		cfg:       cfg,
		transport: transport,
		decider: core.Decider{
			Samples:       cfg.Samples,
			UseCorrection: cfg.UseCorrection,
			UseHeuristic:  cfg.UseHeuristic,
		},
		table:    routing.New(cfg.MaxRefs, cfg.Seed),
		store:    store,
		replicas: make(map[network.Addr]bool),
		rng:      xrand.New(cfg.Seed),
		cache:    newQueryCache(cfg.QueryCacheSize, cfg.QueryCacheTTL),
		now:      time.Now,
	}
	if cfg.TombstoneGCAge > 0 || cfg.TombstoneGCVersions > 0 {
		p.store.SetGCPolicy(replication.GCPolicy{
			MinAge:      cfg.TombstoneGCAge,
			MinVersions: cfg.TombstoneGCVersions,
		})
	}
	p.table.SetOwner(transport.Addr())
	if store.Persistent() {
		p.recoverOverlayState()
	}
	transport.Handle(p.handle)
	return p, nil
}

// recoverOverlayState restores the overlay-level durable state from the
// recovered store: the partition path, the routing references, the replica
// set, and the per-replica sync baselines (whose addresses also re-seed
// the replica set). Runs before the transport handler is installed, so no
// locking is needed.
func (p *Peer) recoverOverlayState() {
	if path := p.store.Meta(metaPathKey); path != "" && validPath(path) {
		p.table.SetPath(keyspace.Path(path))
	}
	var refs []metaRef
	if raw := p.store.Meta(metaRefsKey); raw != "" {
		if err := json.Unmarshal([]byte(raw), &refs); err == nil {
			for _, r := range refs {
				if validPath(r.Path) {
					p.table.Add(r.Level, routing.Ref{Addr: network.Addr(r.Addr), Path: keyspace.Path(r.Path)})
				}
			}
		}
	}
	var replicas []string
	if raw := p.store.Meta(metaReplicasKey); raw != "" {
		if err := json.Unmarshal([]byte(raw), &replicas); err == nil {
			for _, a := range replicas {
				p.addReplicaLocked(network.Addr(a))
			}
		}
	}
	for addr, b := range p.store.Baselines() {
		a := network.Addr(addr)
		if a == "" || a == p.Addr() {
			continue
		}
		if p.syncStates == nil {
			p.syncStates = make(map[network.Addr]syncState)
		}
		p.syncStates[a] = syncState{mine: b.Mine, theirs: b.Theirs}
		p.replicas[a] = true
	}
}

// validPath reports whether a recovered metadata string is a well-formed
// partition path (binary digits only).
func validPath(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' && s[i] != '1' {
			return false
		}
	}
	return true
}

// persistPathMeta records just the partition path — one string compare
// under the store lock in the unchanged case, cheap enough for the
// construction hot path, where exchanges are frequent and the path is the
// only overlay state that must never lag a split. The routing references
// and replica set are persisted by the periodic maintenance tick
// (persistOverlayState).
func (p *Peer) persistPathMeta() {
	if !p.store.Persistent() {
		return
	}
	p.store.SetMeta(metaPathKey, string(p.Path()))
}

// persistOverlayState records the peer's partition path, routing
// references and replica set into the store's durable metadata, so a
// restarted peer rejoins its partition with a working routing table. It is
// a no-op for in-memory stores and for unchanged values (SetMeta
// compares); because it deep-copies and marshals the routing table it runs
// on the maintenance tick, not per message.
func (p *Peer) persistOverlayState() {
	if !p.store.Persistent() {
		return
	}
	path, levels := p.table.Snapshot()
	p.store.SetMeta(metaPathKey, string(path))
	var refs []metaRef
	for level, rs := range levels {
		for _, r := range rs {
			refs = append(refs, metaRef{Level: level, Addr: string(r.Addr), Path: string(r.Path)})
		}
	}
	if data, err := json.Marshal(refs); err == nil {
		p.store.SetMeta(metaRefsKey, string(data))
	}
	replicas := p.Replicas()
	sort.Slice(replicas, func(i, j int) bool { return replicas[i] < replicas[j] })
	addrs := make([]string, len(replicas))
	for i, a := range replicas {
		addrs[i] = string(a)
	}
	if data, err := json.Marshal(addrs); err == nil {
		p.store.SetMeta(metaReplicasKey, string(data))
	}
}

// Close flushes and closes the peer's persistent store (a no-op for
// in-memory peers). Stop maintenance and stop serving the transport before
// closing; the peer must not be used afterwards.
func (p *Peer) Close() error {
	return p.store.Close()
}

// Addr returns the peer's network address.
func (p *Peer) Addr() network.Addr { return p.transport.Addr() }

// Path returns the peer's current path.
func (p *Peer) Path() keyspace.Path { return p.table.Path() }

// Store returns the peer's data store.
func (p *Peer) Store() *replication.Store { return p.store }

// Table returns the peer's routing table.
func (p *Peer) Table() *routing.Table { return p.table }

// Config returns the peer's configuration, fixed when the peer was built.
func (p *Peer) Config() Config { return p.cfg }

// SetTimeSource replaces the clock the answer cache runs on (tests with a
// simulated clock). Call before the peer serves traffic.
func (p *Peer) SetTimeSource(now func() time.Time) {
	if now != nil {
		p.now = now
	}
}

// Replicas returns the addresses of the peers currently known to replicate
// this peer's partition.
func (p *Peer) Replicas() []network.Addr {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]network.Addr, 0, len(p.replicas))
	for a := range p.replicas {
		out = append(out, a)
	}
	return out
}

// AddReplica records another peer as a replica of this peer's partition.
// Replicas are normally discovered through construction encounters and
// anti-entropy gossip; AddReplica lets deployments seed the set explicitly.
func (p *Peer) AddReplica(a network.Addr) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.addReplicaLocked(a)
}

// removeReplica forgets a replica that turned out to be unreachable. Its
// anti-entropy baseline is kept (compactSyncStates bounds the map): the
// store clocks it records stay valid if the peer comes back, and losing the
// baseline would turn the next sync into an incomparable first contact.
func (p *Peer) removeReplica(a network.Addr) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.replicas, a)
}

// Done reports whether the peer considers its part of the construction
// converged.
func (p *Peer) Done() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.done
}

// AddItems loads data items into the peer's store (the peer's initial local
// data before index construction).
func (p *Peer) AddItems(items []replication.Item) {
	p.store.AddAll(items)
}

// handle dispatches incoming protocol messages.
func (p *Peer) handle(ctx context.Context, from network.Addr, req any) (any, error) {
	switch m := req.(type) {
	case ExchangeRequest:
		resp := p.handleExchange(m)
		p.persistPathMeta() // the exchange may have moved the path
		return resp, nil
	case QueryRequest:
		return p.handleQuery(ctx, m), nil
	case BatchQueryRequest:
		return p.handleQueryBatch(ctx, m), nil
	case RangeRequest:
		return p.handleRange(ctx, m), nil
	case ReplicateRequest:
		return p.handleReplicate(m), nil
	case InsertRequest:
		return p.handleInsert(ctx, m), nil
	case DeleteRequest:
		return p.handleDelete(ctx, m), nil
	case DigestRequest, DeltaRequest:
		// Dispatched behind one indirection on purpose: binding the
		// protocol's comparatively large request/response structs here would
		// grow handle's stack frame, and every α-raced query hop pays for
		// the resulting goroutine stack growth.
		return p.handleAntiEntropy(req)
	case ClockRequest:
		return ClockResponse{Path: p.Path(), Clock: p.store.Clock()}, nil
	case TombstonePruneRequest:
		return p.handleTombstonePrune(m), nil
	case PingRequest:
		return PingResponse{Path: p.Path(), Done: p.Done()}, nil
	default:
		return nil, fmt.Errorf("overlay: unknown request type %T", req)
	}
}

// ErrUnreachable classifies routed operations that could not reach the
// partition responsible for their key: every candidate reference was
// exhausted (peers down, refs stale, TTL spent). It is the overlay's
// "service unavailable" signal — the key may well exist, but no route led
// to it — and callers (the HTTP gateway, pgridnode -get) use it to
// distinguish "overlay down" from "key absent" (ErrNotFound) and "write
// under-replicated" (ErrNoQuorum). Test with errors.Is.
var ErrUnreachable = errors.New("overlay: responsible partition unreachable")

// ErrNotFound classifies lookups that did reach the responsible partition
// but found no item stored under the key. Query itself reports this case as
// an empty result set; the sentinel exists so service layers above the
// overlay (internal/gate, pgridnode) map "absent" uniformly — e.g. to HTTP
// 404 — instead of inventing their own marker. Test with errors.Is.
var ErrNotFound = errors.New("overlay: key not found")

// errNotResponsible is returned by query handling when routing cannot make
// progress. It wraps ErrUnreachable so callers above the protocol layer can
// classify the failure without knowing the internal control-flow error.
var errNotResponsible = fmt.Errorf("overlay: no route towards responsible peer: %w", ErrUnreachable)

// random returns a random float using the peer's RNG under the state lock's
// protection (callers must hold p.mu).
func (p *Peer) randomLocked() float64 { return p.rng.Float64() }

// markProductiveLocked resets the idle counter after a state-changing
// interaction (callers must hold p.mu).
func (p *Peer) markProductiveLocked() {
	p.idle = 0
	p.done = false
}

// markIdleLocked records an unproductive interaction and flips the peer to
// done when the threshold is reached (callers must hold p.mu).
func (p *Peer) markIdleLocked() {
	p.idle++
	if p.idle >= p.cfg.DoneAfterIdle {
		p.done = true
	}
}

// addReplicaLocked records a replica peer (callers must hold p.mu).
func (p *Peer) addReplicaLocked(a network.Addr) {
	if a == "" || a == p.Addr() {
		return
	}
	p.replicas[a] = true
}

// clearReplicasLocked forgets the replica list, which becomes stale when
// the peer's path changes (callers must hold p.mu). Anti-entropy baselines
// survive: they are positions in each peer's monotonic store clock, and a
// pre-split sync covered a superset of the new partition, so they remain
// valid if a cleared peer is re-discovered as a replica.
func (p *Peer) clearReplicasLocked() {
	p.replicas = make(map[network.Addr]bool)
}

// snapshotReplicasLocked returns the replica list (callers must hold p.mu).
func (p *Peer) snapshotReplicasLocked() []network.Addr {
	out := make([]network.Addr, 0, len(p.replicas))
	for a := range p.replicas {
		out = append(out, a)
	}
	return out
}

// handleReplicate serves the pre-construction replication push.
func (p *Peer) handleReplicate(req ReplicateRequest) ReplicateResponse {
	accepted := p.store.AddAll(req.Items)
	p.counters[KeysMoved].Add(uint64(len(req.Items)))
	resp := ReplicateResponse{Accepted: accepted, Path: p.Path()}
	p.mu.Lock()
	if req.From != "" && req.Path.SamePartition(p.table.Path()) {
		p.addReplicaLocked(req.From)
	}
	for _, r := range req.Replicas {
		if r != p.Addr() {
			p.addReplicaLocked(r)
		}
	}
	resp.Replicas = p.snapshotReplicasLocked()
	p.mu.Unlock()
	return resp
}
