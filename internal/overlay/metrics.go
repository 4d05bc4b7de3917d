package overlay

import "pgrid/internal/replication"

// This file is the peer's observability read path. The protocol counters are
// declared once, as Counter constants plus one row each in Counters; the
// protocol hot paths advance them with atomic adds, and every reader —
// MetricsSnapshot, Merge, the gateway's Prometheus endpoint, the simulator
// and pgridbench — goes through Counts, so a scrape never sees a
// half-updated figure and never stalls the protocol.

// Counter names one of a peer's cumulative protocol counters. Adding a
// counter is one constant here plus one row in Counters.
type Counter int

const (
	Interactions Counter = iota
	KeysMoved
	Queries
	QueryHops
	Mutations
	MutationHops
	SyncsInSync
	SyncsDelta
	SyncsFull
	TombstonesPruned
	PersistenceErrors
	CacheHits
	CacheMisses
	NumCounters
)

// CounterInfo is how one counter is exported: its Prometheus family, the
// label block that tells it apart from the family's other counters
// (`kind="delta"`; empty when the family has one counter) and the family's
// help string.
type CounterInfo struct {
	Family, Label, Help string
}

const syncsHelp = "Completed anti-entropy syncs by protocol path."

// Counters describes every Counter and is the one description of what each
// counts. Counters of one family are adjacent.
var Counters = [NumCounters]CounterInfo{
	Interactions: {"pgrid_peer_interactions_total", "", "Construction interactions initiated."},
	KeysMoved:    {"pgrid_peer_keys_moved_total", "", "Data items moved during construction."},
	// Each key of a batch lookup counts as one exact-match query.
	Queries:      {"pgrid_peer_queries_total", "", "Exact-match and range queries originated."},
	QueryHops:    {"pgrid_peer_query_hops_total", "", "Routing hops used by originated queries."},
	Mutations:    {"pgrid_peer_mutations_total", "", "Routed inserts and deletes originated."},
	MutationHops: {"pgrid_peer_mutation_hops_total", "", "Routing hops used by originated mutations."},
	// Root digests matched and nothing moved; an exact delta or a digest
	// walk; a full-set rebuild.
	SyncsInSync:       {"pgrid_peer_syncs_total", `kind="insync"`, syncsHelp},
	SyncsDelta:        {"pgrid_peer_syncs_total", `kind="delta"`, syncsHelp},
	SyncsFull:         {"pgrid_peer_syncs_total", `kind="full"`, syncsHelp},
	TombstonesPruned:  {"pgrid_peer_tombstones_pruned_total", "", "Tombstones removed by the GC horizon."},
	PersistenceErrors: {"pgrid_peer_persistence_errors_total", "", "Maintenance ticks observing a sticky persistence failure."},
	CacheHits:         {"pgrid_peer_cache_hits_total", "", "Exact lookups served from the query answer cache."},
	CacheMisses:       {"pgrid_peer_cache_misses_total", "", "Exact lookups that had to route (cache miss or revalidation failure)."},
}

// Counts holds one value per Counter, indexed by Counter.
type Counts [NumCounters]float64

// Add adds o into c, counter by counter.
func (c *Counts) Add(o Counts) {
	for i := range c {
		c[i] += o[i]
	}
}

// Counts returns the peer's counters, each read with one atomic load. A peer
// that replaces a restarted one starts again from zero.
func (p *Peer) Counts() Counts {
	var c Counts
	for i := range c {
		c[i] = float64(p.counters[i].Load())
	}
	return c
}

// MetricsSnapshot is a point-in-time, plain-value copy of a peer's protocol
// counters, bandwidth and replication gauges. Counters and bandwidth are
// cumulative since the peer started.
type MetricsSnapshot struct {
	// Counts holds the protocol counters, indexed by Counter.
	Counts Counts
	// Bandwidth by purpose (Peer.Bandwidth): the encoded body bytes of the
	// calls this peer made, requests plus responses, classified by request
	// type.
	MaintenanceBytes float64
	QueryBytes       float64

	// Path is the peer's partition path.
	Path string
	// Replicas is the number of peers currently known to replicate this
	// peer's partition.
	Replicas int
	// Store carries the replica store's gauges: live items, tombstones,
	// logical clock, WAL records/segments, storage engine shape.
	Store replication.StoreStats
}

// MetricsSnapshot returns a consistent point-in-time copy of the peer's
// counters and gauges. Each counter is read with one atomic load and each
// gauge under its own lock, so it is safe to call at scrape frequency while
// queries, mutations and maintenance run concurrently.
func (p *Peer) MetricsSnapshot() MetricsSnapshot {
	query, maintenance := p.Bandwidth()
	return MetricsSnapshot{
		Counts:           p.Counts(),
		MaintenanceBytes: maintenance,
		QueryBytes:       query,
		Path:             string(p.Path()),
		Replicas:         len(p.Replicas()),
		Store:            p.store.Stats(),
	}
}

// Bandwidth returns the encoded body bytes of the calls this peer made —
// requests sent plus responses received, as its transport counted them —
// split by request type into query traffic and maintenance (Figure 8). A
// peer restarted on the same endpoint continues its predecessor's count.
func (p *Peer) Bandwidth() (query, maintenance float64) {
	for typ, n := range p.transport.BytesByType() {
		if queryPath[typ] {
			query += float64(n)
		} else {
			maintenance += float64(n)
		}
	}
	return query, maintenance
}

// Merge adds the counters and bandwidth of o into s and sums the size gauges
// (items, tombstones, replicas, WAL records/segments, engine shape),
// producing a cluster-wide aggregate; Path is cleared because an aggregate
// has none.
func (s MetricsSnapshot) Merge(o MetricsSnapshot) MetricsSnapshot {
	s.Counts.Add(o.Counts)
	s.MaintenanceBytes += o.MaintenanceBytes
	s.QueryBytes += o.QueryBytes
	s.Replicas += o.Replicas
	s.Path = ""
	s.Store.Items += o.Store.Items
	s.Store.Tombstones += o.Store.Tombstones
	s.Store.Clock += o.Store.Clock
	s.Store.WALRecords += o.Store.WALRecords
	s.Store.WALSegments += o.Store.WALSegments
	s.Store.EngineStats.Segments += o.Store.EngineStats.Segments
	s.Store.EngineStats.MemtableLen += o.Store.EngineStats.MemtableLen
	s.Store.EngineStats.FrozenLen += o.Store.EngineStats.FrozenLen
	return s
}
