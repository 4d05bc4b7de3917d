package overlay

import "pgrid/internal/replication"

// This file is the peer's observability read path. The Metrics counters are
// written from the protocol hot paths via atomic adds; MetricsSnapshot
// collects them — plus the replication gauges that were previously
// invisible outside the store (item count, tombstones, WAL shape,
// disk-engine segments) — into one plain-value struct that exporters
// (internal/gate's Prometheus endpoint, pgridbench) can read while a
// workload runs, without half-updated figures and without stalling the
// protocol.

// MetricsSnapshot is a point-in-time, plain-value copy of a peer's protocol
// counters and replication gauges. All counter fields are cumulative since
// the peer started.
type MetricsSnapshot struct {
	// Construction activity: interactions initiated and data items moved.
	Interactions float64
	KeysMoved    float64
	// Query activity this peer originated, and the hops those queries took.
	Queries   float64
	QueryHops float64
	// Routed mutations this peer originated, and their routing hops.
	Mutations    float64
	MutationHops float64
	// Bandwidth by purpose (Peer.Bandwidth): the encoded body bytes of the
	// calls this peer made, requests plus responses, classified by request
	// type.
	MaintenanceBytes float64
	QueryBytes       float64
	// Completed anti-entropy syncs by protocol path.
	SyncsInSync float64
	SyncsDelta  float64
	SyncsFull   float64
	// Tombstones removed by the GC horizon.
	TombstonesPruned float64
	// Maintenance ticks that observed a sticky persistence failure.
	PersistenceErrors float64
	// Exact lookups served from the query answer cache versus lookups that
	// had to route.
	CacheHits   float64
	CacheMisses float64

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
	m := &p.Metrics
	query, maintenance := p.Bandwidth()
	return MetricsSnapshot{
		Interactions:      m.Interactions.Value(),
		KeysMoved:         m.KeysMoved.Value(),
		Queries:           m.Queries.Value(),
		QueryHops:         m.QueryHops.Value(),
		Mutations:         m.Mutations.Value(),
		MutationHops:      m.MutationHops.Value(),
		MaintenanceBytes:  maintenance,
		QueryBytes:        query,
		SyncsInSync:       m.SyncsInSync.Value(),
		SyncsDelta:        m.SyncsDelta.Value(),
		SyncsFull:         m.SyncsFull.Value(),
		TombstonesPruned:  m.TombstonesPruned.Value(),
		PersistenceErrors: m.PersistenceErrors.Value(),
		CacheHits:         m.CacheHits.Value(),
		CacheMisses:       m.CacheMisses.Value(),
		Path:              string(p.Path()),
		Replicas:          len(p.Replicas()),
		Store:             p.store.Stats(),
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

// Merge adds the counters of o into s and sums the size gauges (items,
// tombstones, replicas, WAL records/segments, engine shape), producing a
// cluster-wide aggregate; Path is cleared because an aggregate has none.
func (s MetricsSnapshot) Merge(o MetricsSnapshot) MetricsSnapshot {
	s.Interactions += o.Interactions
	s.KeysMoved += o.KeysMoved
	s.Queries += o.Queries
	s.QueryHops += o.QueryHops
	s.Mutations += o.Mutations
	s.MutationHops += o.MutationHops
	s.MaintenanceBytes += o.MaintenanceBytes
	s.QueryBytes += o.QueryBytes
	s.SyncsInSync += o.SyncsInSync
	s.SyncsDelta += o.SyncsDelta
	s.SyncsFull += o.SyncsFull
	s.TombstonesPruned += o.TombstonesPruned
	s.PersistenceErrors += o.PersistenceErrors
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
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
