// Package overlay implements the P-Grid peer — the trie-structured overlay
// node of "Indexing data-oriented overlay networks" (VLDB 2005) — and
// everything a deployment of such peers needs to construct, query, mutate
// and maintain the distributed index.
//
// A Peer binds a routing table (internal/routing), a replica data store
// (internal/replication) and a message transport (internal/network), and
// speaks the overlay protocol through a single message handler. The
// package splits along the protocol's phases:
//
//   - Construction (construct.go, exchange.go): the paper's decentralized
//     algorithm. Peers meet through random encounters and apply the
//     split/replicate/refer rules (Figure 2) until the keyspace trie has
//     formed; the decision probabilities come from internal/core.
//   - Queries (query.go, batch.go): exact-match lookups routed by prefix,
//     raced α-wide at the accepting peer (with optional hedging) and one
//     reference at a time at every forwarder; "shower" range queries
//     fanning out over the covered sub-tries; and batch lookups that share
//     one message per hop among keys with a common next hop.
//   - Live mutations (mutate.go): routed Insert/Delete with replica
//     fan-out and write quorums; deletes record generation-stamped
//     tombstones that order them against concurrent re-inserts.
//   - Anti-entropy (antientropy.go): the digest/delta reconciliation
//     protocol between replicas — root-digest comparison, exact deltas
//     from per-replica sync baselines, bounded digest walks, and full
//     rebuilds only for provably stale post-GC rejoins.
//   - Maintenance (maintain.go): the background tick driving anti-entropy,
//     tombstone GC, routing-reference probing, replica re-discovery and —
//     on persistent peers — durable-state checkpoints.
//
// Peers created with NewPersistent (Config.DataDir) keep their replica
// state durable through the store's WAL+snapshot machinery and recover
// their partition path, routing references, replica set and sync baselines
// on restart, rejoining the overlay through the cheap exact-delta sync
// path. See internal/replication and docs/ARCHITECTURE.md for the format
// and the recovery protocol.
package overlay
