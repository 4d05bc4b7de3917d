package overlay

import (
	"pgrid/internal/keyspace"
	"pgrid/internal/network"
	"pgrid/internal/replication"
	"pgrid/internal/routing"
)

// Message type names registered for the TCP transport.
const (
	msgExchangeRequest  = "pgrid.exchange.request"
	msgExchangeResponse = "pgrid.exchange.response"
	msgQueryRequest     = "pgrid.query.request"
	msgQueryResponse    = "pgrid.query.response"
	msgBatchRequest     = "pgrid.batchquery.request"
	msgBatchResponse    = "pgrid.batchquery.response"
	msgRangeRequest     = "pgrid.range.request"
	msgRangeResponse    = "pgrid.range.response"
	msgReplicateRequest = "pgrid.replicate.request"
	msgReplicateReply   = "pgrid.replicate.response"
	msgPingRequest      = "pgrid.ping.request"
	msgPingResponse     = "pgrid.ping.response"
	msgInsertRequest    = "pgrid.insert.request"
	msgDeleteRequest    = "pgrid.delete.request"
	msgMutateResponse   = "pgrid.mutate.response"
	msgDigestRequest    = "pgrid.digest.request"
	msgDigestResponse   = "pgrid.digest.response"
	msgDeltaRequest     = "pgrid.delta.request"
	msgDeltaResponse    = "pgrid.delta.response"
	msgClockRequest     = "pgrid.clock.request"
	msgClockResponse    = "pgrid.clock.response"
	msgPruneRequest     = "pgrid.prune.request"
	msgPruneResponse    = "pgrid.prune.response"
)

// wireMessages is the overlay's protocol: every message type it sends,
// under its wire name. init registers exactly these rows. RegisterType
// derives each row's codec from its struct declaration, so the order of
// the exported fields below, nested structs included, is the wire format.
// It panics on a type with no wire encoding, and TestWireMessageChecklist
// fails on a row without a round-trip seed (which TestGoldenWireVectors
// pins) or a fuzz corpus seed.
var wireMessages = []struct {
	name   string
	sample any
}{
	{msgExchangeRequest, ExchangeRequest{}},
	{msgExchangeResponse, ExchangeResponse{}},
	{msgQueryRequest, QueryRequest{}},
	{msgQueryResponse, QueryResponse{}},
	{msgBatchRequest, BatchQueryRequest{}},
	{msgBatchResponse, BatchQueryResponse{}},
	{msgRangeRequest, RangeRequest{}},
	{msgRangeResponse, RangeResponse{}},
	{msgReplicateRequest, ReplicateRequest{}},
	{msgReplicateReply, ReplicateResponse{}},
	{msgPingRequest, PingRequest{}},
	{msgPingResponse, PingResponse{}},
	{msgInsertRequest, InsertRequest{}},
	{msgDeleteRequest, DeleteRequest{}},
	{msgMutateResponse, MutateResponse{}},
	{msgDigestRequest, DigestRequest{}},
	{msgDigestResponse, DigestResponse{}},
	{msgDeltaRequest, DeltaRequest{}},
	{msgDeltaResponse, DeltaResponse{}},
	{msgClockRequest, ClockRequest{}},
	{msgClockResponse, ClockResponse{}},
	{msgPruneRequest, TombstonePruneRequest{}},
	{msgPruneResponse, TombstonePruneResponse{}},
}

func init() {
	for _, m := range wireMessages {
		network.RegisterType(m.name, m.sample)
	}
}

// queryPath names the requests whose call bytes are query traffic in the
// Figure 8 bandwidth split; every other request is maintenance.
var queryPath = map[string]bool{
	msgQueryRequest:  true,
	msgBatchRequest:  true,
	msgRangeRequest:  true,
	msgInsertRequest: true,
	msgDeleteRequest: true,
	msgClockRequest:  true,
}

// Action describes the outcome of an exchange interaction.
type Action string

// Exchange outcomes (Figure 2).
const (
	// ActionSplit means the two peers split the current partition between
	// them (divide and conquer).
	ActionSplit Action = "split"
	// ActionExtend means the initiator extended its path after meeting a
	// peer that had already decided (rules 3/4 of AEP).
	ActionExtend Action = "extend"
	// ActionReplicate means the peers became (or already were) replicas of
	// the same partition and reconciled their content.
	ActionReplicate Action = "replicate"
	// ActionRefer means the peers belong to different partitions; routing
	// tables were exchanged and the initiator was referred to another peer.
	ActionRefer Action = "refer"
	// ActionNone means the interaction had no effect (e.g. a balanced split
	// was not performed because of the alpha probability).
	ActionNone Action = "none"
	// ActionItems asks the initiator to send its request again with its
	// items: the peers share a partition, so the encounter moves data. The
	// responder changed nothing yet.
	ActionItems Action = "items"
)

// ExchangeRequest is sent by a peer initiating a construction interaction.
type ExchangeRequest struct {
	// From is the initiator's address.
	From network.Addr
	// Path is the initiator's current path.
	Path keyspace.Path
	// Estimate is the initiator's estimate of the fraction of the current
	// partition's data that falls into sub-partition 0.
	Estimate float64
	// Items are the initiator's data items for the current partition
	// (needed for content exchange on splits and replication). They are
	// sent only when the responder asks for them (see Withheld).
	Items []replication.Item
	// RoutingPath and RoutingRefs are a snapshot of the initiator's routing
	// table (exchanged to add redundancy and randomization).
	RoutingPath keyspace.Path
	RoutingRefs [][]routing.Ref
	// Replicas is the initiator's current replica list.
	Replicas []network.Addr
	// Done reports whether the initiator considers its construction
	// converged (used for termination detection).
	Done bool
	// Withheld marks a request sent without its items. A responder that
	// shares the initiator's partition answers ActionItems and nothing
	// else, and the initiator repeats the request with Items; a refer
	// between foreign partitions never reads them.
	Withheld bool
}

// ExchangeResponse is the contacted peer's reply.
type ExchangeResponse struct {
	// Action is the interaction outcome.
	Action Action
	// From is the responder's address.
	From network.Addr
	// ResponderPath is the responder's (possibly new) path.
	ResponderPath keyspace.Path
	// NewPath, when non-empty, is the path the initiator must adopt.
	NewPath keyspace.Path
	// NewPathSet marks NewPath as meaningful even when it equals the root.
	NewPathSet bool
	// Items are data items handed over to the initiator.
	Items []replication.Item
	// TakenOver reports that the responder absorbed the initiator's items
	// that are not covered by the initiator's new path, so the initiator
	// may drop them.
	TakenOver bool
	// Refs are routing references the initiator should add, keyed by level.
	Refs []LevelRef
	// RoutingPath and RoutingRefs snapshot the responder's routing table.
	RoutingPath keyspace.Path
	RoutingRefs [][]routing.Ref
	// Replicas is the responder's replica list (for replica discovery).
	Replicas []network.Addr
	// Referral is a peer the initiator should contact next (refer action).
	Referral network.Addr
	// ResponderDone reports the responder's convergence state.
	ResponderDone bool
}

// LevelRef is a routing reference tagged with its level.
type LevelRef struct {
	Level int
	Ref   routing.Ref
}

// QueryRequest asks the receiving peer to resolve an exact-match query.
type QueryRequest struct {
	Key keyspace.Key
	// Hops counts the routing hops taken so far.
	Hops int
	// TTL bounds the remaining hops.
	TTL int
	// Bypass disables the answer cache along the route: the query must be
	// resolved by the responsible partition itself. Set by consistent reads
	// (the gate's ?consistent=1).
	Bypass bool
}

// QueryResponse carries the query result.
type QueryResponse struct {
	// Found reports whether the responsible peer was reached.
	Found bool
	// Items are the data items stored under the queried key.
	Items []replication.Item
	// Hops is the total number of routing hops used.
	Hops int
	// Responsible is the address of the peer that answered.
	Responsible network.Addr
	// ResponsiblePath is that peer's path.
	ResponsiblePath keyspace.Path
	// Clock is the answering store's logical clock when the answer was
	// produced — the freshness token cached copies of this answer are
	// validated against.
	Clock uint64
	// Cached marks an answer served from a peer's answer cache (after its
	// clock token was revalidated) rather than resolved by the responsible
	// partition.
	Cached bool
}

// BatchQueryRequest asks the receiving peer to resolve many exact-match
// queries at once. Keys that route through the same next hop travel together
// in a single message instead of as independent lookups, which is what lets
// a batch share in-flight routing work.
type BatchQueryRequest struct {
	Keys []keyspace.Key
	// Hops counts the routing hops taken so far.
	Hops int
	// TTL bounds the remaining hops.
	TTL int
}

// BatchQueryResponse carries one QueryResponse per requested key, aligned
// with the request's Keys by index.
type BatchQueryResponse struct {
	Results []QueryResponse
}

// RangeRequest asks for all items with keys in [Lo, Hi).
type RangeRequest struct {
	Lo, Hi keyspace.Key
	// HiUnbounded marks a range that extends to the end of the key space.
	HiUnbounded bool
	Hops        int
	TTL         int
}

// RangeResponse carries a (partial) range query result.
type RangeResponse struct {
	Items []replication.Item
	// Hops is the maximal hop count over all branches of the query.
	Hops int
	// Partitions is the number of distinct partitions that contributed.
	Partitions int
	// Incomplete reports that some branch of the query could not be
	// resolved (e.g. all references to a sub-tree were offline).
	Incomplete bool
}

// ReplicateRequest pushes items to another peer during the pre-construction
// replication phase.
type ReplicateRequest struct {
	From  network.Addr
	Path  keyspace.Path
	Items []replication.Item
	// Replicas is the initiator's replica list for gossip-style discovery.
	Replicas []network.Addr
}

// ReplicateResponse acknowledges replication.
type ReplicateResponse struct {
	Accepted int
	Replicas []network.Addr
	Path     keyspace.Path
}

// PingRequest probes a peer for liveness and its current path.
type PingRequest struct{ From network.Addr }

// PingResponse answers a ping.
type PingResponse struct {
	Path keyspace.Path
	Done bool
}

// InsertRequest routes a live write towards the partition responsible for
// the item's key. The responsible peer applies the write locally, fans it out
// to its replica set, and acknowledges with the number of replicas that
// applied it (quorum-ack).
type InsertRequest struct {
	// Item is the (key, value) pair to store.
	Item replication.Item
	// ID identifies the mutation end to end: a fallback after a lost answer
	// can deliver a duplicate to a responsible peer, and the ID lets the
	// partition coordinate the operation exactly once (replicas learn it on
	// the Direct fan-out leg). Zero disables deduplication.
	ID uint64
	// Hops counts the routing hops taken so far.
	Hops int
	// TTL bounds the remaining hops.
	TTL int
	// Direct marks the replica fan-out leg: the receiver must apply the
	// write locally without routing it any further.
	Direct bool
}

// DeleteRequest routes a live delete of one (key, value) pair towards the
// responsible partition. Deletes are tombstoned at every replica that applies
// them, so anti-entropy cannot resurrect the pair.
type DeleteRequest struct {
	// Key is the key of the pair to delete.
	Key keyspace.Key
	// Value selects the stored value to delete under the key.
	Value string
	// Gen is the coordinator's generation stamp for the tombstone on the
	// Direct fan-out leg: replicas apply this exact stamp so the delete
	// orders consistently against re-inserts even where the local tombstone
	// history is stale. On a routed request it is the lowest stamp the
	// sender accepts, as InsertRequest's Item.Gen (0 for any).
	Gen uint64
	// ID identifies the mutation end to end for duplicate suppression; see
	// InsertRequest.ID.
	ID uint64
	// Hops counts the routing hops taken so far.
	Hops int
	// TTL bounds the remaining hops.
	TTL int
	// Direct marks the replica fan-out leg (apply locally, do not route).
	Direct bool
}

// MutateResponse acknowledges an Insert or Delete.
type MutateResponse struct {
	// Found reports whether a responsible peer was reached.
	Found bool
	// Acks is the number of replicas (including the responsible peer) that
	// applied the mutation.
	Acks int
	// Replicas is the size of the replica set the responsible peer attempted
	// to write to, including itself.
	Replicas int
	// Gen is the highest generation the responder has seen for the mutated
	// pair. On a Direct leg that refused a stale write it tells the
	// coordinator what generation its retry must out-stamp.
	Gen uint64
	// Hops is the total number of routing hops used.
	Hops int
	// Responsible is the peer that coordinated the write. With Found false
	// it is the responsible peer that refused a duplicate it had already
	// coordinated (ending the walk), and empty when none was reached.
	Responsible network.Addr
	// ResponsiblePath is that peer's path.
	ResponsiblePath keyspace.Path
}

// DigestRequest opens or continues the digest phase of the delta
// anti-entropy protocol. The opening round (Root) carries the digest of the
// initiator's whole partition; walk rounds carry the child-bucket digests of
// previously mismatched buckets, so the peers recurse only into the parts of
// the key space where they actually differ.
type DigestRequest struct {
	// From is the initiator's address.
	From network.Addr
	// Path is the initiator's partition.
	Path keyspace.Path
	// Root marks the opening round of a sync.
	Root bool
	// Clock is the initiator's store clock, for the responder's records.
	Clock uint64
	// Since is the responder's store clock at the initiator's last completed
	// sync with it (0 = never synced). The responder uses it both to decide
	// whether it can serve an exact delta and to detect a stale rejoiner: an
	// initiator whose Since predates the responder's GC floor may have missed
	// pruned tombstones and must full-sync instead of merging.
	Since uint64
	// Buckets are the initiator's digests for the probed prefixes.
	Buckets []replication.BucketDigest
	// Replicas is the initiator's replica list for gossip-style discovery.
	Replicas []network.Addr
}

// DigestResponse answers one digest round.
type DigestResponse struct {
	// Path is the responder's partition path (the initiator drops the
	// replica when the partitions no longer overlap).
	Path keyspace.Path
	// Clock is the responder's store clock.
	Clock uint64
	// InSync reports that the root digests matched: the replicas are
	// identical and nothing needs to be transferred.
	InSync bool
	// Incomparable reports that the initiator's Since predates the
	// responder's GC floor (a post-GC rejoin): deltas are meaningless and
	// the initiator must rebuild its partition content from the responder.
	Incomparable bool
	// DeltaOK reports that the responder can serve an exact delta of
	// everything changed since the initiator's Since clock.
	DeltaOK bool
	// Mismatch lists the probed prefixes whose digests differ.
	Mismatch []keyspace.Path
	// Replicas is the responder's replica list.
	Replicas []network.Addr
}

// DeltaRequest transfers the initiator's side of the differing content and
// asks for the responder's: an exact delta (Since), the mismatched buckets
// of a digest walk (Prefixes), or the full partition (Full) when
// generations are incomparable.
type DeltaRequest struct {
	// From is the initiator's address.
	From network.Addr
	// Path is the initiator's partition.
	Path keyspace.Path
	// Clock is the initiator's store clock.
	Clock uint64
	// Since, together with the same field's role in DigestRequest, is the
	// responder clock of the initiator's last completed sync: the responder
	// returns everything that changed after it, and refuses the initiator's
	// pushed items when Since predates its GC floor.
	Since uint64
	// Prefixes are the mismatched leaf buckets of a digest walk to exchange
	// (unused when Since or Full drive the request).
	Prefixes []keyspace.Path
	// Full requests the responder's complete partition content.
	Full bool
	// Rebuild marks the initiator as authoritative: the responder replaces
	// its partition content with the request's items and tombstones (sent to
	// a replica that missed the initiator's tombstone-GC window).
	Rebuild bool
	// Pull asks only for the responder's content; the initiator sends
	// nothing because it is itself stale and about to rebuild.
	Pull bool
	// Items and Tombstones are the initiator's content for the requested
	// scope.
	Items, Tombstones []replication.Item
	// Replicas is the initiator's replica list for gossip.
	Replicas []network.Addr
}

// DeltaResponse carries the responder's side of the content exchange.
type DeltaResponse struct {
	// Path is the responder's partition path.
	Path keyspace.Path
	// Clock is the responder's store clock after serving the request; the
	// initiator records it as the new sync baseline.
	Clock uint64
	// Incomparable reports that the requested Since predates the responder's
	// GC floor (a GC ran between the digest and delta rounds, or the
	// initiator pushed content while stale): nothing was merged and the
	// initiator must restart with a full sync.
	Incomparable bool
	// Applied is the number of pushed items and tombstones that changed the
	// responder's store.
	Applied int
	// Items and Tombstones are the responder's content for the requested
	// scope.
	Items, Tombstones []replication.Item
	// Replicas is the responder's replica list.
	Replicas []network.Addr
}

// ClockRequest asks a peer for its store's logical clock — the one-hop
// freshness probe of the query answer cache. It is deliberately tiny: a
// probe must cost the (possibly hot) responsible peer a few dozen bytes,
// not an item-carrying response.
type ClockRequest struct {
	// From is the prober's address.
	From network.Addr
}

// ClockResponse answers a clock probe.
type ClockResponse struct {
	// Path is the responder's partition path; a probe also checks the
	// responder still covers the cached key's partition.
	Path keyspace.Path
	// Clock is the responder's store clock.
	Clock uint64
}

// TombstonePruneRequest tells the replicas of a partition which tombstones
// the sender's GC compaction just dropped, so they drop theirs in the same
// round instead of re-learning the prune through later sync rounds.
type TombstonePruneRequest struct {
	// From is the compacting peer.
	From network.Addr
	// Path is the sender's partition; receivers outside it ignore the batch.
	Path keyspace.Path
	// Pairs are the pruned (key, value) pairs with the generation each
	// tombstone carried — a receiver only drops its own tombstone when it is
	// not newer than the pruned one.
	Pairs []replication.Item
}

// TombstonePruneResponse acknowledges a cooperative prune.
type TombstonePruneResponse struct {
	// Dropped is the number of tombstones the receiver removed.
	Dropped int
}
