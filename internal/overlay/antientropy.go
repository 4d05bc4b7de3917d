package overlay

import (
	"context"
	"errors"

	"pgrid/internal/keyspace"
	"pgrid/internal/network"
	"pgrid/internal/replication"
)

// This file implements the digest/delta anti-entropy protocol that replaced
// the full-set exchange: instead of shipping the partition's entire item and
// tombstone set to a replica every maintenance tick, the peers first compare
// cheap Merkle-style bucket digests and then transfer only what actually
// differs. Reconciliation cost is proportional to the delta, not the
// dataset, so steady-state maintenance bandwidth stays flat as lifetime
// writes grow.
//
// One sync between an initiator and a replica proceeds as follows:
//
//  1. Root round: the initiator sends the digest of its whole partition
//     plus Since, the replica's store clock at their last completed sync.
//     If the digests match the replicas are identical and the sync is done
//     at the cost of two small messages — the steady-state common case.
//  2. Exact delta: when Since is usable (it does not predate the replica's
//     tombstone-GC floor), the initiator pushes everything it changed since
//     the last sync and pulls everything the replica changed — one round
//     trip carrying only the modified pairs.
//  3. Digest walk: without a usable baseline (first contact), the peers
//     recurse through bucket digests — 2^digestWalkWidth children per
//     mismatched bucket per round, bounded by replication.DigestDepth — and
//     then exchange only the content of the mismatched leaf buckets.
//  4. Full sync: when the generations are incomparable because one side
//     pruned tombstones the other never saw (a post-GC rejoin), deltas
//     could silently resurrect deleted pairs. The stale side instead
//     replaces its partition content wholesale with the fresh side's
//     (replication.Store.ReplaceWithin), in either direction: the initiator
//     rebuild-pulls when the replica reports it stale, and rebuild-pushes
//     when its own GC floor has passed the replica's last sync.
//
// Sync baselines (the per-replica pair of store clocks) are tracked by the
// initiator only and advanced strictly after the content exchange
// completed, so a lost response can never mark a replica fresher than it
// is.

// Parameters of the digest walk.
const (
	// digestWalkWidth is the number of prefix bits one walk round descends:
	// every mismatched bucket is split into 2^digestWalkWidth children.
	digestWalkWidth = 4
	// digestLeafLimit is the bucket size below which the walk stops
	// recursing and transfers the bucket's content directly.
	digestLeafLimit = 16
)

// SyncKind classifies the outcome of one anti-entropy sync.
type SyncKind string

// Sync outcomes.
const (
	// SyncNone means no sync ran (no replica known, or the round failed).
	SyncNone SyncKind = ""
	// SyncInSync means the root digests matched and nothing was
	// transferred.
	SyncInSync SyncKind = "insync"
	// SyncDelta means an exact delta since the last sync was exchanged.
	SyncDelta SyncKind = "delta"
	// SyncWalk means a digest walk located the differing buckets, whose
	// content was then exchanged.
	SyncWalk SyncKind = "walk"
	// SyncRebuildPull means this peer was stale past the replica's GC
	// horizon and replaced its partition content with the replica's.
	SyncRebuildPull SyncKind = "rebuild-pull"
	// SyncRebuildPush means the replica was stale past this peer's GC
	// horizon and was rebuilt from this peer's content.
	SyncRebuildPush SyncKind = "rebuild-push"
)

// syncState is the initiator-side baseline of the last completed sync with
// one replica.
type syncState struct {
	// mine is this peer's store clock at the last completed sync: the
	// replica has seen every local change up to it.
	mine uint64
	// theirs is the replica's store clock at that sync: this peer has seen
	// every remote change up to it, and sends it as Since.
	theirs uint64
}

// SyncReport summarises one digest/delta sync.
type SyncReport struct {
	// Kind is the protocol path the sync took.
	Kind SyncKind
	// Received is the number of items and tombstones applied locally.
	Received int
	// Sent is the number of items and tombstones pushed to the replica.
	Sent int
}

// errSyncAborted reports a sync that could not complete this tick (the next
// tick retries from the recorded baseline).
var errSyncAborted = errors.New("overlay: anti-entropy sync aborted")

// syncStateOf returns the recorded baseline for a replica.
func (p *Peer) syncStateOf(addr network.Addr) syncState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.syncStates[addr]
}

// noteSync records a completed sync baseline, durably when the store is
// persistent — which is what lets a restarted peer resume exact-delta
// syncs instead of degrading to a first-contact walk (or, after a GC
// prune, to a rebuild).
func (p *Peer) noteSync(addr network.Addr, st syncState) {
	p.mu.Lock()
	if p.syncStates == nil {
		p.syncStates = make(map[network.Addr]syncState)
	}
	p.syncStates[addr] = st
	p.mu.Unlock()
	if p.store.Persistent() {
		p.store.RecordBaseline(string(addr), replication.Baseline{Mine: st.mine, Theirs: st.theirs})
	}
}

// compactSyncStates bounds the per-replica baseline metadata. Baselines of
// peers that merely left the replica set are deliberately kept: a transient
// call failure drops the replica, and losing the baseline with it would
// degrade the next sync to an incomparable first contact — which, once any
// tombstone was ever GC'd, cannot be delta-merged. Only when the map
// clearly outgrows the replica set (long-term churn) are foreign entries
// pruned.
func (p *Peer) compactSyncStates() {
	p.mu.Lock()
	var dropped []network.Addr
	if len(p.syncStates) > 4*(len(p.replicas)+4) {
		for addr := range p.syncStates {
			if !p.replicas[addr] {
				delete(p.syncStates, addr)
				dropped = append(dropped, addr)
			}
		}
	}
	p.mu.Unlock()
	if len(dropped) > 0 && p.store.Persistent() {
		// Mirror the compaction into the durable baselines so the
		// persistence map stays bounded under long-term churn too.
		for _, addr := range dropped {
			p.store.RecordBaseline(string(addr), replication.Baseline{})
		}
	}
}

// SyncReplica reconciles the peer's partition content with one replica via
// the digest/delta protocol and returns what happened.
func (p *Peer) SyncReplica(ctx context.Context, replica network.Addr) (SyncReport, error) {
	path := p.Path()
	st := p.syncStateOf(replica)
	myClock := p.store.Clock()
	rootHash, rootCount := p.store.Digest(keyspace.Path(path))

	req := DigestRequest{
		From:     p.Addr(),
		Path:     path,
		Root:     true,
		Clock:    myClock,
		Since:    st.theirs,
		Buckets:  []replication.BucketDigest{{Prefix: keyspace.Path(path), Hash: rootHash, Count: rootCount}},
		Replicas: p.Replicas(),
	}
	raw, err := p.transport.Call(ctx, replica, req)
	if err != nil {
		return SyncReport{}, err
	}
	resp, ok := raw.(DigestResponse)
	if !ok {
		return SyncReport{}, errors.New("overlay: unexpected digest response type")
	}
	if !resp.Path.SamePartition(path) {
		// The "replica" moved to a different partition (stale entry from
		// before a split): drop it so the set stays meaningful.
		p.removeReplica(replica)
		return SyncReport{}, nil
	}
	p.absorbReplicas(resp.Replicas)

	switch {
	case resp.InSync:
		p.noteSync(replica, syncState{mine: myClock, theirs: resp.Clock})
		p.counters[SyncsInSync].Add(1)
		return SyncReport{Kind: SyncInSync}, nil

	case st.mine > 0 && p.store.GCFloor() > st.mine:
		// The replica's recorded baseline provably predates a tombstone
		// prune: it may hold stale live copies a delta merge would spread.
		// Replace its partition content wholesale. Without a baseline
		// (first contact) no staleness is proven and the digest walk merges
		// instead — wholesale-replacing an unknown peer could destroy
		// quorum-acked writes it never had a chance to sync out.
		return p.rebuildPush(ctx, replica, path, st, myClock)

	case resp.Incomparable:
		// The replica pruned tombstones this peer never pulled: rebuild the
		// local partition content from the replica.
		return p.rebuildPull(ctx, replica, path)

	case resp.DeltaOK:
		return p.deltaExchange(ctx, replica, path, st, myClock)

	default:
		return p.digestWalk(ctx, replica, path, st, myClock, resp.Mismatch, rootCount)
	}
}

// rebuildPush replaces the replica's partition content with this peer's.
func (p *Peer) rebuildPush(ctx context.Context, replica network.Addr, path keyspace.Path, st syncState, myClock uint64) (SyncReport, error) {
	// Pull the replica's still-comparable delta before replacing it:
	// everything it changed after the last completed sync is legitimate new
	// state — a stale live copy of a pair whose tombstone this peer pruned
	// necessarily predates the baseline and cannot appear in that delta —
	// so merging it first preserves fresh quorum-acked writes only that
	// replica holds. Only this peer's side is incomparable (its prunes
	// cannot be expressed as a delta), hence the asymmetric full replace.
	received := 0
	if st.theirs > 0 {
		pull := DeltaRequest{
			From: p.Addr(), Path: path, Clock: myClock, Since: st.theirs,
			Replicas: p.Replicas(),
		}
		if resp, err := p.callDelta(ctx, replica, pull); err == nil && !resp.Incomparable {
			received = p.applyContent(resp.Items, resp.Tombstones)
		}
	}
	items, tombs := p.store.ContentWithin([]keyspace.Path{path})
	req := DeltaRequest{
		From: p.Addr(), Path: path, Clock: p.store.Clock(),
		Full: true, Rebuild: true,
		Items: items, Tombstones: tombs,
		Replicas: p.Replicas(),
	}
	resp, err := p.callDelta(ctx, replica, req)
	if err != nil {
		return SyncReport{}, err
	}
	p.noteSync(replica, syncState{mine: myClock, theirs: resp.Clock})
	p.counters[SyncsFull].Add(1)
	return SyncReport{Kind: SyncRebuildPush, Received: received, Sent: len(items) + len(tombs)}, nil
}

// rebuildPull replaces this peer's partition content with the replica's.
func (p *Peer) rebuildPull(ctx context.Context, replica network.Addr, path keyspace.Path) (SyncReport, error) {
	req := DeltaRequest{
		From: p.Addr(), Path: path, Clock: p.store.Clock(),
		Full: true, Pull: true,
		Replicas: p.Replicas(),
	}
	resp, err := p.callDelta(ctx, replica, req)
	if err != nil {
		return SyncReport{}, err
	}
	// The baseline uses the clock taken atomically with the replacement: a
	// local write racing in right after it has a higher version and stays
	// delta-visible for the next push.
	clock := p.store.ReplaceWithin(path, resp.Items, resp.Tombstones)
	p.noteSync(replica, syncState{mine: clock, theirs: resp.Clock})
	p.counters[SyncsFull].Add(1)
	return SyncReport{Kind: SyncRebuildPull, Received: len(resp.Items) + len(resp.Tombstones)}, nil
}

// deltaExchange pushes everything changed locally since the last sync and
// pulls everything the replica changed since then.
func (p *Peer) deltaExchange(ctx context.Context, replica network.Addr, path keyspace.Path, st syncState, myClock uint64) (SyncReport, error) {
	items, tombs, ok := p.store.DeltaSinceWithPrefix(path, st.mine)
	if !ok {
		// A local GC raced past the baseline between ticks; the next tick
		// takes the rebuild-push path.
		return SyncReport{}, errSyncAborted
	}
	req := DeltaRequest{
		From: p.Addr(), Path: path, Clock: myClock, Since: st.theirs,
		Items: items, Tombstones: tombs,
		Replicas: p.Replicas(),
	}
	resp, err := p.callDelta(ctx, replica, req)
	if err != nil {
		return SyncReport{}, err
	}
	if resp.Incomparable {
		return SyncReport{}, errSyncAborted
	}
	received := p.applyContent(resp.Items, resp.Tombstones)
	p.noteSync(replica, syncState{mine: myClock, theirs: resp.Clock})
	p.counters[SyncsDelta].Add(1)
	return SyncReport{Kind: SyncDelta, Received: received, Sent: len(items) + len(tombs)}, nil
}

// digestWalk recurses through mismatched bucket digests and exchanges the
// content of the differing leaf buckets. The recursion is bounded: every
// round descends digestWalkWidth bits and stops at replication.DigestDepth,
// so a walk takes at most maxWalkRounds digest round trips regardless of
// how much the replicas diverge.
func (p *Peer) digestWalk(ctx context.Context, replica network.Addr, path keyspace.Path, st syncState, myClock uint64, mismatch []keyspace.Path, rootCount int) (SyncReport, error) {
	maxWalkRounds := replication.DigestDepth/digestWalkWidth + 1
	frontier := mismatch
	// Bucket counts come from the round that generated each prefix (the
	// root count for the opening mismatch), so the walk never re-scans the
	// store just to decide whether a bucket is a leaf.
	counts := map[keyspace.Path]int{}
	for _, prefix := range frontier {
		counts[prefix] = rootCount
	}
	var leaves []keyspace.Path
	for round := 0; round < maxWalkRounds && len(frontier) > 0; round++ {
		var buckets []replication.BucketDigest
		for _, prefix := range frontier {
			n, known := counts[prefix]
			if !known {
				_, n = p.store.Digest(prefix)
			}
			if len(prefix) >= replication.DigestDepth || n <= digestLeafLimit {
				leaves = append(leaves, prefix)
				continue
			}
			width := digestWalkWidth
			if len(prefix)+width > replication.DigestDepth {
				width = replication.DigestDepth - len(prefix)
			}
			kids := p.store.DigestChildren(prefix, width)
			for _, k := range kids {
				counts[k.Prefix] = k.Count
			}
			buckets = append(buckets, kids...)
		}
		if len(buckets) == 0 {
			break
		}
		req := DigestRequest{From: p.Addr(), Path: path, Clock: myClock, Buckets: buckets}
		raw, err := p.transport.Call(ctx, replica, req)
		if err != nil {
			return SyncReport{}, err
		}
		resp, ok := raw.(DigestResponse)
		if !ok {
			return SyncReport{}, errors.New("overlay: unexpected digest response type")
		}
		frontier = resp.Mismatch
	}
	leaves = append(leaves, frontier...) // whatever is left mismatched at the bound
	if len(leaves) == 0 {
		return SyncReport{Kind: SyncWalk}, nil
	}
	items, tombs := p.store.ContentWithin(leaves)
	req := DeltaRequest{
		From: p.Addr(), Path: path, Clock: myClock, Since: st.theirs,
		Prefixes: leaves,
		Items:    items, Tombstones: tombs,
		Replicas: p.Replicas(),
	}
	resp, err := p.callDelta(ctx, replica, req)
	if err != nil {
		return SyncReport{}, err
	}
	if resp.Incomparable {
		return SyncReport{}, errSyncAborted
	}
	received := p.applyContent(resp.Items, resp.Tombstones)
	p.noteSync(replica, syncState{mine: myClock, theirs: resp.Clock})
	p.counters[SyncsDelta].Add(1)
	return SyncReport{Kind: SyncWalk, Received: received, Sent: len(items) + len(tombs)}, nil
}

// callDelta sends a DeltaRequest and checks the responder still shares the
// partition.
func (p *Peer) callDelta(ctx context.Context, replica network.Addr, req DeltaRequest) (DeltaResponse, error) {
	raw, err := p.transport.Call(ctx, replica, req)
	if err != nil {
		return DeltaResponse{}, err
	}
	resp, ok := raw.(DeltaResponse)
	if !ok {
		return DeltaResponse{}, errors.New("overlay: unexpected delta response type")
	}
	if !resp.Path.SamePartition(req.Path) {
		p.removeReplica(replica)
		return DeltaResponse{}, errSyncAborted
	}
	p.absorbReplicas(resp.Replicas)
	return resp, nil
}

// applyContent merges received tombstones before items, so a delete and its
// pair's stale live copy arriving together resolve to the delete.
func (p *Peer) applyContent(items, tombs []replication.Item) int {
	n := p.store.AddTombstones(tombs)
	n += p.store.AddAll(items)
	return n
}

// absorbReplicas merges gossiped replica addresses.
func (p *Peer) absorbReplicas(addrs []network.Addr) {
	if len(addrs) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, a := range addrs {
		p.addReplicaLocked(a)
	}
}

// handleAntiEntropy dispatches the digest/delta anti-entropy messages. It
// is kept out of Peer.handle so the hot query dispatch keeps a small stack
// frame (see the comment at the call site).
func (p *Peer) handleAntiEntropy(req any) (any, error) {
	switch m := req.(type) {
	case DigestRequest:
		return p.handleDigest(m), nil
	case DeltaRequest:
		return p.handleDelta(m), nil
	default:
		return nil, errors.New("overlay: unexpected anti-entropy request type")
	}
}

// handleDigest serves the responder side of a digest round.
func (p *Peer) handleDigest(req DigestRequest) DigestResponse {
	path := p.Path()
	resp := DigestResponse{Path: path, Clock: p.store.Clock()}
	if !req.Path.SamePartition(path) {
		return resp
	}
	p.mu.Lock()
	if req.From != "" {
		p.addReplicaLocked(req.From)
	}
	for _, a := range req.Replicas {
		p.addReplicaLocked(a)
	}
	resp.Replicas = p.snapshotReplicasLocked()
	p.mu.Unlock()

	if req.Root {
		if len(req.Buckets) != 1 {
			return resp
		}
		h, _ := p.store.Digest(req.Buckets[0].Prefix)
		switch {
		case h == req.Buckets[0].Hash:
			resp.InSync = true
		case req.Since > 0 && req.Since < p.store.GCFloor():
			// The initiator's baseline provably predates a tombstone prune:
			// its pushes could resurrect deleted pairs, and a delta cannot
			// reproduce the prunes. It must rebuild. A first contact
			// (Since 0) proves nothing either way and walks instead.
			resp.Incomparable = true
		case req.Since > 0:
			resp.DeltaOK = true
		default:
			resp.Mismatch = []keyspace.Path{req.Buckets[0].Prefix}
		}
		return resp
	}
	for _, b := range req.Buckets {
		h, _ := p.store.Digest(b.Prefix)
		if h != b.Hash {
			resp.Mismatch = append(resp.Mismatch, b.Prefix)
		}
	}
	return resp
}

// handleDelta serves the responder side of the content exchange.
func (p *Peer) handleDelta(req DeltaRequest) DeltaResponse {
	path := p.Path()
	// The clock is captured BEFORE the content snapshot and before any
	// merge: the initiator records it as its pull baseline, and a value
	// read later could cover a concurrent local write the snapshot missed —
	// permanently excluding it from every future delta. A conservative
	// (older) clock merely re-sends a few already-seen pairs next round,
	// which the merge ignores.
	resp := DeltaResponse{Path: path, Clock: p.store.Clock()}
	if !req.Path.SamePartition(path) {
		return resp
	}
	p.mu.Lock()
	if req.From != "" {
		p.addReplicaLocked(req.From)
	}
	for _, a := range req.Replicas {
		p.addReplicaLocked(a)
	}
	resp.Replicas = p.snapshotReplicasLocked()
	p.mu.Unlock()

	switch {
	case req.Rebuild:
		// The initiator is authoritative: this peer missed its GC window
		// and gets its partition content replaced. The post-replacement
		// clock is safe to report — the initiator has seen exactly the
		// installed content.
		resp.Clock = p.store.ReplaceWithin(req.Path, req.Items, req.Tombstones)
		resp.Applied = len(req.Items) + len(req.Tombstones)

	case req.Pull:
		resp.Items, resp.Tombstones = p.store.ContentWithin([]keyspace.Path{req.Path})

	case req.Since > 0 && req.Since < p.store.GCFloor():
		// GC ran after the digest round, or the initiator pushed while
		// stale: refuse the merge so nothing pruned can be resurrected.
		resp.Incomparable = true

	case req.Since > 0 && len(req.Prefixes) == 0 && !req.Full:
		items, tombs, ok := p.store.DeltaSinceWithPrefix(req.Path, req.Since)
		if !ok {
			resp.Incomparable = true
			break
		}
		resp.Applied = p.applyContent(req.Items, req.Tombstones)
		resp.Items, resp.Tombstones = items, tombs

	case len(req.Prefixes) > 0:
		resp.Applied = p.applyContent(req.Items, req.Tombstones)
		resp.Items, resp.Tombstones = p.store.ContentWithin(req.Prefixes)

	default:
		resp.Applied = p.applyContent(req.Items, req.Tombstones)
		resp.Items, resp.Tombstones = p.store.ContentWithin([]keyspace.Path{req.Path})
	}
	return resp
}

// notifyTombstonePrune pushes the batch of pairs a GC compaction just
// pruned to every known replica, so they drop the same tombstones in this
// round instead of re-learning the prune through later digest syncs.
func (p *Peer) notifyTombstonePrune(ctx context.Context, pruned []replication.Item) {
	replicas := p.Replicas()
	if len(replicas) == 0 {
		return
	}
	req := TombstonePruneRequest{From: p.Addr(), Path: p.Path(), Pairs: pruned}
	forEachBounded(p.cfg.Fanout, replicas, func(a network.Addr) {
		_, _ = p.transport.Call(ctx, a, req)
	})
}

// handleTombstonePrune applies a cooperative prune batch from a replica.
func (p *Peer) handleTombstonePrune(req TombstonePruneRequest) TombstonePruneResponse {
	if !req.Path.SamePartition(p.Path()) {
		return TombstonePruneResponse{}
	}
	n := p.store.DropTombstones(req.Pairs)
	if n > 0 {
		p.counters[TombstonesPruned].Add(uint64(n))
	}
	return TombstonePruneResponse{Dropped: n}
}
