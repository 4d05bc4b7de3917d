package overlay

import (
	"context"
	"errors"
	"sync"

	"pgrid/internal/keyspace"
	"pgrid/internal/network"
	"pgrid/internal/replication"
)

// This file implements the live mutation subsystem: routed Insert and Delete
// operations on the constructed overlay. A mutation travels the overlay like
// an exact-match query — raced over up to Alpha references per hop — until it
// reaches a peer responsible for the key. That peer applies the write
// locally, fans it out to its whole replica set concurrently (bounded by
// Fanout), and acknowledges with the number of replicas that applied it. The
// originator compares that count against the configured WriteQuorum.
//
// Deletes are tombstoned at every replica that applies them (see
// replication.Store), so the anti-entropy maintenance loop spreads deletes
// exactly like inserts instead of resurrecting removed items.

// ErrNoQuorum is returned by Insert and Delete when the responsible peer was
// reached but fewer replicas than the configured WriteQuorum acknowledged the
// mutation. The mutation is still applied at the replicas that did
// acknowledge, and anti-entropy will spread it further; the error tells the
// caller the durability target was missed.
var ErrNoQuorum = errors.New("overlay: write quorum not reached")

// MutateResult is the outcome of a routed Insert or Delete.
type MutateResult struct {
	// Acks is the number of replicas (including the responsible peer) that
	// applied the mutation.
	Acks int
	// Replicas is the size of the replica set the responsible peer wrote to,
	// including itself.
	Replicas int
	// Hops is the number of routing hops used to reach the responsible
	// partition (0 if the originating peer was responsible).
	Hops int
	// Responsible is the peer that coordinated the write.
	Responsible network.Addr
}

// SetWriteQuorum adjusts the write quorum at run time. Non-positive values
// keep the current one.
func (p *Peer) SetWriteQuorum(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n > 0 {
		p.cfg.WriteQuorum = n
	}
}

// writeQuorum returns the current write quorum.
func (p *Peer) writeQuorum() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cfg.WriteQuorum
}

// Insert routes a live write for the item to the responsible partition and
// waits for the replica fan-out's quorum-ack. It returns ErrNoQuorum when the
// write reached the responsible peer but fewer than WriteQuorum replicas
// acknowledged it, and errNotResponsible-wrapped failure when no route
// exists.
func (p *Peer) Insert(ctx context.Context, it replication.Item) (MutateResult, error) {
	resp, err := p.resolveInsert(ctx, InsertRequest{Item: it, ID: p.mutationID(), TTL: queryTTL})
	if err != nil {
		return MutateResult{}, err
	}
	return p.finishMutation(resp)
}

// Delete routes a live delete of the (key, value) pair to the responsible
// partition, tombstoning it at every replica that acknowledges. Quorum
// semantics match Insert.
func (p *Peer) Delete(ctx context.Context, key keyspace.Key, value string) (MutateResult, error) {
	resp, err := p.resolveDelete(ctx, DeleteRequest{Key: key, Value: value, ID: p.mutationID(), TTL: queryTTL})
	if err != nil {
		return MutateResult{}, err
	}
	return p.finishMutation(resp)
}

// mutationID draws a non-zero random operation identity.
func (p *Peer) mutationID() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if id := p.rng.Uint64(); id != 0 {
			return id
		}
	}
}

// markMutation records a mutation ID and reports whether it was new. The
// α-raced routing can deliver duplicates of one mutation to several
// responsible peers; IDs spread with the Direct fan-out, so a late duplicate
// reaching another replica of the partition is recognised instead of being
// re-coordinated (which could re-stamp a delete above a newer acknowledged
// re-insert). The ring lives in the store — WAL-logged and snapshotted with
// the rest of the replica state — so a restarted replica still recognises
// duplicates of mutations it coordinated before the crash. A zero ID is
// never deduplicated.
func (p *Peer) markMutation(id uint64) bool {
	return p.store.MarkMutation(id)
}

// finishMutation converts the wire response into a MutateResult and applies
// the originator's quorum check.
func (p *Peer) finishMutation(resp MutateResponse) (MutateResult, error) {
	if !resp.Found {
		return MutateResult{}, errNotResponsible
	}
	p.counters[Mutations].Add(1)
	p.counters[MutationHops].Add(uint64(resp.Hops))
	res := MutateResult{
		Acks:        resp.Acks,
		Replicas:    resp.Replicas,
		Hops:        resp.Hops,
		Responsible: resp.Responsible,
	}
	if res.Acks < p.writeQuorum() {
		return res, ErrNoQuorum
	}
	return res, nil
}

// handleInsert serves an insert received from another peer.
func (p *Peer) handleInsert(ctx context.Context, req InsertRequest) MutateResponse {
	if req.Direct {
		// Replica fan-out leg: apply the coordinator's generation-stamped
		// copy locally, never route further (the coordinator already owns
		// the routing decision). The ack reflects the pair's actual state: a
		// replica that refused the copy because it holds a newer tombstone
		// must not count towards the write quorum — it reports its
		// generation instead so the coordinator can re-stamp.
		p.markMutation(req.ID)
		p.store.Add(req.Item)
		acks := 0
		if p.store.Live(req.Item.Key, req.Item.Value) {
			acks = 1
		}
		return MutateResponse{
			Found:           true,
			Acks:            acks,
			Replicas:        1,
			Gen:             p.store.PairGen(req.Item.Key, req.Item.Value),
			Hops:            req.Hops,
			Responsible:     p.Addr(),
			ResponsiblePath: p.Path(),
		}
	}
	resp, err := p.resolveInsert(ctx, req)
	if err != nil {
		return MutateResponse{Found: false, Hops: req.Hops}
	}
	return resp
}

// handleDelete serves a delete received from another peer.
func (p *Peer) handleDelete(ctx context.Context, req DeleteRequest) MutateResponse {
	if req.Direct {
		// Apply the coordinator's stamped tombstone so the delete carries
		// the same generation everywhere; a replica holding an even newer
		// live re-insert keeps it, does not ack, and reports its generation
		// so the coordinator can re-stamp.
		p.markMutation(req.ID)
		p.store.AddTombstones([]replication.Item{{Key: req.Key, Value: req.Value, Gen: req.Gen}})
		acks := 0
		if !p.store.Live(req.Key, req.Value) {
			acks = 1
		}
		return MutateResponse{
			Found:           true,
			Acks:            acks,
			Replicas:        1,
			Gen:             p.store.PairGen(req.Key, req.Value),
			Hops:            req.Hops,
			Responsible:     p.Addr(),
			ResponsiblePath: p.Path(),
		}
	}
	resp, err := p.resolveDelete(ctx, req)
	if err != nil {
		return MutateResponse{Found: false, Hops: req.Hops}
	}
	return resp
}

// resolveInsert applies the insert locally when this peer is responsible for
// the key (coordinating the replica fan-out), and otherwise forwards it along
// the same α-raced routing path an exact-match query takes.
func (p *Peer) resolveInsert(ctx context.Context, req InsertRequest) (MutateResponse, error) {
	if p.table.Responsible(req.Item.Key) {
		if !p.markMutation(req.ID) {
			// A duplicate of an already-coordinated mutation (delivered by
			// the α-race): suppress it entirely. Answering Found here could
			// outrace the original coordination's response with an
			// underreported ack count; the race's real answer is
			// authoritative.
			return MutateResponse{}, errNotResponsible
		}
		// The coordinator stamps the write's generation (above any local
		// tombstone) and fans the stamped copy out, so every replica orders
		// it consistently against earlier deletes of the same pair. A
		// replica whose history is ahead (a tombstone this coordinator never
		// saw) refuses and reports its generation; one re-stamped retry
		// lifts the write above it.
		stamped := p.store.Insert(req.Item)
		resp := p.fanOutMutation(ctx, req.Hops, InsertRequest{Item: stamped, ID: req.ID, Direct: true})
		if resp.Acks < resp.Replicas && resp.Gen >= stamped.Gen {
			stamped = p.store.Insert(replication.Item{Key: req.Item.Key, Value: req.Item.Value, Gen: resp.Gen + 1})
			resp = p.fanOutMutation(ctx, req.Hops, InsertRequest{Item: stamped, ID: req.ID, Direct: true})
		}
		return resp, nil
	}
	if req.TTL <= 0 {
		return MutateResponse{}, errNotResponsible
	}
	forward := req
	forward.Hops++
	forward.TTL--
	return p.forwardMutation(ctx, req.Item.Key, forward)
}

// resolveDelete is the delete counterpart of resolveInsert.
func (p *Peer) resolveDelete(ctx context.Context, req DeleteRequest) (MutateResponse, error) {
	if p.table.Responsible(req.Key) {
		if !p.markMutation(req.ID) {
			// Duplicate delivery; see resolveInsert.
			return MutateResponse{}, errNotResponsible
		}
		// The coordinator stamps the tombstone's generation above its local
		// state and fans that exact stamp out, mirroring resolveInsert —
		// including the re-stamp retry when a replica holds a newer live
		// copy this coordinator never saw.
		stamped := p.store.DeleteStamped(req.Key, req.Value, 0)
		resp := p.fanOutMutation(ctx, req.Hops, DeleteRequest{Key: req.Key, Value: req.Value, Gen: stamped.Gen, ID: req.ID, Direct: true})
		if resp.Acks < resp.Replicas && resp.Gen >= stamped.Gen {
			stamped = p.store.DeleteStamped(req.Key, req.Value, resp.Gen)
			resp = p.fanOutMutation(ctx, req.Hops, DeleteRequest{Key: req.Key, Value: req.Value, Gen: stamped.Gen, ID: req.ID, Direct: true})
		}
		return resp, nil
	}
	if req.TTL <= 0 {
		return MutateResponse{}, errNotResponsible
	}
	forward := req
	forward.Hops++
	forward.TTL--
	return p.forwardMutation(ctx, req.Key, forward)
}

// forwardMutation routes a mutation request one hop closer to the
// responsible partition, racing up to Alpha references at the divergence
// level exactly like resolveQuery does for reads (stale references are
// pruned by the race).
func (p *Peer) forwardMutation(ctx context.Context, key keyspace.Key, forward any) (MutateResponse, error) {
	_, level, _ := p.table.NextHop(key)
	refs := p.shuffledRefs(level)
	raw, ok := p.raceCall(ctx, refs, forward, func(raw any) bool {
		resp, ok := raw.(MutateResponse)
		return ok && resp.Found
	})
	if !ok {
		return MutateResponse{}, errNotResponsible
	}
	return raw.(MutateResponse), nil
}

// fanOutMutation writes the Direct mutation request to every known replica
// of this peer's partition concurrently (bounded by Fanout) and counts the
// acknowledgements. Replicas that turn out to be unreachable are dropped from
// the replica set; the maintenance loop re-discovers live ones. The local
// apply counts as the first ack.
func (p *Peer) fanOutMutation(ctx context.Context, hops int, req any) MutateResponse {
	replicas := p.Replicas()
	acks := 1
	maxGen := uint64(0)
	var mu sync.Mutex
	forEachBounded(p.queryFanout(), replicas, func(addr network.Addr) {
		raw, err := p.transport.Call(ctx, addr, req)
		if err != nil {
			if ctx.Err() == nil && !errors.Is(err, context.Canceled) {
				p.removeReplica(addr)
			}
			return
		}
		if resp, ok := raw.(MutateResponse); ok {
			mu.Lock()
			if resp.Acks > 0 {
				acks++
			} else if resp.Gen > maxGen {
				// Only refusals feed the re-stamp signal: an acking replica
				// reports the stamp it just applied, which must not trigger
				// a pointless retry when some other replica was merely
				// unreachable.
				maxGen = resp.Gen
			}
			mu.Unlock()
		}
	})
	// Gen reports the highest generation a *refusing* replica holds (0 when
	// none refused), so the caller can tell when a replica is ahead.
	return MutateResponse{
		Found:           true,
		Acks:            acks,
		Replicas:        len(replicas) + 1,
		Gen:             maxGen,
		Hops:            hops,
		Responsible:     p.Addr(),
		ResponsiblePath: p.Path(),
	}
}
