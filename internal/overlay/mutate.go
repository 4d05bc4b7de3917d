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
// operations on the constructed overlay. A mutation follows an exact-match
// query's route as one copy, one reference at a time at every peer, until it
// reaches a peer responsible for the key. That peer applies the write
// locally, fans it out to its whole replica set concurrently (bounded by
// Fanout), and acknowledges with the number of replicas that applied it. The
// originator compares that count against the configured WriteQuorum.
//
// An insert and a delete differ only in the state they give the pair (live
// or tombstoned), so both run through one coordinator and one Direct
// applier. Which state wins at each replica, what the coordinator stamps,
// and when it retries are decided by replication.Merge and
// replication.Restamp (internal/replication/pair.go); deletes are
// tombstones, so anti-entropy spreads them like inserts.

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

// Insert routes a live write for the item to the responsible partition and
// waits for the replica fan-out's quorum-ack. It returns ErrNoQuorum when the
// write reached the responsible peer but fewer than WriteQuorum replicas
// acknowledged it, and errNotResponsible-wrapped failure when no route
// exists.
func (p *Peer) Insert(ctx context.Context, it replication.Item) (MutateResult, error) {
	resp, err := p.resolveMutation(ctx, insertMutation(InsertRequest{Item: it, ID: p.mutationID(), TTL: queryTTL}))
	if err != nil {
		return MutateResult{}, err
	}
	return p.finishMutation(resp)
}

// Delete routes a live delete of the (key, value) pair to the responsible
// partition, tombstoning it at every replica that acknowledges. Quorum
// semantics match Insert.
func (p *Peer) Delete(ctx context.Context, key keyspace.Key, value string) (MutateResult, error) {
	resp, err := p.resolveMutation(ctx, deleteMutation(DeleteRequest{Key: key, Value: value, ID: p.mutationID(), TTL: queryTTL}))
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
	if res.Acks < p.cfg.WriteQuorum {
		return res, ErrNoQuorum
	}
	return res, nil
}

// mutation is what InsertRequest and DeleteRequest share: the pair, the
// state the write gives it, and its routing envelope. Every mutation runs
// through one coordinator (coordinate) and one Direct applier (applyDirect),
// whatever its kind.
type mutation struct {
	key   keyspace.Key
	value string
	// kind is replication.Live for an insert, Tombstoned for a delete.
	kind replication.PairKind
	// gen is the coordinator's stamp on a Direct leg; on a routed request it
	// is the lowest stamp the client accepts (0 for any).
	gen uint64
	// id is marked in the store's dedup ring (Store.MarkAndApply) by the
	// coordinator and by every Direct leg: a duplicate that a fallback after
	// a lost answer delivers is suppressed instead of re-coordinated, also
	// after a restart (the ring is persisted).
	id        uint64
	hops, ttl int
	direct    bool
}

func insertMutation(req InsertRequest) mutation {
	return mutation{key: req.Item.Key, value: req.Item.Value, kind: replication.Live, gen: req.Item.Gen,
		id: req.ID, hops: req.Hops, ttl: req.TTL, direct: req.Direct}
}

func deleteMutation(req DeleteRequest) mutation {
	return mutation{key: req.Key, value: req.Value, kind: replication.Tombstoned, gen: req.Gen,
		id: req.ID, hops: req.Hops, ttl: req.TTL, direct: req.Direct}
}

// request encodes the mutation as its wire message.
func (m mutation) request() any {
	if m.kind == replication.Live {
		return InsertRequest{Item: replication.Item{Key: m.key, Value: m.value, Gen: m.gen},
			ID: m.id, Hops: m.hops, TTL: m.ttl, Direct: m.direct}
	}
	return DeleteRequest{Key: m.key, Value: m.value, Gen: m.gen, ID: m.id, Hops: m.hops, TTL: m.ttl, Direct: m.direct}
}

// handleInsert serves an insert received from another peer.
func (p *Peer) handleInsert(ctx context.Context, req InsertRequest) MutateResponse {
	return p.handleMutation(ctx, insertMutation(req))
}

// handleDelete serves a delete received from another peer.
func (p *Peer) handleDelete(ctx context.Context, req DeleteRequest) MutateResponse {
	return p.handleMutation(ctx, deleteMutation(req))
}

func (p *Peer) handleMutation(ctx context.Context, m mutation) MutateResponse {
	if m.direct {
		return p.applyDirect(m)
	}
	resp, err := p.resolveMutation(ctx, m)
	if err != nil {
		return MutateResponse{Found: false, Hops: m.hops}
	}
	return resp
}

// applyDirect serves the replica fan-out leg: it applies the coordinator's
// stamped state locally as a replicated copy and never routes further (the
// coordinator owns the routing decision). The ack and generation come from
// that one apply: a replica whose state is newer (replication.Merge) keeps
// it, does not count towards the write quorum, and reports its generation
// so the coordinator can re-stamp.
func (p *Peer) applyDirect(m mutation) MutateResponse {
	out, _ := p.store.MarkAndApply(m.id, m.key, m.value, replication.Event{Op: replication.Replicate, Kind: m.kind, Gen: m.gen}, false)
	acks := 0
	if out.Acked {
		acks = 1
	}
	return MutateResponse{
		Found:           true,
		Acks:            acks,
		Replicas:        1,
		Gen:             out.Gen,
		Hops:            m.hops,
		Responsible:     p.Addr(),
		ResponsiblePath: p.Path(),
	}
}

// resolveMutation coordinates the mutation when this peer is responsible for
// the key, and otherwise forwards it along the same routing path an
// exact-match query takes, one reference at a time.
func (p *Peer) resolveMutation(ctx context.Context, m mutation) (MutateResponse, error) {
	if p.table.Responsible(m.key) {
		return p.coordinate(ctx, m)
	}
	if m.ttl <= 0 {
		return MutateResponse{}, errNotResponsible
	}
	return p.forwardMutation(ctx, m)
}

// coordinate runs a mutation at a responsible peer: mark its ID and stamp
// the pair locally above every state this peer has seen (one store call,
// one WAL write), fan the stamped state out to the replica set, and retry
// once per replication.Restamp when a replica whose history is ahead (a
// state this peer never saw) refused.
func (p *Peer) coordinate(ctx context.Context, m mutation) (MutateResponse, error) {
	ev := replication.Event{Op: replication.Stamp, Kind: m.kind, Gen: m.gen}
	out, fresh := p.store.MarkAndApply(m.id, m.key, m.value, ev, true)
	if !fresh {
		// A duplicate of a coordinated mutation (a fallback after a lost
		// answer): its ack count is unknown, so refuse it, naming this
		// peer as Responsible to end the walk (forwardMutation).
		return MutateResponse{Hops: m.hops, Responsible: p.Addr()}, nil
	}
	leg := mutation{key: m.key, value: m.value, kind: m.kind, id: m.id, direct: true, gen: out.Gen}
	resp := p.fanOutMutation(ctx, m.hops, leg.request())
	if retry, ok := replication.Restamp(ev, leg.gen, resp.Gen, resp.Acks, resp.Replicas); ok {
		leg.gen = p.store.Apply(m.key, m.value, retry).Gen
		resp = p.fanOutMutation(ctx, m.hops, leg.request())
	}
	return resp, nil
}

// forwardMutation routes a mutation one hop closer to the responsible
// partition as one copy: it tries the references at the divergence level
// one at a time, moving on only after a transport error (which prunes the
// reference) or a not-found answer, as the paper's search does. A
// responsible peer's refusal of a duplicate (Found false, Responsible set)
// ends the walk: the write was already coordinated.
func (p *Peer) forwardMutation(ctx context.Context, m mutation) (MutateResponse, error) {
	_, level, _ := p.table.NextHop(m.key)
	refs := p.shuffledRefs(level)
	m.hops++
	m.ttl--
	raw, ok := p.raceCall(ctx, refs, m.request(), 1, func(raw any) bool {
		resp, ok := raw.(MutateResponse)
		return ok && (resp.Found || resp.Responsible != "")
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
	forEachBounded(p.cfg.Fanout, replicas, func(addr network.Addr) {
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
			} else {
				// Only refusals feed the re-stamp signal: an acking replica
				// reports the stamp it just applied, which must not trigger
				// a pointless retry when some other replica was merely
				// unreachable.
				maxGen = max(maxGen, resp.Gen)
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
