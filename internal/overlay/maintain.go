package overlay

import (
	"context"
	"errors"
	"sync"
	"time"

	"pgrid/internal/keyspace"
	"pgrid/internal/network"
	"pgrid/internal/routing"
)

// This file implements the background maintenance loop that keeps a
// constructed overlay healthy while it absorbs live writes and churn:
//
//   - anti-entropy with one randomly chosen replica per tick, spreading both
//     items and delete tombstones, so quorum-missed writes converge and
//     peers that were offline catch up without a manual re-Build;
//   - probing of randomly chosen routing references, pruning entries that
//     are unreachable or whose peer moved to a non-complementary partition;
//   - replica re-discovery by a self-lookup when the replica set ran dry
//     (e.g. after a split or after all known replicas churned out).
//
// Every step is also exposed as MaintainTick so simulations with a virtual
// clock (internal/sim) and tests can drive maintenance deterministically.

// MaintenanceOptions parameterises the maintenance loop.
type MaintenanceOptions struct {
	// Interval is the mean pause between two maintenance ticks; each pause
	// is jittered by ±50% so the ticks of many peers desynchronise. Zero
	// means DefaultMaintenanceInterval.
	Interval time.Duration
	// Probes is the number of routing references pinged per tick (0 = 1).
	Probes int
}

// DefaultMaintenanceInterval is the default mean pause between maintenance
// ticks.
const DefaultMaintenanceInterval = time.Second

// normalize fills in defaults.
func (o MaintenanceOptions) normalize() MaintenanceOptions {
	if o.Interval <= 0 {
		o.Interval = DefaultMaintenanceInterval
	}
	if o.Probes <= 0 {
		o.Probes = 1
	}
	return o
}

// TickReport summarises one maintenance tick.
type TickReport struct {
	// Replica is the replica anti-entropy ran with ("" when none is known).
	Replica network.Addr
	// ItemsReceived is the number of items anti-entropy brought in.
	ItemsReceived int
	// Sync is the protocol path the tick's anti-entropy took (SyncNone when
	// no replica was contacted or the round failed).
	Sync SyncKind
	// TombstonesPruned is the number of tombstones the tick's GC compaction
	// removed.
	TombstonesPruned int
	// RefsProbed and RefsPruned count the routing references pinged and the
	// ones dropped as stale.
	RefsProbed, RefsPruned int
	// ReplicaDiscovered reports that the tick re-discovered a replica by
	// self-lookup after the replica set had run dry.
	ReplicaDiscovered bool
	// PersistenceErr is the store's sticky persistence failure, if any:
	// mutations applied after it are not durable and the peer should be
	// failed over (see replication.Store.PersistenceErr).
	PersistenceErr error
}

// MaintainTick runs one maintenance step: one round of anti-entropy with a
// random replica (re-discovering a replica first when none is known) and a
// liveness probe of Probes random routing references.
func (p *Peer) MaintainTick(ctx context.Context, opts MaintenanceOptions) TickReport {
	opts = opts.normalize()
	var rep TickReport

	// A peer that is itself offline (simulated churn) sees every outgoing
	// call fail; running the tick anyway would misattribute its own state
	// to the remote side and strip its own replica set and routing table.
	// Skip until the peer is back.
	if off, ok := p.transport.(interface{ Online() bool }); ok && !off.Online() {
		return rep
	}

	// Tombstone GC: prune tombstones past the configured horizon and drop
	// anti-entropy baselines of peers that left the replica set, so
	// maintenance metadata stays proportional to the live working set
	// instead of growing with lifetime deletes and churn. The pruned batch
	// is pushed to the replicas so they drop the same tombstones now,
	// cooperatively, instead of each re-learning the prune on its own next
	// sync round.
	if pruned := p.store.CompactTombstonesCollect(); len(pruned) > 0 {
		rep.TombstonesPruned = len(pruned)
		p.counters[TombstonesPruned].Add(uint64(len(pruned)))
		p.notifyTombstonePrune(ctx, pruned)
	}
	p.compactSyncStates()

	// Durable overlay state: re-record the partition path (no-op when
	// unchanged) and compact the WAL into a snapshot once it outgrew the
	// threshold. Persistence failures do not abort the tick — the peer
	// keeps serving from memory — but they are surfaced on the report and
	// counted, because once the WAL is broken every later mutation is
	// silently non-durable and the operator must fail the peer over.
	if p.store.Persistent() {
		p.persistOverlayState()
		if _, err := p.store.CheckpointIfNeeded(); err != nil {
			rep.PersistenceErr = err
		} else if err := p.store.PersistenceErr(); err != nil {
			rep.PersistenceErr = err
		}
		if rep.PersistenceErr != nil {
			p.counters[PersistenceErrors].Add(1)
		}
	}

	// Re-discover replicas whenever the set ran dry, and occasionally even
	// when it did not: after churn a group of returning peers can hold only
	// references to each other, and without an outside lookup that clique
	// would never reconnect to the replicas holding the writes it missed.
	if len(p.Replicas()) == 0 || p.randFloat() < 0.2 {
		rep.ReplicaDiscovered = p.discoverReplica(ctx)
	}
	if replica, ok := p.randomReplica(); ok {
		rep.Replica = replica
		sres, err := p.SyncReplica(ctx, replica)
		if err != nil {
			if ctx.Err() == nil && !errors.Is(err, context.Canceled) && !errors.Is(err, errSyncAborted) {
				p.removeReplica(replica)
			}
		} else {
			rep.ItemsReceived = sres.Received
			rep.Sync = sres.Kind
		}
	}
	for i := 0; i < opts.Probes; i++ {
		probed, pruned := p.probeRef(ctx)
		if probed {
			rep.RefsProbed++
		}
		if pruned {
			rep.RefsPruned++
		}
	}
	return rep
}

// RunMaintenance runs maintenance ticks until the context is cancelled. It
// always returns the context's error.
func (p *Peer) RunMaintenance(ctx context.Context, opts MaintenanceOptions) error {
	opts = opts.normalize()
	for {
		// Jitter the pause by ±50% so peers desynchronise.
		d := time.Duration((0.5 + p.randFloat()) * float64(opts.Interval))
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
		p.MaintainTick(ctx, opts)
	}
}

// StartMaintenance launches the maintenance loop in a goroutine and returns
// a function that stops it and waits for it to exit.
func (p *Peer) StartMaintenance(opts MaintenanceOptions) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = p.RunMaintenance(ctx, opts)
	}()
	return func() {
		cancel()
		wg.Wait()
	}
}

// randFloat draws a uniform float from the peer's RNG.
func (p *Peer) randFloat() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rng.Float64()
}

// randIntn draws a uniform int from [0, n) from the peer's RNG.
func (p *Peer) randIntn(n int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rng.Intn(n)
}

// randomReplica picks a uniformly random known replica.
func (p *Peer) randomReplica() (network.Addr, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.replicas) == 0 {
		return "", false
	}
	i := p.rng.Intn(len(p.replicas))
	for a := range p.replicas {
		if i == 0 {
			return a, true
		}
		i--
	}
	return "", false
}

// discoverReplica re-discovers a replica by handing an exact-match query for
// one of the peer's own keys to a routing reference — a peer outside the
// partition — and letting the overlay route it back in: whoever answers is
// responsible for the same partition, i.e. a replica. (Resolving the query
// locally would short-circuit at this peer itself.) Returns whether a
// replica was added; a miss is fine, the next tick tries again.
func (p *Peer) discoverReplica(ctx context.Context) bool {
	keys := p.store.KeysWithPrefix(p.Path())
	if len(keys) == 0 {
		return false
	}
	key := keys[p.randIntn(len(keys))]
	levels := p.table.Levels()
	if levels == 0 {
		return false
	}
	ref, ok := p.table.Random(p.randIntn(levels))
	if !ok {
		return false
	}
	req := QueryRequest{Key: key, TTL: queryTTL}
	raw, err := p.transport.Call(ctx, ref.Addr, req)
	if err != nil {
		return false
	}
	resp, ok := raw.(QueryResponse)
	if !ok || !resp.Found || resp.Responsible == p.Addr() {
		return false
	}
	if !resp.ResponsiblePath.SamePartition(p.Path()) {
		return false
	}
	p.AddReplica(resp.Responsible)
	return true
}

// probeRef pings one random routing reference and prunes it when it is
// unreachable or its peer's path no longer points into the complementary
// sub-tree of the reference's level. Live references get their stored path
// refreshed. Returns whether a reference was probed and whether it was
// pruned.
func (p *Peer) probeRef(ctx context.Context) (probed, pruned bool) {
	levels := p.table.Levels()
	if levels == 0 {
		return false, false
	}
	level := p.randIntn(levels)
	ref, ok := p.table.Random(level)
	if !ok {
		return false, false
	}
	req := PingRequest{From: p.Addr()}
	raw, err := p.transport.Call(ctx, ref.Addr, req)
	if err != nil {
		if ctx.Err() == nil && !errors.Is(err, context.Canceled) {
			p.table.Remove(ref.Addr)
			return true, true
		}
		return false, false
	}
	pong, ok := raw.(PingResponse)
	if !ok {
		return true, false
	}
	if !refComplementary(p.Path(), level, pong.Path) {
		p.table.Remove(ref.Addr)
		return true, true
	}
	p.table.Add(level, routing.Ref{Addr: ref.Addr, Path: pong.Path})
	return true, false
}

// refComplementary reports whether a peer at theirPath is a valid routing
// reference at the given level of myPath: the paths must agree on the first
// level bits and differ at the level itself.
func refComplementary(myPath keyspace.Path, level int, theirPath keyspace.Path) bool {
	if level >= myPath.Depth() || level >= theirPath.Depth() {
		return false
	}
	return myPath.CommonPrefixLen(theirPath) == level
}
