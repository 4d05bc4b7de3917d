package overlay

import (
	"context"
	"errors"
	"time"

	"pgrid/internal/network"
	"pgrid/internal/replication"
)

// This file implements the initiator side of the construction protocol: the
// pre-construction replication push, single construction interactions, and
// the construction loop a peer runs until it detects convergence.

// PartnerSelector supplies interaction partners, typically by a random walk
// on the pre-existing unstructured overlay. It returns an error when no
// partner is currently available.
type PartnerSelector func() (network.Addr, error)

// ErrNoPartner is returned by construction rounds when the selector cannot
// provide a partner.
var ErrNoPartner = errors.New("overlay: no interaction partner available")

// ReplicateItems pushes the given items (typically the peer's own original
// data, excluding copies received from others) to the target peers. This is
// the pre-construction replication phase of Section 4.2: before
// partitioning starts, every data key is replicated to MinReplicas randomly
// chosen peers so the replica-count estimation works and no key is lost
// during the shuffle.
func (p *Peer) ReplicateItems(ctx context.Context, items []replication.Item, targets []network.Addr) error {
	var firstErr error
	for _, t := range targets {
		if t == p.Addr() {
			continue
		}
		req := ReplicateRequest{From: p.Addr(), Path: p.Path(), Items: items, Replicas: p.Replicas()}
		p.counters[KeysMoved].Add(uint64(len(items)))
		if _, err := p.transport.Call(ctx, t, req); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Interact performs one construction interaction with the given partner and
// returns the action that resulted. Referrals are followed up to two hops,
// as in the paper's refer interaction.
func (p *Peer) Interact(ctx context.Context, partner network.Addr) (Action, error) {
	return p.interact(ctx, partner, 2)
}

func (p *Peer) interact(ctx context.Context, partner network.Addr, referralsLeft int) (Action, error) {
	if partner == "" || partner == p.Addr() {
		return ActionNone, ErrNoPartner
	}
	// Snapshot local state without holding the lock across the RPC.
	p.mu.Lock()
	path := p.table.Path()
	est := p.decider.EstimateP0(p.store.KeysWithPrefix(path), path, p.rng)
	routingPath, routingRefs := p.table.Snapshot()
	replicas := p.snapshotReplicasLocked()
	done := p.done
	p.mu.Unlock()

	// The items go only to a responder that shares the partition and asks
	// for them (ActionItems): a refer between foreign partitions moves no
	// data.
	req := ExchangeRequest{
		From:        p.Addr(),
		Path:        path,
		Estimate:    est,
		RoutingPath: routingPath,
		RoutingRefs: routingRefs,
		Replicas:    replicas,
		Done:        done,
		Withheld:    true,
	}
	p.counters[Interactions].Add(1)
	resp, err := p.callExchange(ctx, partner, req)
	if err == nil && resp.Action == ActionItems {
		req.Items, req.Withheld = p.store.ItemsWithPrefix(path), false
		resp, err = p.callExchange(ctx, partner, req)
	}
	if err != nil {
		return ActionNone, err
	}
	if resp.Action == ActionItems {
		// Asked again for items it already has: nothing to apply.
		resp.Action = ActionNone
	}
	action := p.applyExchange(req, resp)
	p.persistPathMeta() // the exchange may have moved the path

	// Follow a referral to a peer with a better path match, which is how
	// peers from foreign partitions route each other towards useful
	// interactions.
	if action == ActionRefer && resp.Referral != "" && resp.Referral != p.Addr() && referralsLeft > 0 {
		if a, err := p.interact(ctx, resp.Referral, referralsLeft-1); err == nil && a != ActionNone && a != ActionRefer {
			return a, nil
		}
	}
	return action, nil
}

// callExchange sends one exchange request to the partner.
func (p *Peer) callExchange(ctx context.Context, partner network.Addr, req ExchangeRequest) (ExchangeResponse, error) {
	raw, err := p.transport.Call(ctx, partner, req)
	if err != nil {
		return ExchangeResponse{}, err
	}
	resp, ok := raw.(ExchangeResponse)
	if !ok {
		return ExchangeResponse{}, errors.New("overlay: unexpected exchange response type")
	}
	return resp, nil
}

// applyExchange applies the responder's instructions to the initiator's
// state. The request carries the initiator's path at the time it was built;
// if the path has changed concurrently the path-changing part of the
// response is discarded (optimistic concurrency).
func (p *Peer) applyExchange(req ExchangeRequest, resp ExchangeResponse) Action {
	p.mu.Lock()
	defer p.mu.Unlock()

	current := p.table.Path()
	pathUnchanged := current == req.Path

	// Always merge the responder's routing snapshot and explicit refs that
	// fall within the current path.
	p.table.MergeFrom(resp.RoutingPath, resp.RoutingRefs)

	switch resp.Action {
	case ActionSplit, ActionExtend:
		if !pathUnchanged || !resp.NewPathSet {
			// Concurrent interaction already moved this peer on; keep the
			// data we received but do not change the path again.
			p.store.AddAll(resp.Items)
			p.counters[KeysMoved].Add(uint64(len(resp.Items)))
			return ActionNone
		}
		newPath := resp.NewPath
		bit := newPath.Bit(newPath.Depth() - 1)
		// Extend the path; the reference for the new level comes from
		// resp.Refs (there is always at least one for a split/extend with
		// referential integrity).
		p.table.SetPath(newPath)
		for _, lr := range resp.Refs {
			p.table.Add(lr.Level, lr.Ref)
		}
		p.store.AddAll(resp.Items)
		p.counters[KeysMoved].Add(uint64(len(resp.Items)))
		if resp.TakenOver {
			// The responder absorbed the items outside our new path, so we
			// can drop our copies.
			p.store.RemovePrefix(newPath.Parent().Child(1 - bit))
		}
		p.clearReplicasLocked()
		p.markProductiveLocked()
		return resp.Action

	case ActionReplicate:
		added := p.store.AddAll(resp.Items)
		p.counters[KeysMoved].Add(uint64(len(resp.Items)))
		if pathUnchanged {
			p.addReplicaLocked(resp.From)
			for _, r := range resp.Replicas {
				p.addReplicaLocked(r)
			}
		}
		// A replicate response means the responder judged the partition not
		// splittable right now; if it also taught us nothing new, this
		// interaction counts towards convergence.
		if added == 0 {
			p.markIdleLocked()
		} else {
			p.markProductiveLocked()
		}
		return ActionReplicate

	case ActionRefer:
		p.store.AddAll(resp.Items)
		p.counters[KeysMoved].Add(uint64(len(resp.Items)))
		for _, lr := range resp.Refs {
			p.table.Add(lr.Level, lr.Ref)
		}
		return ActionRefer

	default:
		// ActionNone: if we are not overloaded this still counts towards
		// convergence detection.
		if pathUnchanged && p.store.CountWithPrefix(current) <= p.cfg.MaxKeys {
			p.markIdleLocked()
		}
		return ActionNone
	}
}

// ConstructionOptions parameterise the construction loop.
type ConstructionOptions struct {
	// Select supplies interaction partners.
	Select PartnerSelector
	// MaxInteractions bounds the number of interactions (0 = unbounded).
	MaxInteractions int
	// IdlePause is how long the peer waits after an unproductive or failed
	// interaction before trying again (peers that are "ahead of the crowd"
	// back off and wait to be contacted).
	IdlePause time.Duration
}

// RunConstruction drives the peer's construction loop until the context is
// cancelled, the peer converges, or MaxInteractions is reached. It returns
// the number of interactions initiated.
func (p *Peer) RunConstruction(ctx context.Context, opts ConstructionOptions) (int, error) {
	if opts.Select == nil {
		return 0, errors.New("overlay: construction requires a partner selector")
	}
	interactions := 0
	consecutiveFailures := 0
	for {
		if ctx.Err() != nil {
			return interactions, ctx.Err()
		}
		if p.Done() {
			return interactions, nil
		}
		if opts.MaxInteractions > 0 && interactions >= opts.MaxInteractions {
			return interactions, nil
		}
		partner, err := opts.Select()
		if err != nil {
			if pauseErr := pause(ctx, opts.IdlePause); pauseErr != nil {
				return interactions, pauseErr
			}
			continue
		}
		interactions++
		action, err := p.Interact(ctx, partner)
		switch {
		case err != nil:
			consecutiveFailures++
			if consecutiveFailures >= 2 {
				// After repeated failures, back off and wait to be
				// contacted (Section 4.2).
				if pauseErr := pause(ctx, opts.IdlePause); pauseErr != nil {
					return interactions, pauseErr
				}
				consecutiveFailures = 0
			}
		case action == ActionNone || action == ActionRefer:
			consecutiveFailures = 0
			if pauseErr := pause(ctx, opts.IdlePause); pauseErr != nil {
				return interactions, pauseErr
			}
		default:
			consecutiveFailures = 0
		}
	}
}

// pause sleeps for d (if positive) or until the context is cancelled.
func pause(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
