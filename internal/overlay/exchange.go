package overlay

import (
	"pgrid/internal/core"
	"pgrid/internal/keyspace"
	"pgrid/internal/replication"
	"pgrid/internal/routing"
)

// This file implements the responder side of a construction encounter
// (Figure 2). The contacted peer holds its own lock while computing the
// outcome, applies its share of the state change immediately, and returns
// instructions for the initiator, which applies them optimistically under
// its own lock. Holding only one peer's lock at a time keeps the protocol
// deadlock free even though encounters are fully concurrent.

// handleExchange processes a construction interaction initiated by another
// peer.
func (p *Peer) handleExchange(req ExchangeRequest) ExchangeResponse {
	p.mu.Lock()
	defer p.mu.Unlock()

	myPath := p.table.Path()
	resp := ExchangeResponse{
		Action:        ActionNone,
		From:          p.Addr(),
		ResponderPath: myPath,
		ResponderDone: p.done,
	}

	switch {
	case myPath.SamePartition(req.Path) && req.Withheld:
		// The encounter moves data: ask for the items before anything
		// changes, so the repeated request meets this peer as it is now.
		resp.Action = ActionItems
		return resp
	case myPath.SamePartition(req.Path):
		switch {
		case myPath.Depth() == req.Path.Depth():
			p.respondSamePath(req, &resp)
		case myPath.Depth() > req.Path.Depth():
			p.respondInitiatorBehind(req, &resp)
		default:
			p.respondResponderBehind(req, &resp)
		}
	default:
		p.respondRefer(req, &resp)
	}

	// Regardless of the outcome, exchange routing information (Figure 2,
	// possibility 3) and gossip replica lists when the peers still share a
	// partition.
	p.table.MergeFrom(req.RoutingPath, req.RoutingRefs)
	resp.RoutingPath, resp.RoutingRefs = p.table.Snapshot()
	resp.ResponderPath = p.table.Path()
	resp.ResponderDone = p.done
	return resp
}

// respondSamePath handles an encounter of two peers with identical paths:
// split the partition if it is overloaded and populous enough, otherwise
// become replicas and reconcile content.
func (p *Peer) respondSamePath(req ExchangeRequest, resp *ExchangeResponse) {
	path := p.table.Path()
	myItems := p.store.ItemsWithPrefix(path)
	load := len(myItems)
	// Estimate how many replicas currently serve this partition from the
	// overlap of the two peers' item sets (Section 4.2), and from that the
	// partition's total data load: right after the initial replication every
	// item exists MinReplicas+1 times, so the number of distinct items in
	// the partition is approximately replicas * localLoad / (MinReplicas+1).
	// Overlap is counted over full items (key plus value): only copies made
	// by the replication process are shared, which is exactly the model the
	// estimator assumes. Counting bare keys would conflate replication with
	// naturally shared keys (e.g. frequent terms of an inverted file).
	overlap := overlapItems(myItems, req.Items)
	replicaEstimate := replication.EstimateReplicas(load, len(req.Items), overlap, p.cfg.MinReplicas)
	localLoad := load
	if len(req.Items) > localLoad {
		localLoad = len(req.Items)
	}
	partitionLoad := replicaEstimate * float64(localLoad) / float64(p.cfg.MinReplicas+1)

	overloaded := partitionLoad > float64(p.cfg.MaxKeys) || localLoad > p.cfg.MaxKeys
	enoughPeers := replicaEstimate >= 2*float64(p.cfg.MinReplicas)
	canDeepen := path.Depth() < MaxDepth

	if overloaded && enoughPeers && canDeepen {
		// Decide the split parameters from both peers' views of the load.
		est := p.decider.EstimateP0(p.store.KeysWithPrefix(path), path, p.rng)
		if req.Estimate > 0 && req.Estimate < 1 {
			est = (est + req.Estimate) / 2
		}
		// For extremely skewed partitions the proportional target would give
		// the light side less than the minimal replication; Algorithm 1 pins
		// the light side to n_min peers in that case (lines 6-10), which
		// corresponds to clamping the target fraction to n_min / replicas.
		minShare := float64(p.cfg.MinReplicas) / replicaEstimate
		if minShare > 0.5 {
			minShare = 0.5
		}
		if est < minShare {
			est = minShare
		}
		if est > 1-minShare {
			est = 1 - minShare
		}
		sd := p.decider.ForEstimate(est)
		if sd.ShouldBalancedSplit(p.rng) {
			p.performSplit(req, resp, sd)
			return
		}
		// The alpha probability said no: unproductive this time, but the
		// partition is still overloaded so the peer is not done.
		resp.Action = ActionNone
		p.markProductiveLocked()
		return
	}

	// Become replicas: absorb the initiator's items, return what it lacks,
	// and remember each other as replicas. What it lacks is in myItems: the
	// absorbed items all carry keys it has.
	newItems := p.store.AddAll(req.Items)
	p.counters[KeysMoved].Add(uint64(len(req.Items)))
	have := make(map[keyspace.Key]bool, len(req.Items))
	for _, it := range req.Items {
		have[it.Key] = true
	}
	for _, it := range myItems {
		if !have[it.Key] {
			resp.Items = append(resp.Items, it)
		}
	}
	p.counters[KeysMoved].Add(uint64(len(resp.Items)))
	p.addReplicaLocked(req.From)
	for _, r := range req.Replicas {
		p.addReplicaLocked(r)
	}
	resp.Replicas = p.snapshotReplicasLocked()
	resp.Action = ActionReplicate
	if newItems == 0 && len(resp.Items) == 0 {
		// Fully synchronised replicas of a partition that cannot (or need
		// not) be split any further: this is the termination signal of
		// Section 4.2. Partitions that are overloaded but lack the peers to
		// split also end here — nothing more can be done locally.
		p.markIdleLocked()
	} else {
		p.markProductiveLocked()
	}
}

// performSplit executes a balanced split between the responder and the
// initiator (both currently at the same path). Callers hold p.mu.
func (p *Peer) performSplit(req ExchangeRequest, resp *ExchangeResponse, sd core.SplitDecision) {
	path := p.table.Path()
	level := path.Depth()
	// Assign the two sub-partitions randomly (the balanced split is
	// symmetric).
	myBit, theirBit := 0, 1
	if p.randomLocked() < 0.5 {
		myBit, theirBit = 1, 0
	}
	myNew := path.Child(myBit)
	theirNew := path.Child(theirBit)

	// Absorb the initiator's items that fall on the responder's side, hand
	// over the responder's items on the initiator's side.
	taken := filterItems(req.Items, myNew)
	p.store.AddAll(taken)
	give := p.store.RemovePrefix(theirNew)
	p.counters[KeysMoved].Add(uint64(len(taken) + len(give)))

	// Extend the responder's own path and reference the initiator at the
	// split level; the replica list is stale after a split.
	p.table.Extend(myBit, routing.Ref{Addr: req.From, Path: theirNew})
	p.clearReplicasLocked()
	p.markProductiveLocked()

	resp.Action = ActionSplit
	resp.NewPath = theirNew
	resp.NewPathSet = true
	resp.Items = give
	resp.TakenOver = true
	resp.Refs = []LevelRef{{Level: level, Ref: routing.Ref{Addr: p.Addr(), Path: myNew}}}
	_ = sd // the split decision's alpha already gated this call; bits are symmetric
}

// respondInitiatorBehind handles an initiator whose path is a proper prefix
// of the responder's: the initiator is still undecided at the responder's
// split level, so the responder applies AEP rules 3 and 4 on its behalf.
func (p *Peer) respondInitiatorBehind(req ExchangeRequest, resp *ExchangeResponse) {
	myPath := p.table.Path()
	level := req.Path.Depth()
	myBit := myPath.Bit(level)
	// Orientation comes from the initiator's own estimate of the load split
	// of its (shallower) partition; fall back to the responder's view.
	est := req.Estimate
	if est <= 0 || est >= 1 {
		est = p.decider.EstimateP0(p.store.KeysWithPrefix(req.Path), req.Path, p.rng)
	}
	sd := p.decider.ForEstimate(est)
	myDecision := bitDecision(myBit)

	decision, direct := sd.MeetDecided(myDecision, p.rng)
	newBit := decisionBit(decision)
	newPath := req.Path.Child(newBit)

	if direct {
		// The initiator ends up on the complementary side and references
		// the responder; the responder references the initiator and absorbs
		// the initiator's items that belong to its own side.
		taken := filterItems(req.Items, req.Path.Child(myBit))
		p.store.AddAll(taken)
		give := p.store.RemovePrefix(newPath)
		p.counters[KeysMoved].Add(uint64(len(taken) + len(give)))
		p.table.Add(level, routing.Ref{Addr: req.From, Path: newPath})
		resp.Items = give
		resp.TakenOver = true
		resp.Refs = []LevelRef{{Level: level, Ref: routing.Ref{Addr: p.Addr(), Path: myPath}}}
		p.markProductiveLocked()
	} else {
		// The initiator follows the responder into the same side (rule 4,
		// second case) and needs a reference into the complementary
		// sub-tree, which the responder hands over from its routing table.
		ref, ok := p.table.Random(level)
		if !ok {
			// Without a reference the referential-integrity invariant would
			// break; decline the extension.
			resp.Action = ActionNone
			return
		}
		resp.Refs = []LevelRef{{Level: level, Ref: ref}}
		resp.TakenOver = false
		p.markProductiveLocked()
	}
	resp.Action = ActionExtend
	resp.NewPath = newPath
	resp.NewPathSet = true
}

// respondResponderBehind handles an initiator that is deeper than the
// responder: the responder is the undecided one, so it extends its own path
// using the AEP rules and the initiator only gains routing information.
func (p *Peer) respondResponderBehind(req ExchangeRequest, resp *ExchangeResponse) {
	myPath := p.table.Path()
	level := myPath.Depth()
	if level >= MaxDepth || req.Path.Depth() <= level {
		resp.Action = ActionNone
		return
	}
	theirBit := req.Path.Bit(level)
	est := p.decider.EstimateP0(p.store.KeysWithPrefix(myPath), myPath, p.rng)
	sd := p.decider.ForEstimate(est)
	decision, direct := sd.MeetDecided(bitDecision(theirBit), p.rng)
	newBit := decisionBit(decision)

	if direct {
		p.table.Extend(newBit, routing.Ref{Addr: req.From, Path: req.Path})
	} else {
		// Following the initiator's side requires a reference to the
		// complementary sub-tree, which must come from the initiator's
		// routing table snapshot.
		ref, ok := refAtLevel(req.RoutingRefs, level)
		if !ok {
			resp.Action = ActionNone
			return
		}
		p.table.Extend(newBit, ref)
	}
	p.clearReplicasLocked()
	p.markProductiveLocked()
	newPath := p.table.Path()

	// Absorb initiator items on the responder's side.
	taken := filterItems(req.Items, newPath)
	p.store.AddAll(taken)
	p.counters[KeysMoved].Add(uint64(len(taken)))
	if newBit != theirBit {
		// The peers ended up on complementary sides of the split level:
		// hand over any items the responder no longer covers and exchange
		// mutual references.
		give := p.store.RemovePrefix(req.Path)
		p.counters[KeysMoved].Add(uint64(len(give)))
		resp.Items = give
		resp.Refs = []LevelRef{{Level: level, Ref: routing.Ref{Addr: p.Addr(), Path: newPath}}}
	}
	resp.Action = ActionExtend
}

// respondRefer handles peers from different partitions: exchange routing
// entries and refer the initiator to a peer closer to its own partition.
func (p *Peer) respondRefer(req ExchangeRequest, resp *ExchangeResponse) {
	myPath := p.table.Path()
	level := myPath.CommonPrefixLen(req.Path)
	// Remember the initiator as a reference into the complementary
	// sub-tree.
	p.table.Add(level, routing.Ref{Addr: req.From, Path: req.Path})
	resp.Refs = []LevelRef{{Level: level, Ref: routing.Ref{Addr: p.Addr(), Path: myPath}}}
	// Refer the initiator to a peer that matches its path at least one bit
	// further than this responder does.
	if ref, ok := p.table.Random(level); ok && ref.Addr != req.From {
		resp.Referral = ref.Addr
	}
	// Flush any items this peer still holds that belong to the initiator's
	// partition (orphans from earlier splits).
	give := p.store.RemovePrefix(req.Path)
	if len(give) > 0 {
		resp.Items = give
		p.counters[KeysMoved].Add(uint64(len(give)))
	}
	resp.Action = ActionRefer
}

// itemKeys extracts the keys of a batch of items.
func itemKeys(items []replication.Item) keyspace.Keys {
	out := make(keyspace.Keys, len(items))
	for i, it := range items {
		out[i] = it.Key
	}
	return out
}

// overlapItems counts the (key, value) items present in both batches.
func overlapItems(a, b []replication.Item) int {
	type pair struct {
		key   keyspace.Key
		value string
	}
	seen := make(map[pair]bool, len(a))
	for _, it := range a {
		seen[pair{it.Key, it.Value}] = true
	}
	n := 0
	for _, it := range b {
		if seen[pair{it.Key, it.Value}] {
			n++
		}
	}
	return n
}

// filterItems returns the items whose keys start with the path.
func filterItems(items []replication.Item, p keyspace.Path) []replication.Item {
	var out []replication.Item
	for _, it := range items {
		if it.Key.HasPrefix(p) {
			out = append(out, it)
		}
	}
	return out
}

// bitDecision maps a path bit to the core package's Decision type.
func bitDecision(bit int) core.Decision {
	if bit == 0 {
		return core.Zero
	}
	return core.One
}

// decisionBit maps a Decision back to a path bit.
func decisionBit(d core.Decision) int {
	if d == core.Zero {
		return 0
	}
	return 1
}

// refAtLevel picks a reference at the given level from a routing snapshot.
func refAtLevel(levels [][]routing.Ref, level int) (routing.Ref, bool) {
	if level < 0 || level >= len(levels) || len(levels[level]) == 0 {
		return routing.Ref{}, false
	}
	return levels[level][0], true
}
