package overlay

import (
	"context"
	"sync"

	"pgrid/internal/keyspace"
	"pgrid/internal/routing"
)

// This file implements batch query processing: many exact-match lookups
// pipelined through shared routing. At every peer the batch is split into
// keys answered locally and groups of keys that diverge from the local path
// at the same level; each group is forwarded as ONE message (raced over as
// many references as a single lookup: Alpha at the accepting peer, one at a
// time at a forwarder), so b keys bound for the same
// sub-tree cost one round trip instead of b. Groups are forwarded
// concurrently through the same bounded pool that drives range fan-out.

// BatchResult is the outcome of one key of a batch query.
type BatchResult struct {
	// QueryResult is the per-key result; meaningful only when Err is nil.
	QueryResult
	// Err is errNotResponsible when no route produced an answer for the
	// key.
	Err error
}

// QueryBatch resolves exact-match queries for all given keys, starting at
// this peer. Results align with keys by index. Keys the peer is responsible
// for are answered locally; the rest are grouped by divergence level and
// each group travels the overlay as a single message per hop.
func (p *Peer) QueryBatch(ctx context.Context, keys []keyspace.Key) []BatchResult {
	resp := p.handleQueryBatch(ctx, BatchQueryRequest{Keys: keys, TTL: queryTTL})
	out := make([]BatchResult, len(keys))
	for i := range keys {
		qr := resp.Results[i]
		if !qr.Found {
			out[i].Err = errNotResponsible
			continue
		}
		p.counters[Queries].Add(1)
		p.counters[QueryHops].Add(uint64(qr.Hops))
		out[i].QueryResult = QueryResult{Items: qr.Items, Hops: qr.Hops, Responsible: qr.Responsible}
	}
	return out
}

// batchGroup collects the batch indices of keys that diverge from the local
// path at the same level and therefore share their next hop.
type batchGroup struct {
	level int
	idx   []int
}

// handleQueryBatch serves a batch query: answer the keys this peer is
// responsible for from the local store, group the remaining keys by
// divergence level and forward every group — concurrently, bounded by
// Fanout — as one sub-batch message raced over the references of its level.
func (p *Peer) handleQueryBatch(ctx context.Context, req BatchQueryRequest) BatchQueryResponse {
	results := make([]QueryResponse, len(req.Keys))
	var groups []*batchGroup
	byLevel := make(map[int]*batchGroup)
	for i, key := range req.Keys {
		if p.table.Responsible(key) {
			results[i] = p.answerLocal(key, req.Hops)
			continue
		}
		if req.TTL <= 0 {
			results[i] = QueryResponse{Found: false, Hops: req.Hops}
			continue
		}
		_, level, _ := p.table.NextHop(key)
		g := byLevel[level]
		if g == nil {
			g = &batchGroup{level: level}
			byLevel[level] = g
			groups = append(groups, g)
		}
		g.idx = append(g.idx, i)
	}
	if len(groups) == 0 {
		return BatchQueryResponse{Results: results}
	}

	var mu sync.Mutex
	forEachBounded(p.cfg.Fanout, groups, func(g *batchGroup) {
		sub := BatchQueryRequest{
			Keys: make([]keyspace.Key, len(g.idx)),
			Hops: req.Hops + 1,
			TTL:  req.TTL - 1,
		}
		for j, i := range g.idx {
			sub.Keys[j] = req.Keys[i]
		}
		merged := p.raceBatch(ctx, p.shuffledRefs(g.level), sub, p.raceWidth(req.Hops))
		mu.Lock()
		defer mu.Unlock()
		for j, i := range g.idx {
			results[i] = merged[j]
		}
	})
	return BatchQueryResponse{Results: results}
}

// raceBatch forwards a sub-batch to the given references, up to width in
// flight at once, and merges the responses per key: a key is resolved by
// the first response that found it. Unlike a single lookup — where the
// first responsible answer is the whole result — a batch response can
// resolve some keys and dead-end on others (a responder with a stale
// routing branch), so the race only stops early once every key of the
// group is resolved; otherwise later responders still fill the gaps.
func (p *Peer) raceBatch(ctx context.Context, refs []routing.Ref, sub BatchQueryRequest, width int) []QueryResponse {
	merged := make([]QueryResponse, len(sub.Keys))
	unresolved := len(sub.Keys)
	p.raceCall(ctx, refs, sub, width, func(raw any) bool {
		resp, ok := raw.(BatchQueryResponse)
		if !ok || len(resp.Results) != len(sub.Keys) {
			return false
		}
		for j, qr := range resp.Results {
			if qr.Found && !merged[j].Found {
				merged[j] = qr
				unresolved--
			}
		}
		return unresolved == 0
	})
	return merged
}
