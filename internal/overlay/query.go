package overlay

import (
	"context"
	"errors"
	"sync"

	"pgrid/internal/keyspace"
	"pgrid/internal/network"
	"pgrid/internal/replication"
	"pgrid/internal/routing"
)

// This file implements query processing on the constructed overlay: exact
// key lookups by prefix routing (resolve the key bit by bit, forwarding to a
// routing reference as soon as the key diverges from the local path) and
// range queries by recursive fan-out into every sub-tree overlapping the
// range.
//
// Both paths are concurrent. The peer that accepts an exact-match query from
// a client races up to Alpha references at the divergence level at once and
// takes the first responsible answer, so a single stale reference does not
// hold the query for a full timeout. Every later forwarder tries one
// reference at a time, as the paper's search does, and moves on only after
// a failure or a dead-end answer: α is spent once per request, not once
// per hop. Range ("shower") queries fan every overlapping complementary
// sub-tree out through a bounded worker pool and merge branch results as
// they arrive.

// QueryResult is the outcome of an exact-match query.
type QueryResult struct {
	// Items are the data items stored under the key at the responsible
	// peer.
	Items []replication.Item
	// Hops is the number of routing hops used to reach the responsible
	// peer (0 if the local peer was responsible).
	Hops int
	// Responsible is the peer that answered.
	Responsible network.Addr
	// Cached reports that the answer was served from a peer's answer cache
	// (revalidated against the responsible store's clock) rather than
	// resolved by the responsible partition.
	Cached bool
}

// QueryOptions tunes one exact-match query.
type QueryOptions struct {
	// Consistent bypasses the answer cache along the route: the query is
	// resolved by the responsible partition itself.
	Consistent bool
}

// Query resolves an exact-match query for the given key, starting at this
// peer.
func (p *Peer) Query(ctx context.Context, key keyspace.Key) (QueryResult, error) {
	return p.QueryWith(ctx, key, QueryOptions{})
}

// QueryWith resolves an exact-match query with explicit options.
func (p *Peer) QueryWith(ctx context.Context, key keyspace.Key, opts QueryOptions) (QueryResult, error) {
	resp, err := p.resolveQuery(ctx, QueryRequest{Key: key, TTL: queryTTL, Bypass: opts.Consistent})
	if err != nil {
		return QueryResult{}, err
	}
	if !resp.Found {
		return QueryResult{}, errNotResponsible
	}
	p.counters[Queries].Add(1)
	p.counters[QueryHops].Add(uint64(resp.Hops))
	return QueryResult{Items: resp.Items, Hops: resp.Hops, Responsible: resp.Responsible, Cached: resp.Cached}, nil
}

// handleQuery serves a query received from another peer.
func (p *Peer) handleQuery(ctx context.Context, req QueryRequest) QueryResponse {
	resp, err := p.resolveQuery(ctx, req)
	if err != nil {
		return QueryResponse{Found: false, Hops: req.Hops}
	}
	return resp
}

// resolveQuery answers the query locally if this peer is responsible for
// the key, and otherwise forwards it to routing references at the level
// where the key diverges from the local path, racing raceWidth of them.
// Stale references (offline peers) are removed and alternative references
// tried, which is what keeps the success rate high under churn.
func (p *Peer) resolveQuery(ctx context.Context, req QueryRequest) (QueryResponse, error) {
	if p.table.Responsible(req.Key) {
		return p.answerLocal(req.Key, req.Hops), nil
	}
	if !req.Bypass {
		if resp, ok := p.cacheServe(ctx, req); ok {
			return resp, nil
		}
	}
	if req.TTL <= 0 {
		return QueryResponse{}, errNotResponsible
	}
	_, level, _ := p.table.NextHop(req.Key)
	refs := p.shuffledRefs(level)
	forward := QueryRequest{Key: req.Key, Hops: req.Hops + 1, TTL: req.TTL - 1, Bypass: req.Bypass}
	raw, ok := p.raceCall(ctx, refs, forward, p.raceWidth(req.Hops), func(raw any) bool {
		resp, ok := raw.(QueryResponse)
		return ok && resp.Found
	})
	if !ok {
		return QueryResponse{}, errNotResponsible
	}
	resp := raw.(QueryResponse)
	if !req.Bypass {
		p.cacheFill(req.Key, resp)
	}
	return resp, nil
}

// answerLocal builds the responsible peer's answer for key. It reads the
// clock BEFORE the items: a write landing between the two reads then leaves
// cached copies with a stale token (a harmless probe miss on their next
// serve), never with stale items under a fresh token.
func (p *Peer) answerLocal(key keyspace.Key, hops int) QueryResponse {
	clock := p.store.Clock()
	return QueryResponse{
		Found:           true,
		Items:           p.store.Lookup(key),
		Hops:            hops,
		Responsible:     p.Addr(),
		ResponsiblePath: p.Path(),
		Clock:           clock,
	}
}

// cacheServe tries to answer the query from the local answer cache. A hit
// is only served after a one-hop clock probe of the entry's responsible
// replica confirms the freshness token; any mismatch (clock moved, path
// changed, replica unreachable) invalidates the entry and the query routes
// normally.
func (p *Peer) cacheServe(ctx context.Context, req QueryRequest) (QueryResponse, bool) {
	if p.cache == nil {
		return QueryResponse{}, false
	}
	ent, ok := p.cache.get(req.Key, p.now())
	if !ok {
		p.counters[CacheMisses].Add(1)
		return QueryResponse{}, false
	}
	probe := ClockRequest{From: p.Addr()}
	raw, err := p.transport.Call(ctx, ent.responsible, probe)
	if err == nil {
		if cr, ok := raw.(ClockResponse); ok && cr.Clock == ent.clock && cr.Path.SamePartition(ent.path) {
			p.counters[CacheHits].Add(1)
			return QueryResponse{
				Found:           true,
				Items:           ent.items,
				Hops:            req.Hops,
				Responsible:     ent.responsible,
				ResponsiblePath: ent.path,
				Clock:           ent.clock,
				Cached:          true,
			}, true
		}
	}
	p.cache.invalidate(req.Key)
	p.counters[CacheMisses].Add(1)
	return QueryResponse{}, false
}

// cacheFill memoizes a successful forwarded answer together with its
// freshness token.
func (p *Peer) cacheFill(key keyspace.Key, resp QueryResponse) {
	if p.cache == nil || resp.Responsible == "" {
		return
	}
	p.cache.put(key, resp.Items, resp.Clock, resp.Responsible, resp.ResponsiblePath, p.now())
}

// shuffledRefs returns the references at the given level in random order so
// alternative access paths share the load.
func (p *Peer) shuffledRefs(level int) []routing.Ref {
	refs := p.table.Refs(level)
	p.mu.Lock()
	p.rng.Shuffle(len(refs), func(i, j int) { refs[i], refs[j] = refs[j], refs[i] })
	p.mu.Unlock()
	return refs
}

// raceWidth is the number of references raced for a request that has
// taken hops routing hops so far. The peer that accepted it from a client
// (hops 0: a local Query, Insert, Delete or QueryBatch, or a gateway's
// entry peer) races Alpha; a forwarder sends to one reference at a time,
// so a request costs at most Alpha forwards at its origin plus one per
// later hop while every reference answers.
func (p *Peer) raceWidth(hops int) int {
	if hops == 0 {
		return p.cfg.Alpha
	}
	return 1
}

// raceCall forwards req to the given references, at most width calls in
// flight at once, and returns the first response that accept approves.
// The first width calls start at once; after that a further
// reference is called only when an outcome was rejected — a transport
// error or a response accept refuses — so a race that is won sends no
// request past the winning one. References whose calls fail with a
// transport error are pruned from the routing table. accept runs on the
// caller's goroutine, one outcome at a time.
func (p *Peer) raceCall(ctx context.Context, refs []routing.Ref, req any, width int, accept func(raw any) bool) (any, bool) {
	if len(refs) == 0 {
		return nil, false
	}
	width = min(max(width, 1), len(refs))
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// One slot per reference: every launched call sends exactly one
	// outcome, so no sender blocks once the race has returned.
	results := make(chan any, len(refs))
	next := 0
	launch := func() {
		ref := refs[next]
		next++
		go func() {
			raw, err := p.transport.Call(rctx, ref.Addr, req)
			if err != nil {
				// Only prune on genuine transport failures: a call
				// aborted because the race was won or given up says
				// nothing about the reference's liveness.
				if rctx.Err() == nil && !errors.Is(err, context.Canceled) {
					p.table.Remove(ref.Addr)
				}
				raw = nil
			}
			results <- raw
		}()
	}
	for i := 0; i < width; i++ {
		launch()
	}
	for inflight := width; inflight > 0; inflight-- {
		select {
		case <-ctx.Done():
			return nil, false
		case raw := <-results:
			if raw != nil && accept(raw) {
				return raw, true
			}
			if next < len(refs) && ctx.Err() == nil {
				launch()
				inflight++
			}
		}
	}
	return nil, false
}

// forEachBounded runs fn for every item, keeping at most workers invocations
// in flight at once.
func forEachBounded[T any](workers int, items []T, fn func(T)) {
	if workers > len(items) {
		workers = len(items)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for _, it := range items {
		wg.Add(1)
		sem <- struct{}{}
		go func(it T) {
			defer wg.Done()
			defer func() { <-sem }()
			fn(it)
		}(it)
	}
	wg.Wait()
}

// RangeResult is the outcome of a range query.
type RangeResult struct {
	// Items are all items found with keys in the range, in key order.
	Items []replication.Item
	// Hops is the maximal hop count over the branches of the query.
	Hops int
	// Partitions is the number of distinct partitions that contributed.
	Partitions int
	// Incomplete reports that some sub-tree of the range could not be
	// reached.
	Incomplete bool
}

// RangeQuery returns all items with keys in [lo, hi), fanning the query out
// to every partition overlapping the range (a "shower" query in P-Grid
// terms: the local peer answers for its own partition and forwards a
// restricted sub-range to one reference per overlapping complementary
// sub-tree, with up to Fanout sub-trees queried concurrently).
func (p *Peer) RangeQuery(ctx context.Context, r keyspace.Range) (RangeResult, error) {
	req := RangeRequest{Lo: r.Lo, Hi: r.Hi, HiUnbounded: r.HiUnbounded, TTL: queryTTL}
	resp := p.handleRange(ctx, req)
	items := replication.DedupeItems(resp.Items)
	p.counters[Queries].Add(1)
	p.counters[QueryHops].Add(uint64(resp.Hops))
	return RangeResult{Items: items, Hops: resp.Hops, Partitions: resp.Partitions, Incomplete: resp.Incomplete}, nil
}

// rangeBranch is one complementary sub-tree a range query fans out into.
type rangeBranch struct {
	level   int
	forward RangeRequest
}

// handleRange serves a range query: collect local items in the range and
// forward the parts of the range that belong to complementary sub-trees of
// the local path. All overlapping sub-trees are queried concurrently through
// a worker pool bounded by Fanout, and branch results are merged as they
// arrive.
func (p *Peer) handleRange(ctx context.Context, req RangeRequest) RangeResponse {
	r := keyspace.Range{Lo: req.Lo, Hi: req.Hi, HiUnbounded: req.HiUnbounded}
	out := RangeResponse{Hops: req.Hops, Partitions: 1}
	// Stream the range straight off the storage engine (a disk-backed
	// store never materialises its full pair set).
	p.store.ScanRange(r, func(it replication.Item) bool {
		out.Items = append(out.Items, it)
		return true
	})
	if req.TTL <= 0 {
		out.Incomplete = true
		return out
	}
	path := p.Path()
	var branches []rangeBranch
	for level := 0; level < path.Depth(); level++ {
		sub := path.FlipAt(level)
		if !r.OverlapsPath(sub) {
			continue
		}
		// Restrict the forwarded range to the complementary sub-tree so
		// every partition is queried exactly once.
		iv := sub.Interval()
		lo, hi := r.Lo, r.Hi
		unbounded := r.HiUnbounded
		subLo := keyspace.MustFromFloat(iv.Lo, keyspace.DefaultDepth)
		subHi := keyspace.MustFromFloat(iv.Hi, keyspace.DefaultDepth)
		if subLo.Compare(lo) > 0 {
			lo = subLo
		}
		if iv.Hi < 1 && (unbounded || subHi.Compare(hi) < 0) {
			hi = subHi
			unbounded = false
		}
		branches = append(branches, rangeBranch{
			level:   level,
			forward: RangeRequest{Lo: lo, Hi: hi, HiUnbounded: unbounded, Hops: req.Hops + 1, TTL: req.TTL - 1},
		})
	}
	if len(branches) == 0 {
		return out
	}

	var mu sync.Mutex
	forEachBounded(p.cfg.Fanout, branches, func(br rangeBranch) {
		resp, ok := p.forwardRangeBranch(ctx, br)
		mu.Lock()
		defer mu.Unlock()
		if !ok {
			out.Incomplete = true
			return
		}
		out.Items = append(out.Items, resp.Items...)
		out.Partitions += resp.Partitions
		if resp.Hops > out.Hops {
			out.Hops = resp.Hops
		}
		if resp.Incomplete {
			out.Incomplete = true
		}
	})
	return out
}

// forwardRangeBranch forwards the restricted sub-range of one branch to a
// reference of the complementary sub-tree, falling back to alternative
// references when one is stale (stale references are pruned). Within a
// branch the references are tried one at a time so every partition is
// queried exactly once; the concurrency lives across branches.
func (p *Peer) forwardRangeBranch(ctx context.Context, br rangeBranch) (RangeResponse, bool) {
	for _, ref := range p.shuffledRefs(br.level) {
		raw, err := p.transport.Call(ctx, ref.Addr, br.forward)
		if err != nil {
			if ctx.Err() == nil && !errors.Is(err, context.Canceled) {
				p.table.Remove(ref.Addr)
			}
			continue
		}
		resp, ok := raw.(RangeResponse)
		if !ok {
			continue
		}
		return resp, true
	}
	return RangeResponse{}, false
}
