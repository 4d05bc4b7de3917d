package gate

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"

	"pgrid/internal/keyspace"
	"pgrid/internal/network"
	"pgrid/internal/overlay"
	"pgrid/internal/replication"
)

// Backend is what the HTTP layer needs from the overlay: the five data
// operations, a readiness probe, and (optionally, via MetricsSource) the
// peer metrics the /metrics endpoint exports. Two implementations exist:
// PeerBackend drives a peer living in the same process (pgridnode -http),
// RemoteBackend speaks the wire protocol to peers across the network
// (standalone pgridgate).
//
// Errors returned by a Backend are classified with the overlay sentinels so
// the HTTP layer can map them to statuses uniformly: overlay.ErrNotFound
// (the responsible partition holds nothing under the key),
// overlay.ErrNoQuorum (mutation applied but under-replicated),
// overlay.ErrUnreachable (no route to the responsible partition), plus
// context.DeadlineExceeded when the per-request budget ran out mid-route.
type Backend interface {
	// Search resolves an exact-match lookup for the key. opts selects
	// between the default cache-eligible read and a consistent read that
	// bypasses every query-path answer cache.
	Search(ctx context.Context, key keyspace.Key, opts SearchOptions) (SearchResult, error)
	// SearchMany resolves many exact-match lookups as one batch; the
	// result aligns with keys by index and carries per-key errors.
	SearchMany(ctx context.Context, keys []keyspace.Key) []BatchEntry
	// Range returns every item with a key in r.
	Range(ctx context.Context, r keyspace.Range) (RangeResult, error)
	// Insert routes a live write to the responsible partition.
	Insert(ctx context.Context, it replication.Item) (MutateResult, error)
	// Delete routes a live delete of the (key, value) pair.
	Delete(ctx context.Context, key keyspace.Key, value string) (MutateResult, error)
	// Ready reports whether the backend can currently serve traffic; its
	// error is surfaced on /readyz.
	Ready(ctx context.Context) error
}

// MetricsSource is implemented by backends that can surface overlay peer
// metrics for the /metrics endpoint.
type MetricsSource interface {
	MetricsSnapshot() overlay.MetricsSnapshot
}

// SearchOptions selects the read path of a Search.
type SearchOptions struct {
	// Consistent forces the lookup to bypass every query-path answer cache
	// and route to the responsible partition.
	Consistent bool
}

// SearchResult is the outcome of an exact-match lookup.
type SearchResult struct {
	Items []replication.Item
	Hops  int
	// Cached reports that the answer was served from a peer's query-path
	// answer cache (after clock revalidation) rather than routed.
	Cached bool
}

// BatchEntry is one key's outcome within a batch lookup.
type BatchEntry struct {
	SearchResult
	Err error
}

// RangeResult is the outcome of a range query.
type RangeResult struct {
	Items      []replication.Item
	Hops       int
	Partitions int
	Incomplete bool
}

// MutateResult is the outcome of a routed insert or delete.
type MutateResult struct {
	Acks     int
	Replicas int
	Hops     int
}

// PeerBackend serves the gateway API from an overlay peer in the same
// process. The zero quorum semantics are the peer's own configured
// WriteQuorum.
type PeerBackend struct {
	Peer *overlay.Peer
}

// Search implements Backend.
func (b PeerBackend) Search(ctx context.Context, key keyspace.Key, opts SearchOptions) (SearchResult, error) {
	res, err := b.Peer.QueryWith(ctx, key, overlay.QueryOptions{Consistent: opts.Consistent})
	if err != nil {
		return SearchResult{}, classifyCtx(ctx, err)
	}
	if len(res.Items) == 0 {
		return SearchResult{Hops: res.Hops}, overlay.ErrNotFound
	}
	return SearchResult{Items: res.Items, Hops: res.Hops, Cached: res.Cached}, nil
}

// SearchMany implements Backend.
func (b PeerBackend) SearchMany(ctx context.Context, keys []keyspace.Key) []BatchEntry {
	out := make([]BatchEntry, len(keys))
	for i, r := range b.Peer.QueryBatch(ctx, keys) {
		if r.Err != nil {
			out[i].Err = classifyCtx(ctx, r.Err)
			continue
		}
		if len(r.Items) == 0 {
			out[i].Err = overlay.ErrNotFound
			out[i].Hops = r.Hops
			continue
		}
		out[i].SearchResult = SearchResult{Items: r.Items, Hops: r.Hops}
	}
	return out
}

// Range implements Backend.
func (b PeerBackend) Range(ctx context.Context, r keyspace.Range) (RangeResult, error) {
	res, err := b.Peer.RangeQuery(ctx, r)
	if err != nil {
		return RangeResult{}, classifyCtx(ctx, err)
	}
	return RangeResult{Items: res.Items, Hops: res.Hops, Partitions: res.Partitions, Incomplete: res.Incomplete}, nil
}

// Insert implements Backend.
func (b PeerBackend) Insert(ctx context.Context, it replication.Item) (MutateResult, error) {
	res, err := b.Peer.Insert(ctx, it)
	return MutateResult{Acks: res.Acks, Replicas: res.Replicas, Hops: res.Hops}, classifyCtx(ctx, err)
}

// Delete implements Backend.
func (b PeerBackend) Delete(ctx context.Context, key keyspace.Key, value string) (MutateResult, error) {
	res, err := b.Peer.Delete(ctx, key, value)
	return MutateResult{Acks: res.Acks, Replicas: res.Replicas, Hops: res.Hops}, classifyCtx(ctx, err)
}

// Ready implements Backend: a local peer is ready as soon as it exists.
func (b PeerBackend) Ready(context.Context) error { return nil }

// MetricsSnapshot implements MetricsSource.
func (b PeerBackend) MetricsSnapshot() overlay.MetricsSnapshot { return b.Peer.MetricsSnapshot() }

// RemoteBackend serves the gateway API by speaking the overlay wire
// protocol to a set of entry peers; the contacted peer routes the
// operation onward like any forwarded request. The backend keeps the
// partition path of each entry peer: the first request asks every entry
// peer for it (a ClockRequest, in the background), and every found search
// or mutation answer names the peer that was responsible and its path. A
// Search, Insert and Delete, and a Range by its lower bound, go first to an
// entry peer of the longest known path that prefixes the key, the
// partition's entry peers taking turns. So a read of a known partition
// costs one call and no routing hop, a write one call plus the owner's
// replica legs, and both are spread over all of that partition's entry
// peers; the owner coordinates a write without racing copies of it down
// the trie. Batches, and requests for a key no known path covers, rotate
// round-robin through the entry peers. A peer that answers for another
// partition, or fails at the transport level, has its path forgotten until
// an answer names it again; an entry peer that fails is skipped in favour
// of the next one within the same request, a write keeping its mutation
// ID. Only addresses in Peers are ever called.
type RemoteBackend struct {
	// Transport is the gateway's own endpoint (TCP in production, the
	// simulated network in tests).
	Transport network.Transport
	// Peers are the overlay entry points.
	Peers []network.Addr
	// TTL bounds routing hops per operation (0 = DefaultTTL).
	TTL int
	// WriteQuorum is the number of replica acks an insert or delete needs
	// before the gateway reports it successful (0 = 1). The gateway
	// applies it to the coordinator's reported ack count.
	WriteQuorum int

	next  atomic.Uint64
	probe sync.Once
	// probes counts the path probes in flight; tests wait on it.
	probes sync.WaitGroup
	mu     sync.Mutex
	// paths holds the partition path of Peers[i] at i, once known.
	paths []peerPath
}

// peerPath is an entry peer's partition path, if known.
type peerPath struct {
	path  keyspace.Path
	known bool
}

// DefaultTTL is the default per-operation routing-hop bound of a
// RemoteBackend.
const DefaultTTL = 64

func (b *RemoteBackend) ttl() int {
	if b.TTL > 0 {
		return b.TTL
	}
	return DefaultTTL
}

func (b *RemoteBackend) quorum() int {
	if b.WriteQuorum > 0 {
		return b.WriteQuorum
	}
	return 1
}

// call sends req to entry peers in rotation until one answers, classifying
// total failure as ErrUnreachable.
func (b *RemoteBackend) call(ctx context.Context, req any) (any, error) {
	if len(b.Peers) == 0 {
		return nil, fmt.Errorf("gate: no entry peers configured: %w", overlay.ErrUnreachable)
	}
	start := int(b.next.Add(1) - 1)
	var lastErr error
	for i := 0; i < len(b.Peers); i++ {
		addr := b.Peers[(start+i)%len(b.Peers)]
		raw, err := b.Transport.Call(ctx, addr, req)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr = err
			continue
		}
		return raw, nil
	}
	return nil, fmt.Errorf("gate: all %d entry peers failed (last: %v): %w", len(b.Peers), lastErr, overlay.ErrUnreachable)
}

// callOwner sends req first to a known owner of key and returns the
// owner it called. On a transport error it forgets that owner's path and
// falls back to call within the same request, with the same req; the owner
// returned is then "". The first call starts the probe of every entry
// peer's path.
func (b *RemoteBackend) callOwner(ctx context.Context, key keyspace.Key, req any) (any, network.Addr, error) {
	b.probe.Do(b.probePaths)
	if addr, ok := b.owner(key); ok {
		raw, err := b.Transport.Call(ctx, addr, req)
		if err == nil {
			return raw, addr, nil
		}
		if ctx.Err() != nil {
			return nil, "", ctx.Err()
		}
		b.setPath(addr, "", false)
	}
	raw, err := b.call(ctx, req)
	return raw, "", err
}

// probePaths asks every entry peer for its partition path, each in its
// own goroutine, so no read waits for a slow or dead peer. The
// transport's own call timeout bounds a probe.
func (b *RemoteBackend) probePaths() {
	b.probes.Add(len(b.Peers))
	for _, addr := range b.Peers {
		go func() {
			defer b.probes.Done()
			raw, err := b.Transport.Call(context.Background(), addr, overlay.ClockRequest{From: b.Transport.Addr()})
			if resp, ok := raw.(overlay.ClockResponse); err == nil && ok {
				b.setPath(addr, resp.Path, true)
			}
		}()
	}
}

// learn updates the entry peers' paths from a search or mutation answer
// (found, and the responsible peer and its path, which both carry): an
// owner that was called and did not answer as responsible is forgotten,
// and the responsible peer of a found answer is known to hold its path.
func (b *RemoteBackend) learn(owner network.Addr, found bool, responsible network.Addr, path keyspace.Path) {
	if owner != "" && (!found || responsible != owner) {
		b.setPath(owner, "", false)
	}
	if found && responsible != "" {
		b.setPath(responsible, path, true)
	}
}

// setPath records the path of addr, or forgets it, if addr is one of
// Peers.
func (b *RemoteBackend) setPath(addr network.Addr, path keyspace.Path, known bool) {
	i := slices.Index(b.Peers, addr)
	if i < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.paths == nil {
		b.paths = make([]peerPath, len(b.Peers))
	}
	b.paths[i] = peerPath{path, known}
}

// owner returns an entry peer of the longest known path that prefixes
// key. Two paths of one length that prefix the same key are one
// partition; its peers take turns, in the rotation call uses.
func (b *RemoteBackend) owner(key keyspace.Key) (network.Addr, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	depth, n := -1, 0
	for _, p := range b.paths {
		switch {
		case !p.known || !key.HasPrefix(p.path):
		case len(p.path) > depth:
			depth, n = len(p.path), 1
		case len(p.path) == depth:
			n++
		}
	}
	if n == 0 {
		return "", false
	}
	turn := int((b.next.Add(1) - 1) % uint64(n))
	for i, p := range b.paths {
		if p.known && len(p.path) == depth && key.HasPrefix(p.path) {
			if turn == 0 {
				return b.Peers[i], true
			}
			turn--
		}
	}
	return "", false
}

// Search implements Backend.
func (b *RemoteBackend) Search(ctx context.Context, key keyspace.Key, opts SearchOptions) (SearchResult, error) {
	raw, owner, err := b.callOwner(ctx, key, overlay.QueryRequest{Key: key, TTL: b.ttl(), Bypass: opts.Consistent})
	if err != nil {
		return SearchResult{}, err
	}
	resp, ok := raw.(overlay.QueryResponse)
	if !ok {
		return SearchResult{}, fmt.Errorf("gate: unexpected response %T: %w", raw, overlay.ErrUnreachable)
	}
	b.learn(owner, resp.Found, resp.Responsible, resp.ResponsiblePath)
	if !resp.Found {
		return SearchResult{}, fmt.Errorf("gate: routing exhausted: %w", overlay.ErrUnreachable)
	}
	if len(resp.Items) == 0 {
		return SearchResult{Hops: resp.Hops}, overlay.ErrNotFound
	}
	return SearchResult{Items: resp.Items, Hops: resp.Hops, Cached: resp.Cached}, nil
}

// SearchMany implements Backend.
func (b *RemoteBackend) SearchMany(ctx context.Context, keys []keyspace.Key) []BatchEntry {
	out := make([]BatchEntry, len(keys))
	raw, err := b.call(ctx, overlay.BatchQueryRequest{Keys: keys, TTL: b.ttl()})
	if err != nil {
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	resp, ok := raw.(overlay.BatchQueryResponse)
	if !ok || len(resp.Results) != len(keys) {
		for i := range out {
			out[i].Err = fmt.Errorf("gate: malformed batch response: %w", overlay.ErrUnreachable)
		}
		return out
	}
	for i, qr := range resp.Results {
		b.learn("", qr.Found, qr.Responsible, qr.ResponsiblePath)
		switch {
		case !qr.Found:
			out[i].Err = fmt.Errorf("gate: routing exhausted: %w", overlay.ErrUnreachable)
		case len(qr.Items) == 0:
			out[i].Err = overlay.ErrNotFound
			out[i].Hops = qr.Hops
		default:
			out[i].SearchResult = SearchResult{Items: qr.Items, Hops: qr.Hops}
		}
	}
	return out
}

// Range implements Backend. It is sent first to a known owner of r.Lo,
// where the range's shower starts. Replicas can contribute the same item
// through different branches, so the merged result is deduplicated and
// key-ordered here (a local peer's RangeQuery does the same before
// returning).
func (b *RemoteBackend) Range(ctx context.Context, r keyspace.Range) (RangeResult, error) {
	raw, _, err := b.callOwner(ctx, r.Lo, overlay.RangeRequest{Lo: r.Lo, Hi: r.Hi, HiUnbounded: r.HiUnbounded, TTL: b.ttl()})
	if err != nil {
		return RangeResult{}, err
	}
	resp, ok := raw.(overlay.RangeResponse)
	if !ok {
		return RangeResult{}, fmt.Errorf("gate: unexpected response %T: %w", raw, overlay.ErrUnreachable)
	}
	return RangeResult{
		Items:      replication.DedupeItems(resp.Items),
		Hops:       resp.Hops,
		Partitions: resp.Partitions,
		Incomplete: resp.Incomplete,
	}, nil
}

// Insert implements Backend.
func (b *RemoteBackend) Insert(ctx context.Context, it replication.Item) (MutateResult, error) {
	return b.mutate(ctx, it.Key, overlay.InsertRequest{Item: it, ID: mutationID(), TTL: b.ttl()})
}

// Delete implements Backend.
func (b *RemoteBackend) Delete(ctx context.Context, key keyspace.Key, value string) (MutateResult, error) {
	return b.mutate(ctx, key, overlay.DeleteRequest{Key: key, Value: value, ID: mutationID(), TTL: b.ttl()})
}

// mutate sends an insert or delete of key first to a known owner of key,
// which coordinates it without a routing race, and learns from the
// answer. A fallback call carries the same mutation ID, so a write the
// owner applied before its answer was lost is not coordinated twice. It
// applies the gateway's write quorum to the coordinator's ack count.
func (b *RemoteBackend) mutate(ctx context.Context, key keyspace.Key, req any) (MutateResult, error) {
	raw, owner, err := b.callOwner(ctx, key, req)
	if err != nil {
		return MutateResult{}, err
	}
	resp, ok := raw.(overlay.MutateResponse)
	if !ok {
		return MutateResult{}, fmt.Errorf("gate: unexpected response %T: %w", raw, overlay.ErrUnreachable)
	}
	b.learn(owner, resp.Found, resp.Responsible, resp.ResponsiblePath)
	if !resp.Found {
		return MutateResult{}, fmt.Errorf("gate: routing exhausted: %w", overlay.ErrUnreachable)
	}
	res := MutateResult{Acks: resp.Acks, Replicas: resp.Replicas, Hops: resp.Hops}
	if res.Acks < b.quorum() {
		return res, overlay.ErrNoQuorum
	}
	return res, nil
}

// Ready implements Backend: at least one entry peer must answer a ping.
func (b *RemoteBackend) Ready(ctx context.Context) error {
	_, err := b.call(ctx, overlay.PingRequest{From: b.Transport.Addr()})
	return err
}

// mutationID draws a non-zero mutation identity for the overlay's
// exactly-once coordination (a zero ID is never deduplicated).
func mutationID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

// classifyCtx prefers the context's own verdict over the overlay error: a
// race that lost because the request deadline fired mid-route must surface
// as a timeout, not as "unreachable".
func classifyCtx(ctx context.Context, err error) error {
	if err != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return err
}
