package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pgrid/internal/gate"
	"pgrid/internal/keyspace"
	"pgrid/internal/network"
	"pgrid/internal/overlay"
	"pgrid/internal/replication"
)

// The traced run sees the request path from outside: spans come only from
// the decorators in this file, which wrap the two interfaces a request
// crosses (gate.Backend and network.Transport) plus the HTTP client call.
// Spans stay in memory and are written out when the run ends.

// Span kinds, outermost first.
const (
	kindHTTP    = "http"    // client: request sent to body fully read
	kindBackend = "backend" // one gate.Backend method, inside the gate's handler
	kindCall    = "call"    // one Transport.Call at the caller
	kindHandle  = "handle"  // one served message at the callee
)

// span is one recorded interval. Times are nanoseconds since the recorder
// was created; the cluster is one process, so they share a clock.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`  // span that caused this one, -1 if none was found
	Req    int32  `json:"request"` // HTTP request the span belongs to, -1 for background traffic
	Kind   string `json:"kind"`
	Type   string `json:"type"`           // operation or message type
	At     string `json:"at,omitempty"`   // endpoint that recorded the span
	Peer   string `json:"peer,omitempty"` // callee of a call, caller of a handle
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ReqB   int    `json:"req_bytes,omitempty"`  // network.MessageSize of the request
	RespB  int    `json:"resp_bytes,omitempty"` // and of the response
	Err    bool   `json:"err,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder collects spans while on is set, and counts request-path calls
// always, so the closed-loop phase of a traced run gets calls and bytes per
// operation without paying for spans.
type recorder struct {
	epoch  time.Time
	on     atomic.Bool
	nextID atomic.Int32
	calls  atomic.Int64
	bytes  atomic.Int64
	open   atomic.Int64 // request-path handlers running now

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

type spanKey struct{}

func parentOf(ctx context.Context) int32 {
	if id, ok := ctx.Value(spanKey{}).(int32); ok {
		return id
	}
	return -1
}

// messageType names a wire message and says whether it belongs to a client
// request (query, mutation, range, cache probe) or to background
// maintenance. The replica fan-out leg of a mutation gets its own name: it
// is awaited in full, not raced.
func messageType(m any) (name string, requestPath bool) {
	switch v := m.(type) {
	case overlay.QueryRequest:
		return "QueryRequest", true
	case overlay.RangeRequest:
		return "RangeRequest", true
	case overlay.InsertRequest:
		if v.Direct {
			return "InsertRequest.Direct", true
		}
		return "InsertRequest", true
	case overlay.DeleteRequest:
		if v.Direct {
			return "DeleteRequest.Direct", true
		}
		return "DeleteRequest", true
	case overlay.ClockRequest:
		return "ClockRequest", true
	default:
		return fmt.Sprintf("%T", m), false
	}
}

// raced reports whether calls of the type are alpha-raced: the first good
// answer wins and the rest are waste. Every other request-path call is
// awaited.
func raced(typ string) bool {
	return typ == "QueryRequest" || typ == "InsertRequest" || typ == "DeleteRequest"
}

// tracedTransport decorates one endpoint.
type tracedTransport struct {
	network.Transport
	rec *recorder
}

func (t *tracedTransport) Call(ctx context.Context, to network.Addr, req any) (any, error) {
	typ, onPath := messageType(req)
	if !t.rec.on.Load() {
		resp, err := t.Transport.Call(ctx, to, req)
		if onPath {
			t.rec.calls.Add(1)
			t.rec.bytes.Add(int64(network.MessageSize(req)))
			if err == nil {
				t.rec.bytes.Add(int64(network.MessageSize(resp)))
			}
		}
		return resp, err
	}
	s := span{
		ID: t.rec.nextID.Add(1), Parent: parentOf(ctx), Req: -1, Kind: kindCall, Type: typ,
		At: string(t.Addr()), Peer: string(to), ReqB: network.MessageSize(req), Start: t.rec.now(),
	}
	resp, err := t.Transport.Call(ctx, to, req)
	s.End = t.rec.now()
	if s.Err = err != nil; !s.Err {
		s.RespB = network.MessageSize(resp)
	}
	t.rec.add(s)
	return resp, err
}

func (t *tracedTransport) Handle(h network.Handler) {
	t.Transport.Handle(func(ctx context.Context, from network.Addr, req any) (any, error) {
		typ, onPath := messageType(req)
		if onPath {
			t.rec.open.Add(1)
			defer t.rec.open.Add(-1)
		}
		if !t.rec.on.Load() {
			return h(ctx, from, req)
		}
		s := span{
			ID: t.rec.nextID.Add(1), Parent: -1, Req: -1, Kind: kindHandle, Type: typ,
			At: string(t.Addr()), Peer: string(from), ReqB: network.MessageSize(req), Start: t.rec.now(),
		}
		resp, err := h(context.WithValue(ctx, spanKey{}, s.ID), from, req)
		s.End = t.rec.now()
		if s.Err = err != nil; !s.Err {
			s.RespB = network.MessageSize(resp)
		}
		t.rec.add(s)
		return resp, err
	})
}

// tracedBackend decorates the gate's Backend.
type tracedBackend struct {
	gate.Backend
	rec *recorder
}

// around records one Backend method as a span and hands fn a context that
// names it as the parent of the calls made inside.
func (b *tracedBackend) around(ctx context.Context, typ string, fn func(context.Context) error) {
	if !b.rec.on.Load() {
		_ = fn(ctx)
		return
	}
	s := span{ID: b.rec.nextID.Add(1), Parent: -1, Req: -1, Kind: kindBackend, Type: typ, Start: b.rec.now()}
	err := fn(context.WithValue(ctx, spanKey{}, s.ID))
	s.End = b.rec.now()
	s.Err = err != nil
	b.rec.add(s)
}

func (b *tracedBackend) Search(ctx context.Context, key keyspace.Key, opts gate.SearchOptions) (res gate.SearchResult, err error) {
	b.around(ctx, "Search", func(ctx context.Context) error {
		res, err = b.Backend.Search(ctx, key, opts)
		return err
	})
	return res, err
}

func (b *tracedBackend) Range(ctx context.Context, r keyspace.Range) (res gate.RangeResult, err error) {
	b.around(ctx, "Range", func(ctx context.Context) error {
		res, err = b.Backend.Range(ctx, r)
		return err
	})
	return res, err
}

func (b *tracedBackend) Insert(ctx context.Context, it replication.Item) (res gate.MutateResult, err error) {
	b.around(ctx, "Insert", func(ctx context.Context) error {
		res, err = b.Backend.Insert(ctx, it)
		return err
	})
	return res, err
}

func (b *tracedBackend) Delete(ctx context.Context, key keyspace.Key, value string) (res gate.MutateResult, err error) {
	b.around(ctx, "Delete", func(ctx context.Context) error {
		res, err = b.Backend.Delete(ctx, key, value)
		return err
	})
	return res, err
}

func (r *recorder) decorators() decorators {
	return decorators{
		transport: func(t network.Transport) network.Transport { return &tracedTransport{t, r} },
		backend:   func(b gate.Backend) gate.Backend { return &tracedBackend{b, r} },
	}
}

// replayBlock is how many requests the replay sends before it switches
// recording on or off.
const replayBlock = 200

// replay sends a generator's operations from one client until the deadline,
// in blocks that alternate between recording off and recording on, so that
// drift over the phase falls on both alike. It returns the client-side
// latencies of either kind of block; with the recorder on, each request
// also records one HTTP span. After a block the losing branches of its last
// requests are left to end, so no call is recorded without its handler.
func replay(c *client, g *generator, deadline time.Time, rec *recorder, t *tally) (off, on []float64) {
	for time.Now().Before(deadline) {
		for _, record := range []bool{false, true} {
			rec.on.Store(record)
			for i := 0; i < replayBlock; i++ {
				o := g.next()
				out, err := c.do(o)
				if record && !out.sent.IsZero() {
					id, start := rec.nextID.Add(1), int64(out.sent.Sub(rec.epoch))
					rec.add(span{ID: id, Parent: -1, Req: id, Kind: kindHTTP, Type: kindNames[o.kind], Start: start, End: start + int64(out.latency), Err: err != nil})
				}
				t.attempted++
				if err != nil {
					t.fail(o, err)
					continue
				}
				t.note(o, out)
				if record {
					on = append(on, float64(out.latency))
				} else {
					off = append(off, float64(out.latency))
				}
			}
			rec.quiesce()
		}
	}
	rec.on.Store(false)
	return off, on
}

// quiesce waits until no request-path handler has run for a millisecond:
// the losing branches of the last requests have ended.
func (r *recorder) quiesce() {
	for idle := 0; idle < 10; {
		time.Sleep(100 * time.Microsecond)
		if idle++; r.open.Load() != 0 {
			idle = 0
		}
	}
}

// traceStats is what the analysis of the recorded spans yields. Times are
// medians over the traced requests (or over all spans of a kind), in ns.
type traceStats struct {
	requests     int
	e2e          float64
	gateSelf     float64 // HTTP span minus Backend span
	backendSelf  float64 // Backend span minus its calls
	wire         float64 // a call minus the handler span it caused
	handleSelf   float64 // a handler span minus the calls nested in it
	calls        float64 // request-path calls per request, the gate's included
	forwards     int     // raced peer-to-peer forwards, all requests
	pathForwards int     // those of them on a winning path
	gap          float64 // (e2e - budget along the blocking path) / e2e
	// the same three layer times, over the blocking paths only
	pathWire, pathHandleSelf float64
	pathCalls                float64 // calls on the blocking path per request
	unlinked                 int     // request-path handler spans no call was found for
}

// maxDelivery bounds the time from a call's start to the start of the
// handler span it causes.
const maxDelivery = 100 * time.Millisecond

// analyse links the spans into one tree per HTTP request and derives the
// per-layer times. Parents inside a process are exact (the decorators pass
// the span id down the context). Across the wire a handler span is matched
// to the earliest unmatched call of the same caller, callee and type that
// started before it; with one client and one pooled connection per pair of
// endpoints that is the call that caused it. A Backend span belongs to the
// HTTP span that contains it.
func analyse(spans []span) traceStats {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	byID := make(map[int32]*span, len(spans))
	var https []*span
	type edge struct{ from, to, typ string }
	calls := make(map[edge][]*span)
	for i := range spans {
		s := &spans[i]
		byID[s.ID] = s
		switch s.Kind {
		case kindHTTP:
			https = append(https, s)
		case kindCall:
			e := edge{s.At, s.Peer, s.Type}
			calls[e] = append(calls[e], s)
		}
	}
	var st traceStats
	matched := make(map[int32]*span) // call id -> handler span
	for i := range spans {
		s := &spans[i]
		switch s.Kind {
		case kindBackend:
			j := sort.Search(len(https), func(j int) bool { return https[j].Start > s.Start }) - 1
			if j >= 0 && https[j].End >= s.End {
				s.Parent = https[j].ID
			}
		case kindHandle:
			// First in, first out per edge: a pooled connection delivers
			// in order, so the earliest call not yet matched caused this
			// handler span. A call too old to have done so belongs to a
			// handler that ran while recording was off.
			e := edge{s.Peer, s.At, s.Type}
			q := calls[e]
			for len(q) > 0 && q[0].Start < s.Start-int64(maxDelivery) {
				q = q[1:]
			}
			if len(q) > 0 && q[0].Start <= s.Start {
				s.Parent = q[0].ID
				matched[q[0].ID] = s
				q = q[1:]
			}
			calls[e] = q
		}
	}
	children := make(map[int32][]*span)
	for i := range spans {
		s := &spans[i]
		if p, ok := byID[s.Parent]; ok {
			children[p.ID] = append(children[p.ID], s)
		}
	}
	var assign func(s *span, req int32)
	assign = func(s *span, req int32) {
		s.Req = req
		for _, c := range children[s.ID] {
			assign(c, req)
		}
	}
	for _, h := range https {
		assign(h, h.ID)
	}

	// covered is the part of s its children cover.
	covered := func(s *span) int64 {
		var total, end int64
		end = s.Start
		for _, c := range children[s.ID] { // sorted by start
			lo, hi := max(c.Start, end), min(c.End, s.End)
			if hi > lo {
				total += hi - lo
				end = hi
			}
		}
		return total
	}
	var wires, selfs []float64
	for i := range spans {
		s := &spans[i]
		switch {
		case !requestPath(s.Type):
		case s.Kind == kindHandle && s.Req < 0:
			if s.Parent < 0 {
				st.unlinked++
			}
		case s.Kind == kindHandle:
			selfs = append(selfs, float64(s.dur()-covered(s)))
		case s.Kind == kindCall && s.Req >= 0:
			// A cancelled call returns before its handler does; it has no
			// wire time of its own to report.
			if h := matched[s.ID]; h != nil && !s.Err && h.End <= s.End {
				wires = append(wires, float64(s.dur()-h.dur()))
			}
		}
	}
	st.wire, st.handleSelf = median(wires), median(selfs)

	// follow prices one call the answer waited for, and blocking the handler
	// span it caused: its self time plus the calls it in turn waited for —
	// at a raced step the call that answered first, at an awaited one (range
	// or replica fan-out) the call that returned last.
	var pathWires, pathSelfs []float64
	pathCalls := 0
	var follow func(c *span) (ns int64, forwards int)
	var blocking func(h *span) (ns int64, forwards int)
	follow = func(c *span) (int64, int) {
		pathCalls++
		h := matched[c.ID]
		if h == nil || h.End > c.End {
			return c.dur(), 0
		}
		pathWires = append(pathWires, float64(c.dur()-h.dur()))
		ns, forwards := blocking(h)
		return c.dur() - h.dur() + ns, forwards
	}
	blocking = func(h *span) (int64, int) {
		ns := h.dur() - covered(h)
		pathSelfs = append(pathSelfs, float64(ns))
		forwards := 0
		var winner, slowest *span
		for _, c := range children[h.ID] {
			switch {
			case raced(c.Type):
				if !c.Err && matched[c.ID] != nil && (winner == nil || c.End < winner.End) {
					winner = c
				}
			case c.Type == "ClockRequest":
				ns += c.dur() // the cache probe precedes routing; its handler is a clock read
			default:
				if slowest == nil || c.End > slowest.End {
					slowest = c
				}
			}
		}
		if winner != nil {
			sub, f := follow(winner)
			ns, forwards = ns+sub, forwards+f+1
		}
		if slowest != nil {
			sub, f := follow(slowest)
			ns, forwards = ns+sub, forwards+f
		}
		return ns, forwards
	}

	var e2es, gateSelfs, backendSelfs, gaps []float64
	nCalls := 0
	for _, h := range https {
		if h.Err || len(children[h.ID]) != 1 {
			continue
		}
		b := children[h.ID][0]
		st.requests++
		e2es = append(e2es, float64(h.dur()))
		gateSelfs = append(gateSelfs, float64(h.dur()-b.dur()))
		backendSelfs = append(backendSelfs, float64(b.dur()-covered(b)))
		budget := h.dur() - covered(b)
		for _, c := range children[b.ID] {
			sub, f := follow(c)
			budget += sub
			st.pathForwards += f
		}
		gaps = append(gaps, float64(h.dur()-budget)/float64(h.dur()))
	}
	for i := range spans {
		s := &spans[i]
		if s.Kind != kindCall || s.Req < 0 {
			continue
		}
		nCalls++
		if raced(s.Type) {
			if p := byID[s.Parent]; p != nil && p.Kind == kindHandle {
				st.forwards++
			}
		}
	}
	st.e2e, st.gateSelf, st.backendSelf, st.gap = median(e2es), median(gateSelfs), median(backendSelfs), median(gaps)
	st.pathWire, st.pathHandleSelf = median(pathWires), median(pathSelfs)
	if st.requests > 0 {
		st.pathCalls = float64(pathCalls) / float64(st.requests)
		st.calls = float64(nCalls) / float64(st.requests)
	}
	return st
}

// requestPath classifies a recorded message type name the way messageType
// classified the message.
func requestPath(typ string) bool {
	switch typ {
	case "QueryRequest", "RangeRequest", "InsertRequest", "InsertRequest.Direct",
		"DeleteRequest", "DeleteRequest.Direct", "ClockRequest":
		return true
	}
	return false
}

// writeTrace writes the spans of a run to <out>/<workload>.trace.json.
func writeTrace(cfg runConfig, spec workloadSpec, spans []span) (string, error) {
	path := filepath.Join(cfg.outDir, spec.name+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{spec.name, cfg.seed, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
