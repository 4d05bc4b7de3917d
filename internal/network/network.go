// Package network provides the message-passing substrate the overlay runs
// on. Two transports are provided:
//
//   - Sim, an in-process simulated network where every peer endpoint is
//     served by goroutines and messages experience configurable latency and
//     loss. This stands in for the PlanetLab deployment of Section 5 (see
//     docs/ARCHITECTURE.md) and supports taking peers offline to model
//     churn.
//   - TCP, a real transport over pooled net.Conn connections carrying
//     length-prefixed binary frames, used by the cmd/pgridnode binary to run
//     an actual distributed deployment of the protocol.
//
// Both expose the same request/response Transport interface so the overlay
// protocol code is transport agnostic, and both move the same bytes: every
// payload crosses either transport as its registered wire encoding, and the
// caller counts those body bytes per request type.
package network

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Addr identifies a peer endpoint. For the simulated network it is an
// opaque peer name; for the TCP transport it is a host:port address.
type Addr string

// Handler processes an incoming request and produces a response. Handlers
// are invoked concurrently; implementations must be safe for concurrent
// use.
type Handler func(ctx context.Context, from Addr, req any) (resp any, err error)

// Transport is a synchronous request/response endpoint.
type Transport interface {
	// Addr returns the endpoint's own address.
	Addr() Addr
	// Call sends a request to the peer at the given address and waits for
	// its response or a failure.
	Call(ctx context.Context, to Addr, req any) (any, error)
	// Handle registers the handler invoked for incoming requests. It must
	// be called before the endpoint receives traffic.
	Handle(h Handler)
	// Close shuts the endpoint down; subsequent calls fail.
	Close() error
	// BytesByType returns the encoded body bytes of the calls this endpoint
	// made — requests sent plus responses received — keyed by the request's
	// registered type name.
	BytesByType() map[string]int64
}

// Errors returned by transports.
var (
	// ErrUnreachable indicates the destination endpoint does not exist, is
	// offline, or the message was lost.
	ErrUnreachable = errors.New("network: peer unreachable")
	// ErrClosed indicates the local endpoint has been closed.
	ErrClosed = errors.New("network: endpoint closed")
	// ErrNoHandler indicates the remote endpoint has no registered handler.
	ErrNoHandler = errors.New("network: no handler registered")
)

// RemoteError wraps an error string returned by a remote handler so callers
// can distinguish transport failures from application-level failures.
type RemoteError struct {
	Msg string
}

// Error implements the error interface.
func (e *RemoteError) Error() string { return fmt.Sprintf("remote error: %s", e.Msg) }

// InFlightGauge tracks the number of outstanding calls and their high-water
// mark. With α-parallel lookups, call concurrency is a first-class
// quantity: benchmarks and tests use the gauge to verify that the query
// engine actually overlaps its requests, and the accounting must stay
// race-free under that concurrency — both counters are lock-free atomics.
type InFlightGauge struct {
	cur  atomic.Int64
	peak atomic.Int64
}

// enter records the start of a call and updates the high-water mark.
func (g *InFlightGauge) enter() {
	cur := g.cur.Add(1)
	for {
		peak := g.peak.Load()
		if cur <= peak || g.peak.CompareAndSwap(peak, cur) {
			return
		}
	}
}

// exit records the end of a call.
func (g *InFlightGauge) exit() { g.cur.Add(-1) }

// Current returns the number of calls in flight right now.
func (g *InFlightGauge) Current() int64 { return g.cur.Load() }

// Peak returns the maximal number of calls that were ever in flight
// simultaneously.
func (g *InFlightGauge) Peak() int64 { return g.peak.Load() }

// callBytes counts the body bytes of the calls one endpoint made: the
// request's when it is sent and the response's when it arrives, both under
// the request's registered type name. Only the caller counts, so every byte
// a call moves is counted once, on the endpoint that asked for it.
type callBytes struct {
	mu     sync.Mutex
	byType map[string]int64
}

// add counts n body bytes of a call whose request is registered as typ.
func (c *callBytes) add(typ string, n int) {
	c.mu.Lock()
	if c.byType == nil {
		c.byType = make(map[string]int64)
	}
	c.byType[typ] += int64(n)
	c.mu.Unlock()
}

// snapshot returns a copy of the counts.
func (c *callBytes) snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.byType))
	for typ, n := range c.byType {
		out[typ] = n
	}
	return out
}

// MessageSize returns the length of v's encoded wire body — the bytes the
// transports count for it — or 0 when v's type is not registered.
func MessageSize(v any) int {
	bp := getBodyBuf()
	_, body, err := encodeBinBody((*bp)[:0], v)
	putBodyBuf(bp, body)
	if err != nil {
		return 0
	}
	return len(body)
}
