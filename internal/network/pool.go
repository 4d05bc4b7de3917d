package network

// This file implements the client side of the pooled binary transport: one
// persistent multiplexed connection per destination, a read loop that
// correlates response frames to waiting callers by message id, and an idle
// watchdog that reclaims connections nobody is using. Dial, TLS-free
// framing and the serving side live in tcp.go/binary.go.

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// maxPoolEntries triggers a sweep of dead pool entries when the map has
// accumulated this many destinations (churn creates ever-new addresses;
// live connections are never evicted).
const maxPoolEntries = 1024

// connPool holds one persistent connection per destination address.
type connPool struct {
	e *TCPEndpoint

	mu      sync.Mutex
	entries map[Addr]*poolEntry
	closed  bool
}

// poolEntry serialises dialing per destination: concurrent callers to the
// same peer wait for one dial instead of racing their own.
type poolEntry struct {
	mu sync.Mutex
	pc *poolConn
}

func newConnPool(e *TCPEndpoint) *connPool {
	return &connPool{e: e, entries: make(map[Addr]*poolEntry)}
}

// get returns the live pooled connection to a destination, dialing one if
// needed. cached reports whether the connection pre-existed this call —
// a write failure on a cached connection is worth one retry, a failure on
// a connection dialed just now is not.
func (p *connPool) get(ctx context.Context, to Addr) (pc *poolConn, cached bool, err error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, false, ErrClosed
	}
	ent, ok := p.entries[to]
	if !ok {
		if len(p.entries) >= maxPoolEntries {
			p.pruneLocked()
		}
		ent = &poolEntry{}
		p.entries[to] = ent
	}
	p.mu.Unlock()

	ent.mu.Lock()
	defer ent.mu.Unlock()
	if ent.pc != nil && !ent.pc.isClosed() {
		return ent.pc, true, nil
	}
	d := net.Dialer{Timeout: p.e.opts.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", string(to))
	if err != nil {
		return nil, false, fmt.Errorf("%w: %v", ErrUnreachable, err)
	}
	// Re-check under p.mu after the dial: closeAll may have run while we
	// were dialing, and registering a connection (and its WaitGroup
	// goroutines) after it would leak past Close. Holding p.mu across the
	// construction orders the WaitGroup Add strictly before Close's Wait.
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		conn.Close()
		return nil, false, ErrClosed
	}
	pc = newPoolConn(p.e, to, conn)
	p.mu.Unlock()
	ent.pc = pc
	return pc, false, nil
}

// drop discards a connection that failed, if it is still the pooled one,
// and removes the peer's (now connection-less) pool entry so the map does
// not grow with every address ever contacted. A concurrent get() holding
// the old entry simply dials into it and works; the next caller creates a
// fresh entry.
func (p *connPool) drop(to Addr, pc *poolConn) {
	p.mu.Lock()
	ent := p.entries[to]
	p.mu.Unlock()
	removeEntry := false
	if ent != nil {
		ent.mu.Lock()
		if ent.pc == pc {
			ent.pc = nil
			removeEntry = true
		}
		ent.mu.Unlock()
	}
	if removeEntry {
		p.mu.Lock()
		if p.entries[to] == ent {
			delete(p.entries, to)
		}
		p.mu.Unlock()
	}
	pc.close()
}

// prune sweeps entries whose connection is gone or closed (idle-reclaimed
// conns leave their entry behind). Callers must hold p.mu.
func (p *connPool) pruneLocked() {
	for to, ent := range p.entries {
		if !ent.mu.TryLock() {
			continue
		}
		dead := ent.pc == nil || ent.pc.isClosed()
		ent.mu.Unlock()
		if dead {
			delete(p.entries, to)
		}
	}
}

// closeAll tears the pool down (endpoint Close).
func (p *connPool) closeAll() {
	p.mu.Lock()
	p.closed = true
	entries := p.entries
	p.entries = make(map[Addr]*poolEntry)
	p.mu.Unlock()
	for _, ent := range entries {
		ent.mu.Lock()
		if ent.pc != nil {
			ent.pc.close()
			ent.pc = nil
		}
		ent.mu.Unlock()
	}
}

// poolConn is one persistent multiplexed connection. Requests are written
// under the frame writer's lock; the read loop delivers responses to the
// per-id pending channels.
type poolConn struct {
	e    *TCPEndpoint
	to   Addr
	conn net.Conn
	fw   *frameWriter

	activity atomic.Int64
	inflight atomic.Int64
	nextID   atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]chan *binMsg
	closed  bool
	done    chan struct{}
}

func newPoolConn(e *TCPEndpoint, to Addr, conn net.Conn) *poolConn {
	pc := &poolConn{
		e:       e,
		to:      to,
		conn:    conn,
		pending: make(map[uint64]chan *binMsg),
		done:    make(chan struct{}),
	}
	pc.activity.Store(time.Now().UnixNano())
	pc.fw = newFrameWriter(conn, e.opts.IdleTimeout, &pc.activity)
	e.wg.Add(2)
	go func() {
		defer e.wg.Done()
		pc.readLoop()
	}()
	go func() {
		defer e.wg.Done()
		connWatchdog(conn, e.opts.IdleTimeout, &pc.activity, &pc.inflight, pc.done)
	}()
	return pc
}

// register allocates a message id and its response channel.
func (pc *poolConn) register() (uint64, chan *binMsg) {
	id := pc.nextID.Add(1)
	ch := make(chan *binMsg, 1)
	pc.inflight.Add(1)
	pc.mu.Lock()
	if pc.closed {
		pc.mu.Unlock()
		pc.inflight.Add(-1)
		close(ch)
		return id, ch
	}
	pc.pending[id] = ch
	pc.mu.Unlock()
	return id, ch
}

// cancel abandons a registered call (timeout, context cancellation, write
// failure). A response that still arrives for the id is dropped.
func (pc *poolConn) cancel(id uint64) {
	pc.mu.Lock()
	if _, ok := pc.pending[id]; ok {
		delete(pc.pending, id)
		pc.inflight.Add(-1)
	}
	pc.mu.Unlock()
}

// await blocks until the call's response, its context's cancellation, or
// the default call timeout when the context carries no deadline.
func (pc *poolConn) await(ctx context.Context, id uint64, ch chan *binMsg) (*binMsg, error) {
	var timeout <-chan time.Time
	if _, ok := ctx.Deadline(); !ok {
		t := time.NewTimer(pc.e.opts.CallTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case msg, ok := <-ch:
		if !ok {
			return nil, fmt.Errorf("%w: pooled connection to %s closed before response", ErrUnreachable, pc.to)
		}
		return msg, nil
	case <-ctx.Done():
		pc.cancel(id)
		return nil, fmt.Errorf("%w: %v", ErrUnreachable, ctx.Err())
	case <-timeout:
		pc.cancel(id)
		return nil, fmt.Errorf("%w: call timed out after %v", ErrUnreachable, pc.e.opts.CallTimeout)
	}
}

// readLoop delivers response messages to their waiting callers until the
// connection fails or closes.
func (pc *poolConn) readLoop() {
	defer pc.close()
	br := bufio.NewReaderSize(&activityReader{r: pc.conn, activity: &pc.activity}, 32<<10)
	asm := newFragAssembler(pc.e.opts.MaxMessage)
	for {
		payload, err := readFrame(br)
		if err != nil {
			return
		}
		fr, err := parseBinFrame(payload)
		if err != nil {
			return
		}
		msg, err := asm.add(fr)
		if err != nil {
			return
		}
		if msg == nil {
			continue
		}
		if msg.flags&fResp == 0 {
			return // a client never receives requests
		}
		pc.mu.Lock()
		ch, ok := pc.pending[msg.id]
		if ok {
			delete(pc.pending, msg.id)
			pc.inflight.Add(-1)
		}
		pc.mu.Unlock()
		if ok {
			ch <- msg // buffered; the only send for this id
		}
	}
}

// isClosed reports whether the connection has been torn down.
func (pc *poolConn) isClosed() bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.closed
}

// close tears the connection down and fails every pending call.
func (pc *poolConn) close() {
	pc.mu.Lock()
	if pc.closed {
		pc.mu.Unlock()
		return
	}
	pc.closed = true
	pending := pc.pending
	pc.pending = make(map[uint64]chan *binMsg)
	close(pc.done)
	pc.mu.Unlock()
	_ = pc.conn.Close()
	for range pending {
		pc.inflight.Add(-1)
	}
	for _, ch := range pending {
		close(ch)
	}
}
