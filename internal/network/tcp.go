package network

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"pgrid/internal/wire"
)

// This file implements the real TCP transport: pooled persistent
// connections that multiplex id-correlated request/response frames per peer
// (pool.go), the compact wire-codec bodies of registered message types, and
// fragmentation for messages larger than one frame (binary.go). There is one
// wire format; a frame that does not open with magicBinary closes its
// connection, exactly as a malformed binary frame does.
//
// Message payload types must be registered with RegisterType so they can be
// reconstructed on the receiving side.

// typeRegistry maps symbolic type names to the registered payload types;
// typeNames is the reverse index, so resolving a value's wire name and codec
// on every outgoing message is one map lookup instead of a registry scan.
var (
	typeRegistryMu sync.RWMutex
	typeRegistry   = map[string]registered{}
	typeNames      = map[reflect.Type]registered{}
)

// registered is one registry entry.
type registered struct {
	name  string
	typ   reflect.Type
	codec *wire.Codec
}

// RegisterType registers a payload type under a symbolic name for use with
// the transports and compiles its wire codec from the type's declaration.
// The sample value is used only for its type; register the value type (not
// a pointer). Registering the same name twice with the same type is a
// no-op. It panics — both are always programming errors — when a name is
// re-registered with a different type, or when the type has no wire
// encoding (the panic names the field): the codec is the only body encoding
// the transport has.
func RegisterType(name string, sample any) {
	t := reflect.TypeOf(sample)
	codec, err := wire.Compile(t)
	if err != nil {
		panic(fmt.Sprintf("network: type %v registered as %q: %v", t, name, err))
	}
	typeRegistryMu.Lock()
	defer typeRegistryMu.Unlock()
	if prev, ok := typeRegistry[name]; ok && prev.typ != t {
		panic(fmt.Sprintf("network: type name %q already registered with %v", name, prev.typ))
	}
	r := registered{name: name, typ: t, codec: codec}
	typeRegistry[name] = r
	typeNames[t] = r
}

// lookupCodec resolves a registered type name to its codec.
func lookupCodec(name string) (*wire.Codec, bool) {
	typeRegistryMu.RLock()
	defer typeRegistryMu.RUnlock()
	r, ok := typeRegistry[name]
	return r.codec, ok
}

// lookupValue returns the registry entry of a value's type; the zero entry
// when it is not registered. It is on the hot path of every outgoing
// message, hence the reverse map rather than a registry scan.
func lookupValue(v any) registered {
	t := reflect.TypeOf(v)
	typeRegistryMu.RLock()
	defer typeRegistryMu.RUnlock()
	return typeNames[t]
}

// maxFrame bounds the size of a single wire frame (16 MiB). Larger messages
// are fragmented (binary.go).
const maxFrame = 16 << 20

// frameHeaderLen is the length prefix size.
const frameHeaderLen = 4

// appendFrame appends one length-prefixed frame with payload a||b to dst.
func appendFrame(dst, a, b []byte) ([]byte, error) {
	n := len(a) + len(b)
	if n > maxFrame {
		return nil, fmt.Errorf("network: frame too large: %d bytes", n)
	}
	var lenBuf [frameHeaderLen]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(n))
	dst = append(dst, lenBuf[:]...)
	dst = append(dst, a...)
	return append(dst, b...), nil
}

// readFrame reads one length-prefixed frame payload.
func readFrame(r io.Reader) ([]byte, error) {
	var lenBuf [frameHeaderLen]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > maxFrame {
		return nil, fmt.Errorf("network: frame too large: %d bytes", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Transport timing and size defaults.
const (
	// DefaultDialTimeout bounds connection establishment.
	DefaultDialTimeout = 5 * time.Second
	// DefaultCallTimeout bounds one call when the caller's context carries
	// no deadline. A context deadline always takes precedence.
	DefaultCallTimeout = 30 * time.Second
	// DefaultIdleTimeout is how long a pooled or serving connection may sit
	// with no frames, no bytes and no requests in flight before it is
	// closed. Activity refreshes it per frame, so a long transfer or a slow
	// handler never trips it.
	DefaultIdleTimeout = 2 * time.Minute
	// DefaultMaxMessage bounds one reassembled fragmented message (256 MiB).
	DefaultMaxMessage = 256 << 20
)

// TCPOptions tunes a TCPEndpoint. The zero value of every field selects
// its default, so callers set only what they care about.
type TCPOptions struct {
	// DialTimeout bounds connection establishment (DefaultDialTimeout).
	DialTimeout time.Duration
	// CallTimeout bounds one outgoing call when the caller's context has no
	// deadline (DefaultCallTimeout).
	CallTimeout time.Duration
	// IdleTimeout is the per-connection idle horizon (DefaultIdleTimeout),
	// refreshed by every frame in either direction and suspended while
	// requests are in flight, so a legitimately long sync is never cut off.
	IdleTimeout time.Duration
	// FrameLimit caps the frames this endpoint writes (the 16 MiB protocol
	// cap when zero); larger messages are fragmented. Lowering it is mainly
	// useful in tests that exercise fragmentation without multi-MiB
	// payloads. Received frames are always accepted up to the protocol cap.
	FrameLimit int
	// MaxMessage bounds one reassembled message (DefaultMaxMessage). It is
	// the effective cap on an anti-entropy rebuild image.
	MaxMessage int
}

// normalize fills in the default of every zero field and clamps FrameLimit
// to [512, maxFrame], so a zero TCPOptions cannot divide by zero or disable
// a cap.
func (o TCPOptions) normalize() TCPOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = DefaultDialTimeout
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = DefaultCallTimeout
	}
	if o.IdleTimeout <= 0 {
		o.IdleTimeout = DefaultIdleTimeout
	}
	switch {
	case o.FrameLimit <= 0 || o.FrameLimit > maxFrame:
		o.FrameLimit = maxFrame
	case o.FrameLimit < 512:
		o.FrameLimit = 512
	}
	if o.MaxMessage <= 0 {
		o.MaxMessage = DefaultMaxMessage
	}
	return o
}

// TCPEndpoint is a Transport backed by a TCP listener. Outgoing calls are
// multiplexed over one pooled persistent connection per destination.
type TCPEndpoint struct {
	listener net.Listener
	addr     Addr

	mu      sync.RWMutex
	handler Handler
	closed  bool

	// opts is normalized and fixed when the endpoint is built, so it is
	// read without a lock.
	opts TCPOptions

	wg sync.WaitGroup

	// Calls tracks this endpoint's outgoing calls in flight and their
	// high-water mark, mirroring the simulated network's accounting.
	Calls InFlightGauge
	// bytes counts the calls this endpoint made (BytesByType).
	bytes callBytes

	pool *connPool

	// serveMu guards the set of live incoming connections, so Close can
	// tear them down instead of waiting for their idle horizon.
	serveMu     sync.Mutex
	serveConns  map[net.Conn]struct{}
	serveClosed bool
}

// ListenTCP creates a TCP endpoint bound to the given address ("host:port";
// use ":0" to pick a free port) with default options.
func ListenTCP(addr string) (*TCPEndpoint, error) {
	return ListenTCPOptions(addr, TCPOptions{})
}

// ListenTCPOptions creates a TCP endpoint with explicit options, fixed for
// the endpoint's lifetime.
func ListenTCPOptions(addr string, opts TCPOptions) (*TCPEndpoint, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("network: listen: %w", err)
	}
	ep := &TCPEndpoint{
		listener:   l,
		addr:       Addr(l.Addr().String()),
		opts:       opts.normalize(),
		serveConns: make(map[net.Conn]struct{}),
	}
	ep.pool = newConnPool(ep)
	ep.wg.Add(1)
	go ep.acceptLoop()
	return ep, nil
}

// Addr implements Transport.
func (e *TCPEndpoint) Addr() Addr { return e.addr }

// BytesByType implements Transport.
func (e *TCPEndpoint) BytesByType() map[string]int64 { return e.bytes.snapshot() }

// Handle implements Transport.
func (e *TCPEndpoint) Handle(h Handler) {
	e.mu.Lock()
	e.handler = h
	e.mu.Unlock()
}

// Close implements Transport.
func (e *TCPEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	err := e.listener.Close()
	e.pool.closeAll()
	e.serveMu.Lock()
	e.serveClosed = true
	for conn := range e.serveConns {
		_ = conn.Close()
	}
	e.serveMu.Unlock()
	e.wg.Wait()
	return err
}

// trackServeConn registers a live incoming connection; it reports false
// when the endpoint is already closing. The closed check and the insert
// happen under the same lock Close sweeps under, so a connection accepted
// concurrently with Close can never be registered after the sweep (which
// would leave Close waiting on it until its idle horizon).
func (e *TCPEndpoint) trackServeConn(conn net.Conn) bool {
	e.serveMu.Lock()
	defer e.serveMu.Unlock()
	if e.serveClosed {
		return false
	}
	e.serveConns[conn] = struct{}{}
	return true
}

// untrackServeConn removes a finished incoming connection.
func (e *TCPEndpoint) untrackServeConn(conn net.Conn) {
	e.serveMu.Lock()
	delete(e.serveConns, conn)
	e.serveMu.Unlock()
}

// acceptLoop serves incoming connections until the listener closes.
func (e *TCPEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.listener.Accept()
		if err != nil {
			return
		}
		if !e.trackServeConn(conn) {
			conn.Close()
			return
		}
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			defer e.untrackServeConn(conn)
			defer conn.Close()
			e.serveConn(conn)
		}()
	}
}

// serveConn reads frames off one incoming connection until it closes, goes
// idle, or sends anything that is not a well-formed binary request frame.
// Requests are dispatched concurrently and answered by id.
func (e *TCPEndpoint) serveConn(conn net.Conn) {
	idle := e.opts.IdleTimeout
	var activity, inflight atomic.Int64
	activity.Store(time.Now().UnixNano())
	done := make(chan struct{})
	defer close(done)
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		connWatchdog(conn, idle, &activity, &inflight, done)
	}()

	br := bufio.NewReaderSize(&activityReader{r: conn, activity: &activity}, 32<<10)
	fw := newFrameWriter(conn, idle, &activity)
	asm := newFragAssembler(e.opts.MaxMessage)
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
		if msg.flags&fResp != 0 {
			return // a server never receives responses
		}
		inflight.Add(1)
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			defer inflight.Add(-1)
			e.serveBinRequest(fw, msg)
		}()
	}
}

// activityReader stamps the shared activity clock on every successful read,
// so the idle watchdog sees slow multi-frame transfers as live.
type activityReader struct {
	r        io.Reader
	activity *atomic.Int64
}

func (a *activityReader) Read(p []byte) (int, error) {
	n, err := a.r.Read(p)
	if n > 0 {
		a.activity.Store(time.Now().UnixNano())
	}
	return n, err
}

// serveBinRequest runs the handler for one binary request and writes the
// response message.
func (e *TCPEndpoint) serveBinRequest(fw *frameWriter, msg *binMsg) {
	e.mu.RLock()
	handler := e.handler
	closed := e.closed
	e.mu.RUnlock()

	fail := func(err error) {
		_ = fw.writeMsg(context.Background(), fResp|fErr, msg.id, e.addr, "", []byte(err.Error()), e.opts.FrameLimit)
	}
	switch {
	case closed:
		fail(ErrClosed)
	case handler == nil:
		fail(ErrNoHandler)
	default:
		req, err := decodeBinBody(msg.typ, msg.body)
		if err != nil {
			fail(err)
			return
		}
		resp, herr := handler(context.Background(), msg.from, req)
		if herr != nil {
			fail(herr)
			return
		}
		bp := getBodyBuf()
		name, body, err := encodeBinBody((*bp)[:0], resp)
		if err != nil {
			putBodyBuf(bp, nil)
			fail(err)
			return
		}
		_ = fw.writeMsg(context.Background(), fResp, msg.id, e.addr, name, body, e.opts.FrameLimit)
		putBodyBuf(bp, body)
	}
}

// Call implements Transport: one call over the peer's pooled multiplexed
// connection, dialing it if needed. A write failure on a cached connection
// (the classic stale-pool race: the peer closed it while we grabbed it) is
// retried once on a fresh connection. Once the request frame has been
// written the call is never retried: a connection that dies before the
// response surfaces as ErrUnreachable, so the transport delivers a request
// at most once.
func (e *TCPEndpoint) Call(ctx context.Context, to Addr, req any) (any, error) {
	e.mu.RLock()
	closed := e.closed
	e.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	e.Calls.enter()
	defer e.Calls.exit()

	bp := getBodyBuf()
	name, body, err := encodeBinBody((*bp)[:0], req)
	if err != nil {
		putBodyBuf(bp, nil)
		return nil, err
	}
	// The body is only read during writeMsg (frames are assembled into the
	// writer's own scratch), so it can be recycled as soon as the call
	// returns — including the retry attempt.
	defer func() { putBodyBuf(bp, body) }()
	// CallTimeout bounds the whole call — the write phase included — when
	// the caller's context carries no deadline.
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.opts.CallTimeout)
		defer cancel()
	}
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		pc, cached, err := e.pool.get(ctx, to)
		if err != nil {
			return nil, err
		}
		id, ch := pc.register()
		if err := pc.fw.writeMsg(ctx, 0, id, e.addr, name, body, e.opts.FrameLimit); err != nil {
			pc.cancel(id)
			e.pool.drop(to, pc)
			lastErr = err
			if cached {
				continue
			}
			return nil, fmt.Errorf("%w: %v", ErrUnreachable, err)
		}
		e.bytes.add(name, len(body))
		msg, err := pc.await(ctx, id, ch)
		if err != nil {
			return nil, err
		}
		if msg.flags&fErr != 0 {
			return nil, &RemoteError{Msg: string(msg.body)}
		}
		e.bytes.add(name, len(msg.body))
		return decodeBinBody(msg.typ, msg.body)
	}
	return nil, fmt.Errorf("%w: %v", ErrUnreachable, lastErr)
}
