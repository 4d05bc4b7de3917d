package network

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type tcpPing struct {
	Value int
}

type tcpPong struct {
	Value int
}

// tcpBinPing/tcpBinPong carry a variable-length field, so tests can size a
// message past the frame limit.
type tcpBinPing struct {
	Value uint64
	Note  string
}

type tcpBinPong struct {
	Value uint64
	Note  string
}

func init() {
	RegisterType("test.ping", tcpPing{})
	RegisterType("test.pong", tcpPong{})
	RegisterType("test.binping", tcpBinPing{})
	RegisterType("test.binpong", tcpBinPong{})
}

func TestRegisterType(t *testing.T) {
	// Re-registering the same type is a no-op.
	RegisterType("test.ping", tcpPing{})
	if name := lookupValue(tcpPing{}).name; name != "test.ping" {
		t.Errorf("registered name = %q", name)
	}
	if r := lookupValue(42); r.codec != nil {
		t.Errorf("unregistered type should have no entry, got %q", r.name)
	}
	mustPanic := func(what, want string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			r := recover()
			if r == nil {
				t.Errorf("expected panic on %s", what)
			} else if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
				t.Errorf("panic on %s = %q, want it to name %q", what, msg, want)
			}
		}()
		f()
	}
	mustPanic("conflicting registration", "test.ping", func() { RegisterType("test.ping", tcpPong{}) })
	// The wire codec is the only body encoding: a type the codec cannot be
	// derived for is refused at registration, naming the field.
	type withMap struct{ M map[string]int }
	type withPointer struct{ P *int }
	type withUnexported struct {
		Value int
		note  string
	}
	type recursive struct{ Kids []recursive }
	refused := []struct {
		name, field string
		sample      any
	}{
		{"test.map", ".M", withMap{}},
		{"test.pointer", ".P", withPointer{}},
		{"test.unexported", ".note", withUnexported{note: "x"}},
		{"test.recursive", ".Kids", recursive{}},
	}
	for _, c := range refused {
		mustPanic(c.name, c.field, func() { RegisterType(c.name, c.sample) })
		if _, ok := lookupCodec(c.name); ok {
			t.Errorf("%s was registered despite the panic", c.name)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	name, body, err := encodeBinBody(nil, tcpPing{Value: 7})
	if err != nil {
		t.Fatal(err)
	}
	data, err := appendBinFrames(nil, 0, 9, "me", name, body, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := readFrame(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	fr, err := parseBinFrame(payload)
	if err != nil {
		t.Fatal(err)
	}
	if fr.id != 9 || fr.from != "me" || fr.typ != "test.ping" {
		t.Errorf("frame header = %+v", fr)
	}
	v, err := decodeBinBody(fr.typ, fr.body)
	if err != nil {
		t.Fatal(err)
	}
	if v.(tcpPing).Value != 7 {
		t.Errorf("round trip = %v", v)
	}
}

// countingConn records every Write call that reaches the connection.
type countingConn struct {
	net.Conn
	writes int
	bytes  bytes.Buffer
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	return c.bytes.Write(p)
}

func (c *countingConn) SetWriteDeadline(time.Time) error { return nil }

// TestWriteFrameSingleWrite pins that a message's length prefix, header and
// body reach the connection as exactly one Write call, never split into
// separate small writes.
func TestWriteFrameSingleWrite(t *testing.T) {
	var c countingConn
	fw := newFrameWriter(&c, time.Second, nil)
	if err := fw.writeMsg(context.Background(), 0, 1, "me", "test.ping", []byte("body"), 0); err != nil {
		t.Fatal(err)
	}
	if c.writes != 1 {
		t.Errorf("frame written in %d Write calls, want 1", c.writes)
	}
	payload, err := readFrame(&c.bytes)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := parseBinFrame(payload)
	if err != nil {
		t.Fatal(err)
	}
	if string(fr.body) != "body" {
		t.Errorf("body = %q", fr.body)
	}
}

func TestEncodeUnregisteredPayload(t *testing.T) {
	if _, _, err := encodeBinBody(nil, struct{ X int }{1}); err == nil {
		t.Error("expected error for unregistered payload type")
	}
}

func TestDecodeUnknownType(t *testing.T) {
	if _, err := decodeBinBody("nope", nil); err == nil {
		t.Error("expected error for unknown type")
	}
}

// doublingHandler answers a ping with its value doubled.
func doublingHandler(_ context.Context, _ Addr, req any) (any, error) {
	switch m := req.(type) {
	case tcpPing:
		return tcpPong{Value: m.Value * 2}, nil
	case tcpBinPing:
		return tcpBinPong{Value: m.Value * 2, Note: m.Note}, nil
	default:
		return nil, fmt.Errorf("unexpected request %T", req)
	}
}

// startPair returns a connected server/client endpoint pair with
// doublingHandler installed on the server.
func startPair(t *testing.T) (server, client *TCPEndpoint) {
	t.Helper()
	return startPairOptions(t, TCPOptions{})
}

// startPairOptions is startPair with both endpoints built with opts.
func startPairOptions(t *testing.T, opts TCPOptions) (server, client *TCPEndpoint) {
	t.Helper()
	server, err := ListenTCPOptions("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	server.Handle(doublingHandler)
	client, err = ListenTCPOptions("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return server, client
}

func TestTCPEndToEnd(t *testing.T) {
	server, client := startPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := client.Call(ctx, server.Addr(), tcpPing{Value: 21})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(tcpPong).Value != 42 {
		t.Errorf("resp = %v", resp)
	}
}

func TestTCPEndToEndBinaryCodec(t *testing.T) {
	server, client := startPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := client.Call(ctx, server.Addr(), tcpBinPing{Value: 21, Note: "compact"})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.(tcpBinPong); got.Value != 42 || got.Note != "compact" {
		t.Errorf("resp = %+v", got)
	}
}

// TestTCPPooledConnectionReuse verifies that repeated calls to one peer
// share a persistent connection instead of dialing per call.
func TestTCPPooledConnectionReuse(t *testing.T) {
	server, client := startPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 10; i++ {
		if _, err := client.Call(ctx, server.Addr(), tcpBinPing{Value: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	client.pool.mu.Lock()
	entries := len(client.pool.entries)
	ent := client.pool.entries[server.Addr()]
	client.pool.mu.Unlock()
	if entries != 1 || ent == nil {
		t.Fatalf("pool entries = %d, want exactly the server's", entries)
	}
	ent.mu.Lock()
	alive := ent.pc != nil && !ent.pc.isClosed()
	ent.mu.Unlock()
	if !alive {
		t.Error("pooled connection not alive after calls")
	}
}

// TestTCPConcurrentCallsMultiplex drives many concurrent calls through the
// single pooled connection and checks every response reaches its caller.
func TestTCPConcurrentCallsMultiplex(t *testing.T) {
	server, client := startPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i uint64) {
			defer wg.Done()
			resp, err := client.Call(ctx, server.Addr(), tcpBinPing{Value: i})
			if err != nil {
				errs <- err
				return
			}
			if got := resp.(tcpBinPong).Value; got != i*2 {
				errs <- fmt.Errorf("call %d: got %d", i, got)
			}
		}(uint64(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestTCPFragmentedMessage sends a message whose body exceeds the client's
// and server's frame limit, so both directions must fragment and
// reassemble.
func TestTCPFragmentedMessage(t *testing.T) {
	server, client := startPairOptions(t, TCPOptions{FrameLimit: 2048})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	note := strings.Repeat("0123456789abcdef", 4096) // 64 KiB >> 2 KiB frames
	resp, err := client.Call(ctx, server.Addr(), tcpBinPing{Value: 9, Note: note})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.(tcpBinPong); got.Value != 18 || got.Note != note {
		t.Errorf("fragmented round trip corrupted the payload (len %d)", len(got.Note))
	}
}

// TestTCPConcurrentFragmentedMessages drives many oversized messages
// through one pooled connection at once: fragments interleave on the wire
// (the writer releases its lock per frame), the fragmented-message
// semaphore keeps the sender under the receiver's reassembly limits, and
// every payload must come back intact.
func TestTCPConcurrentFragmentedMessages(t *testing.T) {
	server, client := startPairOptions(t, TCPOptions{FrameLimit: 2048})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, 24)
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i uint64) {
			defer wg.Done()
			note := strings.Repeat(fmt.Sprintf("%02d", i), 16<<10) // 32 KiB, 16+ frames
			resp, err := client.Call(ctx, server.Addr(), tcpBinPing{Value: i, Note: note})
			if err != nil {
				errs <- fmt.Errorf("call %d: %w", i, err)
				return
			}
			if got := resp.(tcpBinPong); got.Value != i*2 || got.Note != note {
				errs <- fmt.Errorf("call %d: corrupted round trip", i)
			}
		}(uint64(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestTCPCallAtMostOnceAfterWrite pins the transport's delivery contract: a
// request whose frame has been written is never sent again. The server runs
// the handler and then loses the connection before answering; a client that
// has never spoken to it must surface ErrUnreachable, not re-dial and have
// the handler run a second time.
func TestTCPCallAtMostOnceAfterWrite(t *testing.T) {
	server, client := startPair(t)
	var runs atomic.Int64
	server.Handle(func(context.Context, Addr, any) (any, error) {
		runs.Add(1)
		server.serveMu.Lock()
		for conn := range server.serveConns {
			_ = conn.Close()
		}
		server.serveMu.Unlock()
		return tcpPong{}, nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := client.Call(ctx, server.Addr(), tcpPing{Value: 1}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("err = %v, want ErrUnreachable", err)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("handler ran %d times, want exactly 1", n)
	}
}

// TestTCPNonMagicFrameClosesConnection checks that there is one wire format:
// a frame that does not open with magicBinary — the retired JSON envelope
// included — closes the serving connection without reaching the handler.
func TestTCPNonMagicFrameClosesConnection(t *testing.T) {
	server, _ := startPair(t)
	var runs atomic.Int64
	server.Handle(func(context.Context, Addr, any) (any, error) {
		runs.Add(1)
		return tcpPong{}, nil
	})
	for name, payload := range map[string]string{
		"json envelope": `{"from":"old-node","type":"test.ping","body":{"Value":1}}`,
		"garbage":       "\x00\x01not a frame",
	} {
		t.Run(name, func(t *testing.T) {
			conn, err := net.Dial("tcp", string(server.Addr()))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			frame, err := appendFrame(nil, []byte(payload), nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(frame); err != nil {
				t.Fatal(err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if n, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
				t.Errorf("read = %d bytes, err %v; want the server to close the connection", n, err)
			}
		})
	}
	if n := runs.Load(); n != 0 {
		t.Errorf("handler ran %d times on non-magic frames, want 0", n)
	}
}

func TestTCPRemoteError(t *testing.T) {
	server, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	server.Handle(func(context.Context, Addr, any) (any, error) {
		return nil, errors.New("nope")
	})
	client, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	_, err = client.Call(context.Background(), server.Addr(), tcpPing{})
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "nope") {
		t.Errorf("err = %v", err)
	}
}

func TestTCPNoHandler(t *testing.T) {
	server, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Call(context.Background(), server.Addr(), tcpPing{}); err == nil {
		t.Error("expected error when no handler is registered")
	}
}

func TestTCPUnreachable(t *testing.T) {
	client, err := ListenTCPOptions("127.0.0.1:0", TCPOptions{DialTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Call(context.Background(), "127.0.0.1:1", tcpPing{}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("err = %v, want ErrUnreachable", err)
	}
}

func TestTCPCallAfterClose(t *testing.T) {
	ep, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ep.Close(); err != nil {
		t.Errorf("double close should be harmless: %v", err)
	}
	if _, err := ep.Call(context.Background(), "127.0.0.1:1", tcpPing{}); !errors.Is(err, ErrClosed) {
		t.Errorf("call after close: %v", err)
	}
}

// TestTCPServeOutlivesIdleTimeoutWhileInFlight pins that the idle horizon
// is suspended while a request is in flight: a handler running longer than
// the idle timeout still delivers its response.
func TestTCPServeOutlivesIdleTimeoutWhileInFlight(t *testing.T) {
	server, err := ListenTCPOptions("127.0.0.1:0", TCPOptions{IdleTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	server.Handle(func(_ context.Context, _ Addr, req any) (any, error) {
		time.Sleep(600 * time.Millisecond) // 4x the idle horizon
		return tcpBinPong{Value: req.(tcpBinPing).Value + 1}, nil
	})
	client, err := ListenTCPOptions("127.0.0.1:0", TCPOptions{IdleTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := client.Call(ctx, server.Addr(), tcpBinPing{Value: 1})
	if err != nil {
		t.Fatalf("long handler over short idle timeout: %v", err)
	}
	if resp.(tcpBinPong).Value != 2 {
		t.Errorf("resp = %v", resp)
	}
}

// TestTCPIdleConnectionReclaimed checks the other side of the idle
// watchdog: a pooled connection with nothing in flight is closed after the
// idle horizon, and the next call transparently redials.
func TestTCPIdleConnectionReclaimed(t *testing.T) {
	server, client := startPairOptions(t, TCPOptions{IdleTimeout: 100 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := client.Call(ctx, server.Addr(), tcpBinPing{Value: 1}); err != nil {
		t.Fatal(err)
	}
	client.pool.mu.Lock()
	ent := client.pool.entries[server.Addr()]
	client.pool.mu.Unlock()
	ent.mu.Lock()
	pc := ent.pc
	ent.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for !pc.isClosed() && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if !pc.isClosed() {
		t.Fatal("idle pooled connection was not reclaimed")
	}
	// The next call must succeed on a fresh connection.
	if _, err := client.Call(ctx, server.Addr(), tcpBinPing{Value: 2}); err != nil {
		t.Fatalf("call after idle reclaim: %v", err)
	}
}

func TestTCPCallTimeoutConfigurable(t *testing.T) {
	server, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	block := make(chan struct{})
	defer close(block)
	server.Handle(func(context.Context, Addr, any) (any, error) {
		<-block
		return tcpPong{}, nil
	})
	client, err := ListenTCPOptions("127.0.0.1:0", TCPOptions{CallTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	start := time.Now()
	_, callErr := client.Call(context.Background(), server.Addr(), tcpPing{})
	if callErr == nil {
		t.Fatal("expected timeout error")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("configured call timeout not honoured: took %v", d)
	}
}

// TestTCPOptionsNormalized pins the defaults and clamps ListenTCPOptions
// applies once, when the endpoint is built.
func TestTCPOptionsNormalized(t *testing.T) {
	defaults := TCPOptions{
		DialTimeout: DefaultDialTimeout,
		CallTimeout: DefaultCallTimeout,
		IdleTimeout: DefaultIdleTimeout,
		FrameLimit:  maxFrame,
		MaxMessage:  DefaultMaxMessage,
	}
	with := func(f func(*TCPOptions)) TCPOptions {
		o := defaults
		f(&o)
		return o
	}
	for _, tc := range []struct {
		name string
		in   TCPOptions
		want TCPOptions
	}{
		{"zero", TCPOptions{}, defaults},
		{"negative", TCPOptions{DialTimeout: -1, CallTimeout: -1, IdleTimeout: -1, FrameLimit: -1, MaxMessage: -1}, defaults},
		{"set", TCPOptions{DialTimeout: time.Second, CallTimeout: 2 * time.Second, IdleTimeout: 3 * time.Second, FrameLimit: 4096, MaxMessage: 1 << 20},
			TCPOptions{DialTimeout: time.Second, CallTimeout: 2 * time.Second, IdleTimeout: 3 * time.Second, FrameLimit: 4096, MaxMessage: 1 << 20}},
		{"frame below floor", TCPOptions{FrameLimit: 100}, with(func(o *TCPOptions) { o.FrameLimit = 512 })},
		{"frame at floor", TCPOptions{FrameLimit: 512}, with(func(o *TCPOptions) { o.FrameLimit = 512 })},
		{"frame above cap", TCPOptions{FrameLimit: maxFrame + 1}, defaults},
	} {
		if got := tc.in.normalize(); got != tc.want {
			t.Errorf("%s: normalize(%+v) = %+v, want %+v", tc.name, tc.in, got, tc.want)
		}
	}
	ep, err := ListenTCPOptions("127.0.0.1:0", TCPOptions{FrameLimit: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if want := with(func(o *TCPOptions) { o.FrameLimit = 512 }); ep.opts != want {
		t.Errorf("ListenTCPOptions kept %+v, want %+v", ep.opts, want)
	}
}

func TestReadFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := readFrame(&buf); err == nil {
		t.Error("expected error for oversized frame")
	}
}

func TestRemoteErrorMessage(t *testing.T) {
	e := &RemoteError{Msg: "x"}
	if !strings.Contains(e.Error(), "x") {
		t.Error("error message should contain cause")
	}
}

// TestBinaryCodecRoundTrip round-trips the standalone binary codec helpers,
// including a fragmented encoding.
func TestBinaryCodecRoundTrip(t *testing.T) {
	msg := tcpBinPing{Value: 77, Note: strings.Repeat("x", 5000)}
	for _, limit := range []int{0, 600} {
		data, err := EncodeMessageBinary("bin-test", msg, limit)
		if err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		from, payload, err := DecodeMessageBinary(data)
		if err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		if from != "bin-test" {
			t.Errorf("limit %d: from = %q", limit, from)
		}
		if got := payload.(tcpBinPing); got != msg {
			t.Errorf("limit %d: round trip mismatch", limit)
		}
	}
}

// TestSimTCPByteParity checks that the two transports count the same bytes
// for the same call: the body lengths of the request and response frames
// EncodeMessageBinary builds, under the request's type, at the caller only.
func TestSimTCPByteParity(t *testing.T) {
	bodyLen := func(v any) int64 {
		t.Helper()
		frame, err := EncodeMessageBinary("x", v, 0)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := parseBinFrame(frame[frameHeaderLen:])
		if err != nil {
			t.Fatal(err)
		}
		return int64(len(fr.body))
	}
	req := tcpBinPing{Value: 21, Note: "parity"}
	want := map[string]int64{"test.binping": bodyLen(req) + bodyLen(tcpBinPong{Value: 42, Note: "parity"})}

	server, client := startPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := client.Call(ctx, server.Addr(), req); err != nil {
		t.Fatal(err)
	}
	sim := NewSim(SimConfig{})
	a := sim.Endpoint("a")
	b := sim.Endpoint("b")
	b.Handle(doublingHandler)
	if _, err := a.Call(ctx, "b", req); err != nil {
		t.Fatal(err)
	}
	for name, ep := range map[string]Transport{"tcp client": client, "sim caller": a} {
		if got := ep.BytesByType(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s counted %v, want %v", name, got, want)
		}
	}
	for name, ep := range map[string]Transport{"tcp server": server, "sim callee": b} {
		if got := ep.BytesByType(); len(got) != 0 {
			t.Errorf("%s counted %v, want nothing", name, got)
		}
	}
}
