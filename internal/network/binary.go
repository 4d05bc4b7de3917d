package network

// This file implements the binary wire protocol of the pooled TCP transport:
// the per-frame envelope, fragmentation of messages larger than one frame,
// and the translation between registered payload values and frame bodies.
//
// Every frame is a 4-byte big-endian length prefix plus a payload:
//
//	byte 0: magicBinary
//	byte 1: flags (fResp/fErr/fMore/fFrag)
//	uvarint: message id (request/response correlation on multiplexed conns)
//	-- first frame of a message only (fFrag clear):
//	string:  sender address
//	string:  registered payload type name ("" for error responses)
//	-- all frames:
//	rest:    body bytes (or the next body fragment when fFrag is set)
//
// A message whose encoded body exceeds the frame limit is split into one
// first frame plus continuation fragments (fFrag), all but the last carrying
// fMore; the receiver reassembles them per id up to MaxMessage. This is what
// lets anti-entropy ship a rebuild image larger than one frame.
//
// The body is the message's wire encoding, by the codec RegisterType
// derived from its type (wire.Compile).

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pgrid/internal/wire"
)

// magicBinary is the first payload byte of every frame and doubles as the
// protocol version: a frame that opens with anything else is a protocol
// violation and closes the connection.
const magicBinary = 0xBF

// Frame flags.
const (
	// fResp marks a response frame (requests have the bit clear).
	fResp byte = 1 << 0
	// fErr marks an error response: the body is the error string.
	fErr byte = 1 << 1
	// fMore announces further fragments of the same message id.
	fMore byte = 1 << 2
	// fFrag marks a continuation fragment: the payload after the id is raw
	// body bytes (no sender/type header).
	fFrag byte = 1 << 3
)

// maxPartialAssemblies bounds how many fragmented messages one connection
// may have in flight, so a misbehaving peer cannot grow the reassembly map
// without bound.
const maxPartialAssemblies = 64

// errBinaryProtocol reports a malformed binary frame; the connection is
// beyond recovery and gets closed.
var errBinaryProtocol = errors.New("network: binary protocol violation")

// binFrame is one parsed binary frame.
type binFrame struct {
	flags byte
	id    uint64
	from  Addr
	typ   string
	body  []byte
}

// parseBinFrame decodes one frame payload.
func parseBinFrame(payload []byte) (binFrame, error) {
	if len(payload) < 2 || payload[0] != magicBinary {
		return binFrame{}, errBinaryProtocol
	}
	fr := binFrame{flags: payload[1]}
	d := wire.NewDecoder(payload[2:])
	fr.id = d.Uvarint()
	if fr.flags&fFrag == 0 {
		fr.from = Addr(d.String())
		fr.typ = d.String()
	}
	fr.body = d.Rest()
	if d.Err() != nil {
		return binFrame{}, fmt.Errorf("%w: %v", errBinaryProtocol, d.Err())
	}
	return fr, nil
}

// binMsg is one fully reassembled message.
type binMsg struct {
	flags byte
	id    uint64
	from  Addr
	typ   string
	body  []byte
}

// fragAssembler reassembles fragmented messages per id. One assembler
// serves one connection direction; it is used from that connection's single
// read loop, so it needs no locking. Buffered memory is bounded twice:
// per message by max, and in *total* across all partial assemblies by the
// same max — so one connection can never hold more than one
// maximum-message's worth of reassembly state, no matter how many ids a
// misbehaving peer interleaves.
type fragAssembler struct {
	max     int
	total   int
	partial map[uint64]*binMsg
}

func newFragAssembler(maxMessage int) *fragAssembler {
	return &fragAssembler{max: maxMessage, partial: make(map[uint64]*binMsg)}
}

// add consumes one frame and returns the completed message, or nil when
// more fragments are outstanding.
func (a *fragAssembler) add(fr binFrame) (*binMsg, error) {
	if fr.flags&fFrag != 0 {
		m, ok := a.partial[fr.id]
		if !ok {
			return nil, fmt.Errorf("%w: fragment for unknown message %d", errBinaryProtocol, fr.id)
		}
		if len(m.body)+len(fr.body) > a.max || a.total+len(fr.body) > a.max {
			a.drop(fr.id)
			return nil, fmt.Errorf("%w: reassembly exceeds %d bytes", errBinaryProtocol, a.max)
		}
		m.body = append(m.body, fr.body...)
		a.total += len(fr.body)
		if fr.flags&fMore != 0 {
			return nil, nil
		}
		a.drop(fr.id)
		return m, nil
	}
	if len(fr.body) > a.max {
		return nil, fmt.Errorf("%w: message exceeds %d bytes", errBinaryProtocol, a.max)
	}
	m := &binMsg{flags: fr.flags &^ fMore, id: fr.id, from: fr.from, typ: fr.typ, body: fr.body}
	if fr.flags&fMore != 0 {
		if len(a.partial) >= maxPartialAssemblies || a.total+len(fr.body) > a.max {
			return nil, fmt.Errorf("%w: too many fragmented messages in flight", errBinaryProtocol)
		}
		a.partial[fr.id] = m
		a.total += len(fr.body)
		return nil, nil
	}
	return m, nil
}

// drop forgets a partial assembly and releases its byte accounting.
func (a *fragAssembler) drop(id uint64) {
	if m, ok := a.partial[id]; ok {
		a.total -= len(m.body)
		delete(a.partial, id)
	}
}

// bodyPool recycles message-body encode buffers across calls on the hot
// binary transport path, so a busy endpoint stops allocating one body per
// message. Callers take a buffer with getBodyBuf, encode into it, and hand
// it back with putBodyBuf once the transport has copied the bytes onto the
// wire (writeMsg assembles frames into its own scratch, so the body is
// never retained past the write).
var bodyPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4<<10)
		return &b
	},
}

// bodyPoolMaxCap bounds what a returned buffer may retain: one oversized
// transfer must not pin megabytes inside the pool forever.
const bodyPoolMaxCap = 1 << 20

func getBodyBuf() *[]byte { return bodyPool.Get().(*[]byte) }

func putBodyBuf(b *[]byte, body []byte) {
	// Keep the encode buffer the codec grew.
	if cap(body) > cap(*b) && cap(body) <= bodyPoolMaxCap {
		*b = body[:0]
	}
	if cap(*b) <= bodyPoolMaxCap {
		bodyPool.Put(b)
	}
}

// encodeBinBody appends a registered payload value's wire encoding to dst
// (pass nil to allocate) and returns it with the type's registered name.
func encodeBinBody(dst []byte, v any) (name string, body []byte, err error) {
	r := lookupValue(v)
	if r.codec == nil {
		return "", nil, fmt.Errorf("network: payload type %T not registered", v)
	}
	return r.name, r.codec.Append(dst, v), nil
}

// decodeBinBody reconstructs the payload value of a frame body.
func decodeBinBody(typ string, body []byte) (any, error) {
	codec, ok := lookupCodec(typ)
	if !ok {
		return nil, fmt.Errorf("network: unknown payload type %q", typ)
	}
	v, err := codec.Decode(body)
	if err != nil {
		return nil, fmt.Errorf("network: decode payload %q: %w", typ, err)
	}
	return v, nil
}

// binFrameIter yields the frame sequence of one message: a first frame
// carrying the envelope header, plus as many continuation fragments as the
// body needs under the frame limit. It is the single definition of the
// fragmentation algorithm — both the standalone encoder (appendBinFrames,
// which feeds the golden vectors and fuzz corpora) and the live transport
// writer (frameWriter.writeMsg) consume it, so the tested framing and the
// on-the-wire framing can never diverge.
type binFrameIter struct {
	flags     byte
	id        uint64
	from      Addr
	typ       string
	remaining []byte
	limit     int
	first     bool
	done      bool
}

func newBinFrameIter(flags byte, id uint64, from Addr, typ string, body []byte, limit int) *binFrameIter {
	if limit <= 0 || limit > maxFrame {
		limit = maxFrame
	}
	return &binFrameIter{flags: flags, id: id, from: from, typ: typ, remaining: body, limit: limit, first: true}
}

// next appends the next complete frame (4-byte length prefix included) to
// dst and reports whether more frames follow. It must not be called again
// after more=false.
func (it *binFrameIter) next(dst []byte) (out []byte, more bool, err error) {
	// The header is assembled on the stack (appendFrame copies it into dst,
	// so it never escapes); append still grows it onto the heap in the rare
	// case an address + type name exceeds the array.
	var hdrArr [64]byte
	hdr := hdrArr[:0]
	hdr = append(hdr, magicBinary, 0)
	hdr = wire.AppendUvarint(hdr, it.id)
	if it.first {
		hdr = wire.AppendString(hdr, string(it.from))
		hdr = wire.AppendString(hdr, it.typ)
	}
	chunk := len(it.remaining)
	if len(hdr)+chunk > it.limit {
		chunk = it.limit - len(hdr)
		if chunk <= 0 {
			return nil, false, fmt.Errorf("network: frame limit %d too small for message header", it.limit)
		}
	}
	fl := it.flags
	if !it.first {
		fl |= fFrag
	}
	if chunk < len(it.remaining) {
		fl |= fMore
	}
	hdr[1] = fl
	out, err = appendFrame(dst, hdr, it.remaining[:chunk])
	if err != nil {
		return nil, false, err
	}
	it.remaining = it.remaining[chunk:]
	it.first = false
	it.done = fl&fMore == 0
	return out, !it.done, nil
}

// appendBinFrames appends the complete frame sequence of one message to
// dst.
func appendBinFrames(dst []byte, flags byte, id uint64, from Addr, typ string, body []byte, limit int) ([]byte, error) {
	it := newBinFrameIter(flags, id, from, typ, body, limit)
	for {
		var err error
		var more bool
		dst, more, err = it.next(dst)
		if err != nil {
			return nil, err
		}
		if !more {
			return dst, nil
		}
	}
}

// maxConcurrentFragmented bounds how many fragmented (multi-frame)
// messages one connection writes concurrently. One at a time guarantees a
// correct sender never exceeds the receiver's *total* reassembly byte
// budget (which equals the single-message cap): large transfers queue
// behind each other, while single-frame messages skip the semaphore
// entirely and interleave between a large transfer's fragments.
const maxConcurrentFragmented = 1

// frameWriter serialises frame writes onto one connection. The lock is
// held per *frame*, not per message, so fragments of concurrent large
// messages interleave on the wire (the receiver reassembles by id) and a
// single oversized transfer cannot head-of-line-block every other message
// on the connection. Per-frame write deadlines — capped by the writing
// call's context deadline — keep a dead peer from blocking a writer
// forever, and every completed write refreshes the activity clock the idle
// watchdog reads.
type frameWriter struct {
	mu           sync.Mutex
	conn         net.Conn
	bw           *bufio.Writer
	writeTimeout time.Duration
	activity     *atomic.Int64
	scratch      []byte
	fragSem      chan struct{}
}

func newFrameWriter(conn net.Conn, writeTimeout time.Duration, activity *atomic.Int64) *frameWriter {
	return &frameWriter{
		conn:         conn,
		bw:           bufio.NewWriterSize(conn, 32<<10),
		writeTimeout: writeTimeout,
		activity:     activity,
		fragSem:      make(chan struct{}, maxConcurrentFragmented),
	}
}

// writeMsg writes one message as its frame sequence and flushes. Each frame
// is assembled into the reusable scratch buffer and handed to the buffered
// writer as a single Write, so scratch memory stays bounded by the frame
// limit no matter how large the message is.
//
// The write deadline is refreshed per frame — a fragmented transfer larger
// than one idle window survives as long as frames keep moving — and capped
// by the caller's context deadline, so a short-deadline call writing to a
// stuck peer fails on time (killing the shared connection, which the pool
// replaces) instead of blocking for the full write timeout.
func (fw *frameWriter) writeMsg(ctx context.Context, flags byte, id uint64, from Addr, typ string, body []byte, limit int) error {
	ctxDeadline, hasCtxDeadline := time.Time{}, false
	if ctx != nil {
		ctxDeadline, hasCtxDeadline = ctx.Deadline()
	}
	if limit <= 0 || limit > maxFrame {
		limit = maxFrame
	}
	// A message that will fragment takes a slot in the fragmented-message
	// semaphore first, so concurrent large transfers never exceed the
	// receiver's partial-assembly limits (the slight overestimate of the
	// header size errs toward taking a slot unnecessarily, which is
	// harmless).
	if len(body)+len(from)+len(typ)+32 > limit {
		var done <-chan struct{}
		if ctx != nil {
			done = ctx.Done()
		}
		select {
		case fw.fragSem <- struct{}{}:
			defer func() { <-fw.fragSem }()
		case <-done:
			return ctx.Err()
		}
	}
	it := newBinFrameIter(flags, id, from, typ, body, limit)
	for {
		fw.mu.Lock()
		dl := time.Now().Add(fw.writeTimeout)
		if hasCtxDeadline && ctxDeadline.Before(dl) {
			dl = ctxDeadline
		}
		_ = fw.conn.SetWriteDeadline(dl)
		frame, more, err := it.next(fw.scratch[:0])
		if err != nil {
			fw.mu.Unlock()
			return err
		}
		fw.scratch = frame[:0]
		if _, err := fw.bw.Write(frame); err != nil {
			fw.mu.Unlock()
			return err
		}
		if !more {
			// Keep the retained scratch modest: one oversized transfer
			// should not pin a frame-limit-sized buffer forever.
			if cap(fw.scratch) > 64<<10 {
				fw.scratch = nil
			}
			err := fw.bw.Flush()
			fw.mu.Unlock()
			if err != nil {
				return err
			}
			fw.touch()
			return nil
		}
		fw.mu.Unlock()
		fw.touch()
	}
}

func (fw *frameWriter) touch() {
	if fw.activity != nil {
		fw.activity.Store(time.Now().UnixNano())
	}
}

// connWatchdog closes the connection once it has been idle — no bytes read
// or written, no requests in flight — for the idle timeout. A pooled
// connection stays alive as long as it is useful, and a legitimately long
// transfer or handler keeps it open because activity and in-flight tracking
// are refreshed per frame.
func connWatchdog(conn net.Conn, idle time.Duration, activity, inflight *atomic.Int64, done <-chan struct{}) {
	tick := idle / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
			if inflight.Load() > 0 {
				continue
			}
			if time.Since(time.Unix(0, activity.Load())) >= idle {
				_ = conn.Close()
				return
			}
		}
	}
}
