package network

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// LatencyModel produces a one-way message delay for a (from, to) pair.
type LatencyModel func(from, to Addr, r *rand.Rand) time.Duration

// ConstantLatency returns a model with a fixed one-way delay.
func ConstantLatency(d time.Duration) LatencyModel {
	return func(Addr, Addr, *rand.Rand) time.Duration { return d }
}

// PlanetLabLatency mimics the widely varying delays observed on the shared
// PlanetLab testbed: a base delay plus heavy-tailed jitter.
func PlanetLabLatency(base time.Duration) LatencyModel {
	return func(_, _ Addr, r *rand.Rand) time.Duration {
		// Exponential jitter with mean equal to the base produces the long
		// tail responsible for the high absolute latencies of Figure 9.
		jitter := time.Duration(r.ExpFloat64() * float64(base))
		return base/2 + jitter
	}
}

// ServiceModel parameterises receiver-side processing capacity: each
// delivered request occupies the destination endpoint for
// Fixed + PerByte*(encoded request + response bytes) of virtual service
// time, and requests queue FIFO while the endpoint is busy. This is what
// makes load matter in the simulation — a hot endpoint's queue grows with
// sustained traffic, so skewed workloads inflate tail latency the way a
// saturated real server would. The zero value disables the model entirely
// (no behaviour change for latency-only simulations).
type ServiceModel struct {
	// Fixed is the per-request processing cost regardless of size.
	Fixed time.Duration
	// PerByte is the additional cost per encoded body byte of request plus
	// response.
	PerByte time.Duration
}

// Enabled reports whether the model imposes any cost.
func (m ServiceModel) Enabled() bool { return m.Fixed > 0 || m.PerByte > 0 }

// SimConfig parameterises a simulated network.
type SimConfig struct {
	// Latency is the one-way delay model; nil means no delay.
	Latency LatencyModel
	// LossProbability is the probability that a request or a response is
	// dropped (each direction independently).
	LossProbability float64
	// Seed drives the network's internal randomness.
	Seed int64
	// TimeScale divides all delays, letting experiments replay the paper's
	// multi-hour timeline in seconds of wall-clock time (e.g. a TimeScale
	// of 600 turns 10 minutes into one second). Zero or negative means 1.
	TimeScale float64
	// Service models receiver-side processing capacity and queueing, charged
	// per encoded request + response byte; the zero value disables it.
	Service ServiceModel
}

// Sim is an in-process network connecting any number of endpoints. It is
// safe for concurrent use.
type Sim struct {
	cfg SimConfig

	mu        sync.RWMutex
	endpoints map[Addr]*SimEndpoint
	rng       *rand.Rand
	rngMu     sync.Mutex

	// Calls tracks the calls currently in flight across the whole network
	// and their high-water mark (how much the concurrent query engine
	// actually overlaps).
	Calls InFlightGauge

	// loss is the message-loss probability; unlike the rest of the config
	// it may be changed while the network is running (tests flip loss on
	// after constructing an overlay), so it is guarded separately.
	lossMu sync.RWMutex
	loss   float64
}

// NewSim creates a simulated network.
func NewSim(cfg SimConfig) *Sim {
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1
	}
	return &Sim{
		cfg:       cfg,
		endpoints: make(map[Addr]*SimEndpoint),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		loss:      cfg.LossProbability,
	}
}

// SetLoss changes the message-loss probability of the running network
// (each direction is still dropped independently).
func (s *Sim) SetLoss(p float64) {
	s.lossMu.Lock()
	s.loss = p
	s.lossMu.Unlock()
}

// SimEndpoint is one peer's endpoint on a simulated network.
type SimEndpoint struct {
	net  *Sim
	addr Addr

	mu      sync.RWMutex
	handler Handler
	online  bool
	closed  bool

	// bytes counts the calls this endpoint made (BytesByType). The endpoint
	// outlives any peer bound to it, so a restarted peer keeps counting on.
	bytes callBytes

	// svcMu guards busyUntil, the virtual-FIFO service queue horizon used
	// by SimConfig.Service: a request delivered while the endpoint is busy
	// waits until every earlier request's service time has elapsed.
	svcMu     sync.Mutex
	busyUntil time.Time
}

// reserve books d of service time on the endpoint's virtual FIFO queue and
// returns how long the caller must wait before its request is processed
// (queue backlog plus its own service time).
func (e *SimEndpoint) reserve(now time.Time, d time.Duration) time.Duration {
	e.svcMu.Lock()
	defer e.svcMu.Unlock()
	start := e.busyUntil
	if start.Before(now) {
		start = now
	}
	e.busyUntil = start.Add(d)
	return e.busyUntil.Sub(now)
}

// Endpoint creates (or returns) the endpoint with the given address. New
// endpoints start online.
func (s *Sim) Endpoint(addr Addr) *SimEndpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ep, ok := s.endpoints[addr]; ok {
		return ep
	}
	ep := &SimEndpoint{net: s, addr: addr, online: true}
	s.endpoints[addr] = ep
	return ep
}

// Lookup returns the endpoint for addr, or nil if it does not exist.
func (s *Sim) Lookup(addr Addr) *SimEndpoint {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.endpoints[addr]
}

// Addrs returns the addresses of all endpoints ever created.
func (s *Sim) Addrs() []Addr {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Addr, 0, len(s.endpoints))
	for a := range s.endpoints {
		out = append(out, a)
	}
	return out
}

// SetOnline switches an endpoint online or offline (churn). Calls to or
// from an offline endpoint fail with ErrUnreachable.
func (s *Sim) SetOnline(addr Addr, online bool) {
	if ep := s.Lookup(addr); ep != nil {
		ep.mu.Lock()
		ep.online = online
		ep.mu.Unlock()
	}
}

// OnlineCount returns the number of endpoints currently online.
func (s *Sim) OnlineCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, ep := range s.endpoints {
		ep.mu.RLock()
		if ep.online && !ep.closed {
			n++
		}
		ep.mu.RUnlock()
	}
	return n
}

// random runs f under the network's RNG lock (rand.Rand is not safe for
// concurrent use).
func (s *Sim) random(f func(r *rand.Rand)) {
	s.rngMu.Lock()
	f(s.rng)
	s.rngMu.Unlock()
}

// delay returns the scaled one-way latency for a message.
func (s *Sim) delay(from, to Addr) time.Duration {
	if s.cfg.Latency == nil {
		return 0
	}
	var d time.Duration
	s.random(func(r *rand.Rand) { d = s.cfg.Latency(from, to, r) })
	return time.Duration(float64(d) / s.cfg.TimeScale)
}

// lost reports whether a message is dropped.
func (s *Sim) lost() bool {
	s.lossMu.RLock()
	p := s.loss
	s.lossMu.RUnlock()
	if p <= 0 {
		return false
	}
	var l bool
	s.random(func(r *rand.Rand) { l = r.Float64() < p })
	return l
}

// Addr implements Transport.
func (e *SimEndpoint) Addr() Addr { return e.addr }

// Handle implements Transport.
func (e *SimEndpoint) Handle(h Handler) {
	e.mu.Lock()
	e.handler = h
	e.mu.Unlock()
}

// Online reports whether the endpoint is currently online.
func (e *SimEndpoint) Online() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.online && !e.closed
}

// Close implements Transport.
func (e *SimEndpoint) Close() error {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	return nil
}

// BytesByType implements Transport.
func (e *SimEndpoint) BytesByType() map[string]int64 { return e.bytes.snapshot() }

// transcode carries v across the simulated wire: it encodes v into a pooled
// body buffer exactly as a TCP frame body, and decodes the receiver's copy
// from it, so caller and callee never share a slice. Recycling the buffer
// right after the decode is safe because the decoded value holds none of
// its bytes — every overlay codec reads strings through
// wire.Decoder.String, which copies.
func transcode(v any) (typ string, size int, out any, err error) {
	bp := getBodyBuf()
	typ, body, err := encodeBinBody((*bp)[:0], v)
	if err == nil {
		out, err = decodeBinBody(typ, body)
	}
	putBodyBuf(bp, body)
	return typ, len(body), out, err
}

// Call implements Transport: it delivers the decoded request to the
// destination endpoint's handler after the simulated latency and returns the
// decoded response after the return latency. An unregistered request type
// fails here exactly as it does on TCP.
func (e *SimEndpoint) Call(ctx context.Context, to Addr, req any) (any, error) {
	if !e.Online() {
		return nil, ErrClosed
	}
	e.net.Calls.enter()
	defer e.net.Calls.exit()
	typ, reqSize, delivered, err := transcode(req)
	if err != nil {
		return nil, err
	}
	dst := e.net.Lookup(to)
	if dst == nil {
		return nil, ErrUnreachable
	}
	e.bytes.add(typ, reqSize)

	if err := sleepCtx(ctx, e.net.delay(e.addr, to)); err != nil {
		return nil, err
	}
	if e.net.lost() {
		return nil, ErrUnreachable
	}
	dst.mu.RLock()
	handler := dst.handler
	online := dst.online && !dst.closed
	dst.mu.RUnlock()
	if !online {
		return nil, ErrUnreachable
	}
	if handler == nil {
		return nil, ErrNoHandler
	}
	// Receiver-side service queue: the request waits behind everything the
	// destination is already processing, then occupies it for its own
	// processing cost. This is what lets skewed workloads saturate a hot
	// peer in simulation.
	svc := e.net.cfg.Service
	if svc.Enabled() {
		cost := svc.Fixed + svc.PerByte*time.Duration(reqSize)
		wait := dst.reserve(time.Now(), time.Duration(float64(cost)/e.net.cfg.TimeScale))
		if err := sleepCtx(ctx, wait); err != nil {
			return nil, err
		}
	}
	resp, err := handler(ctx, e.addr, delivered)
	if err != nil {
		return nil, &RemoteError{Msg: err.Error()}
	}
	// A response the responder cannot encode fails remotely, as on TCP.
	_, respSize, answer, err := transcode(resp)
	if err != nil {
		return nil, &RemoteError{Msg: err.Error()}
	}

	// The response's bytes occupy the responder too (serialisation and
	// upstream bandwidth): large answers make a hot peer slower for
	// everyone, tiny probe responses barely register.
	if svc.Enabled() && respSize > 0 {
		cost := svc.PerByte * time.Duration(respSize)
		wait := dst.reserve(time.Now(), time.Duration(float64(cost)/e.net.cfg.TimeScale))
		if err := sleepCtx(ctx, wait); err != nil {
			return nil, err
		}
	}

	if err := sleepCtx(ctx, e.net.delay(to, e.addr)); err != nil {
		return nil, err
	}
	if e.net.lost() {
		return nil, ErrUnreachable
	}
	if !e.Online() {
		return nil, ErrClosed
	}
	e.bytes.add(typ, respSize)
	return answer, nil
}

// sleepCtx sleeps for d or until the context is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
