// Package gate is the overlay's HTTP front door: a thin service layer that
// exposes exact-match, range and batch queries plus routed inserts and
// deletes over JSON/HTTP, in front of either a peer in the same process
// (PeerBackend) or a set of remote peers spoken to over the wire protocol
// (RemoteBackend). A RemoteBackend knows the partition path of each of
// its entry peers, from a probe at its first request and from its answers,
// and sends each search, range, insert and delete straight to a peer of
// the partition that owns its key; only batches and keys no known path
// covers rotate over the entry peers. It never calls a peer outside its
// configured entry set.
//
// The layer owns the three production concerns the overlay itself does not:
//
//   - Backpressure. A fixed-size in-flight semaphore admits at most
//     MaxInFlight API requests; excess load is shed immediately with
//     429 + Retry-After instead of queueing unboundedly, so a traffic spike
//     degrades into fast rejections rather than collapsing latency for
//     everyone.
//   - Deadlines. Every request runs under a per-request context deadline
//     that propagates into the overlay's α-raced routing, so a stuck route
//     costs the client at most RequestTimeout and surfaces as 504.
//   - Observability. Per-route status and latency counters plus the
//     backend peer's protocol counters and replication gauges are exported
//     in Prometheus text format on /metrics; /healthz reports liveness and
//     /readyz readiness, which Drain flips ahead of shutdown so load
//     balancers stop routing while in-flight requests finish.
//
// Routes:
//
//	GET    /v1/search/{key}        exact-match lookup (?consistent=1 bypasses caches)
//	GET    /v1/range?lo=&hi=       range query (hi omitted = unbounded)
//	POST   /v1/batch               {"keys": [...]} batch lookup
//	PUT    /v1/items/{key}         {"value": ...} routed insert
//	DELETE /v1/items/{key}?value=  routed delete
//	GET    /healthz, /readyz, /metrics
//
// Keys are UTF-8 terms by default, order-preservingly encoded like
// pgrid.StringKey; ?enc=bits switches to raw "0101..." bit-string keys.
//
// Search answers carry an X-Pgrid-Cache header telling how the read was
// served: "hit" (a peer's query-path answer cache, revalidated against the
// partition's logical clock), "miss" (routed normally, cache-eligible) or
// "bypass" (?consistent=1 forced routing). Consistent reads cost the full
// route but are never served from any cache.
//
// Every failure returns the JSON error envelope
//
//	{"error": {"code": "...", "message": "..."}}
//
// with a stable machine-readable code alongside the HTTP status:
// bad_request (400), not_found (404), overloaded (429, shed by the
// concurrency limiter), unavailable (503, overlay unreachable or write
// quorum missed), timeout (504, deadline exceeded mid-route) and internal
// (500).
package gate

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pgrid/internal/keyspace"
	"pgrid/internal/overlay"
	"pgrid/internal/replication"
)

// Defaults of Config.
const (
	// DefaultRequestTimeout is the default per-request deadline.
	DefaultRequestTimeout = 5 * time.Second
	// DefaultMaxInFlight is the default concurrency limit.
	DefaultMaxInFlight = 256
	// DefaultMaxBatchKeys bounds the keys accepted by one /v1/batch call.
	DefaultMaxBatchKeys = 1024
	// DefaultMaxBodyBytes bounds request bodies.
	DefaultMaxBodyBytes = 1 << 20
)

// Config parameterises a Server.
type Config struct {
	// Backend serves the overlay operations. Required.
	Backend Backend
	// RequestTimeout is the per-request deadline propagated into the
	// overlay's routing as a context deadline (0 = DefaultRequestTimeout).
	RequestTimeout time.Duration
	// MaxInFlight bounds concurrently served API requests; excess requests
	// are shed with 429 + Retry-After (0 = DefaultMaxInFlight).
	MaxInFlight int
	// MaxBatchKeys bounds the keys of one batch request (0 = default).
	MaxBatchKeys int
	// MaxBodyBytes bounds request bodies (0 = default).
	MaxBodyBytes int64
	// KeyDepth is the bit depth for term-encoded keys (0 = default).
	KeyDepth int
}

// normalize fills in defaults.
func (c Config) normalize() Config {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = DefaultMaxInFlight
	}
	if c.MaxBatchKeys <= 0 {
		c.MaxBatchKeys = DefaultMaxBatchKeys
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.KeyDepth <= 0 {
		c.KeyDepth = keyspace.DefaultDepth
	}
	return c
}

// Server is the HTTP front door. Create it with New, mount Handler on an
// http.Server, and call Drain before shutting that server down.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	sem     chan struct{}
	metrics *gateMetrics

	ready    atomic.Bool
	inflight sync.WaitGroup
}

// New creates a Server over the given backend. The server starts ready.
func New(cfg Config) *Server {
	cfg = cfg.normalize()
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		sem:     make(chan struct{}, cfg.MaxInFlight),
		metrics: newGateMetrics(),
	}
	s.ready.Store(true)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.Handle("GET /v1/search/{key}", s.api("search", s.handleSearch))
	s.mux.Handle("GET /v1/range", s.api("range", s.handleRange))
	s.mux.Handle("POST /v1/batch", s.api("batch", s.handleBatch))
	s.mux.Handle("PUT /v1/items/{key}", s.api("insert", s.handleInsert))
	s.mux.Handle("DELETE /v1/items/{key}", s.api("delete", s.handleDelete))
	return s
}

// Handler returns the http.Handler serving all routes.
func (s *Server) Handler() http.Handler { return s.mux }

// Ready reports whether the server currently advertises readiness.
func (s *Server) Ready() bool { return s.ready.Load() }

// Drain initiates graceful shutdown: /readyz flips to 503 immediately (so
// load balancers stop routing new traffic here), and Drain blocks until
// every in-flight API request has finished or ctx expires. Close the HTTP
// listener after Drain returns; new requests arriving while draining are
// still served normally.
func (s *Server) Drain(ctx context.Context) error {
	s.ready.Store(false)
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("gate: drain aborted with requests in flight: %w", ctx.Err())
	}
}

// errorBody is the machine-readable error payload of the envelope.
type errorBody struct {
	// Code is a stable slug clients can branch on (bad_request, not_found,
	// overloaded, unavailable, timeout, internal).
	Code string `json:"code"`
	// Message is the human-readable detail.
	Message string `json:"message"`
}

// errorResponse is the JSON error envelope every failing route returns.
type errorResponse struct {
	Error errorBody `json:"error"`
}

// errEnvelope builds the envelope for one status/message pair.
func errEnvelope(status int, msg string) errorResponse {
	return errorResponse{Error: errorBody{Code: codeFor(status), Message: msg}}
}

// codeFor maps an HTTP status to the envelope's stable error code.
func codeFor(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusTooManyRequests:
		return "overloaded"
	case http.StatusServiceUnavailable:
		return "unavailable"
	case http.StatusGatewayTimeout:
		return "timeout"
	default:
		return "internal"
	}
}

// itemJSON is one (key, value) pair on the wire.
type itemJSON struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

func itemsJSON(items []replication.Item) []itemJSON {
	out := make([]itemJSON, len(items))
	for i, it := range items {
		out[i] = itemJSON{Key: it.Key.String(), Value: it.Value}
	}
	return out
}

// badRequestError marks client errors that map to 400.
type badRequestError struct{ msg string }

func (e badRequestError) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return badRequestError{msg: fmt.Sprintf(format, args...)}
}

// statusFor maps a backend error to its HTTP status: the error
// classification that used to collapse into a generic 500.
func statusFor(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.As(err, &badRequestError{}):
		return http.StatusBadRequest
	case errors.Is(err, overlay.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, overlay.ErrNoQuorum):
		return http.StatusServiceUnavailable
	case errors.Is(err, overlay.ErrUnreachable):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// api wraps an operation handler with the service-layer concerns: the
// in-flight semaphore (shedding with 429 + Retry-After when full), the
// per-request deadline, drain tracking, JSON rendering and the per-route
// metrics. Handlers receive the ResponseWriter only to set response
// headers (e.g. X-Pgrid-Cache); the wrapper owns status and body.
func (s *Server) api(route string, fn func(w http.ResponseWriter, r *http.Request) (any, error)) http.Handler {
	rs := s.metrics.route(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		select {
		case s.sem <- struct{}{}:
		default:
			// Shed immediately: a full semaphore means MaxInFlight requests
			// are already being served, and queueing here would just build
			// an unbounded convoy of doomed requests.
			s.metrics.shed.Add(1)
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, errEnvelope(http.StatusTooManyRequests, "overloaded, retry later"))
			rs.observe(http.StatusTooManyRequests, time.Since(start))
			return
		}
		s.inflight.Add(1)
		s.metrics.inflight.Add(1)
		defer func() {
			<-s.sem
			s.inflight.Done()
			s.metrics.inflight.Add(-1)
		}()

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)

		payload, err := fn(w, r.WithContext(ctx))
		code := statusFor(err)
		if err != nil {
			// A 503 is a transient overlay condition (entry peers down, no
			// quorum): tell well-behaved clients when to come back, exactly
			// as the load shedder does for 429.
			if code == http.StatusServiceUnavailable {
				w.Header().Set("Retry-After", "1")
			}
			writeJSON(w, code, errEnvelope(code, err.Error()))
		} else {
			writeJSON(w, code, payload)
		}
		rs.observe(code, time.Since(start))
	})
}

// writeJSON renders one response body.
func writeJSON(w http.ResponseWriter, code int, payload any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(payload)
}

// parseKey decodes a key from its request form: a term (order-preservingly
// encoded) by default, a raw bit string with enc=bits.
func (s *Server) parseKey(raw, enc string) (keyspace.Key, error) {
	switch enc {
	case "", "term":
		k, err := keyspace.EncodeString(raw, s.cfg.KeyDepth)
		if err != nil {
			return keyspace.Key{}, badRequestf("bad key %q: %v", raw, err)
		}
		return k, nil
	case "bits":
		k, err := keyspace.FromString(raw)
		if err != nil {
			return keyspace.Key{}, badRequestf("bad bit-string key %q: %v", raw, err)
		}
		return k, nil
	default:
		return keyspace.Key{}, badRequestf("unknown key encoding %q (want term or bits)", enc)
	}
}

// searchResponse is the GET /v1/search/{key} body.
type searchResponse struct {
	Key    string     `json:"key"`
	Items  []itemJSON `json:"items"`
	Hops   int        `json:"hops"`
	Cached bool       `json:"cached,omitempty"`
}

// cacheHeader is the response header reporting how a search was served.
const cacheHeader = "X-Pgrid-Cache"

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) (any, error) {
	q := r.URL.Query()
	key, err := s.parseKey(r.PathValue("key"), q.Get("enc"))
	if err != nil {
		return nil, err
	}
	consistent := q.Get("consistent") == "1" || q.Get("consistent") == "true"
	res, err := s.cfg.Backend.Search(r.Context(), key, SearchOptions{Consistent: consistent})
	switch {
	case consistent:
		w.Header().Set(cacheHeader, "bypass")
	case res.Cached:
		w.Header().Set(cacheHeader, "hit")
		s.metrics.cacheHits.Add(1)
	default:
		w.Header().Set(cacheHeader, "miss")
		s.metrics.cacheMisses.Add(1)
	}
	if err != nil {
		return nil, err
	}
	return searchResponse{Key: key.String(), Items: itemsJSON(res.Items), Hops: res.Hops, Cached: res.Cached}, nil
}

// rangeResponse is the GET /v1/range body.
type rangeResponse struct {
	Lo         string     `json:"lo"`
	Hi         string     `json:"hi,omitempty"`
	Items      []itemJSON `json:"items"`
	Hops       int        `json:"hops"`
	Partitions int        `json:"partitions"`
	Incomplete bool       `json:"incomplete,omitempty"`
}

func (s *Server) handleRange(_ http.ResponseWriter, r *http.Request) (any, error) {
	q := r.URL.Query()
	enc := q.Get("enc")
	loRaw := q.Get("lo")
	if loRaw == "" {
		return nil, badRequestf("missing lo parameter")
	}
	lo, err := s.parseKey(loRaw, enc)
	if err != nil {
		return nil, err
	}
	kr := keyspace.Range{Lo: lo, HiUnbounded: true}
	if hiRaw := q.Get("hi"); hiRaw != "" {
		hi, err := s.parseKey(hiRaw, enc)
		if err != nil {
			return nil, err
		}
		kr = keyspace.NewRange(lo, hi)
	}
	res, err := s.cfg.Backend.Range(r.Context(), kr)
	if err != nil {
		return nil, err
	}
	return rangeResponse{
		Lo: lo.String(), Hi: kr.Hi.String(),
		Items: itemsJSON(res.Items), Hops: res.Hops,
		Partitions: res.Partitions, Incomplete: res.Incomplete,
	}, nil
}

// batchRequest is the POST /v1/batch body.
type batchRequest struct {
	Keys []string `json:"keys"`
	Enc  string   `json:"enc,omitempty"`
}

// batchEntryJSON is one key's outcome in a batch response.
type batchEntryJSON struct {
	Key   string     `json:"key"`
	Found bool       `json:"found"`
	Error string     `json:"error,omitempty"`
	Items []itemJSON `json:"items,omitempty"`
	Hops  int        `json:"hops"`
}

// batchResponse is the POST /v1/batch body: per-key outcomes aligned with
// the request's keys.
type batchResponse struct {
	Results []batchEntryJSON `json:"results"`
}

func (s *Server) handleBatch(_ http.ResponseWriter, r *http.Request) (any, error) {
	var req batchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, badRequestf("bad batch body: %v", err)
	}
	if len(req.Keys) == 0 {
		return nil, badRequestf("batch needs at least one key")
	}
	if len(req.Keys) > s.cfg.MaxBatchKeys {
		return nil, badRequestf("batch of %d keys exceeds the limit of %d", len(req.Keys), s.cfg.MaxBatchKeys)
	}
	keys := make([]keyspace.Key, len(req.Keys))
	for i, raw := range req.Keys {
		k, err := s.parseKey(raw, req.Enc)
		if err != nil {
			return nil, err
		}
		keys[i] = k
	}
	entries := s.cfg.Backend.SearchMany(r.Context(), keys)
	resp := batchResponse{Results: make([]batchEntryJSON, len(entries))}
	for i, e := range entries {
		out := batchEntryJSON{Key: keys[i].String(), Hops: e.Hops}
		if e.Err != nil {
			out.Error = e.Err.Error()
		} else {
			out.Found = true
			out.Items = itemsJSON(e.Items)
		}
		resp.Results[i] = out
	}
	return resp, nil
}

// mutateRequest is the PUT /v1/items/{key} (and optional DELETE) body.
type mutateRequest struct {
	Value string `json:"value"`
}

// mutateResponse is the body of a successful insert or delete.
type mutateResponse struct {
	Key      string `json:"key"`
	Acks     int    `json:"acks"`
	Replicas int    `json:"replicas"`
	Hops     int    `json:"hops"`
}

func (s *Server) handleInsert(_ http.ResponseWriter, r *http.Request) (any, error) {
	key, err := s.parseKey(r.PathValue("key"), r.URL.Query().Get("enc"))
	if err != nil {
		return nil, err
	}
	var req mutateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, badRequestf("bad insert body (want {\"value\": ...}): %v", err)
	}
	res, err := s.cfg.Backend.Insert(r.Context(), replication.Item{Key: key, Value: req.Value})
	if err != nil {
		return nil, err
	}
	return mutateResponse{Key: key.String(), Acks: res.Acks, Replicas: res.Replicas, Hops: res.Hops}, nil
}

func (s *Server) handleDelete(_ http.ResponseWriter, r *http.Request) (any, error) {
	key, err := s.parseKey(r.PathValue("key"), r.URL.Query().Get("enc"))
	if err != nil {
		return nil, err
	}
	value := r.URL.Query().Get("value")
	if value == "" {
		var req mutateRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err == nil {
			value = req.Value
		}
	}
	if value == "" {
		return nil, badRequestf("missing value (query parameter or {\"value\": ...} body)")
	}
	res, err := s.cfg.Backend.Delete(r.Context(), key, value)
	if err != nil {
		return nil, err
	}
	return mutateResponse{Key: key.String(), Acks: res.Acks, Replicas: res.Replicas, Hops: res.Hops}, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), time.Second)
	defer cancel()
	if err := s.cfg.Backend.Ready(ctx); err != nil {
		http.Error(w, fmt.Sprintf("backend not ready: %v", err), http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ready\n"))
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var snap *overlay.MetricsSnapshot
	if ms, ok := s.cfg.Backend.(MetricsSource); ok {
		v := ms.MetricsSnapshot()
		snap = &v
	}
	s.metrics.writeExposition(w, s.ready.Load(), snap)
}
