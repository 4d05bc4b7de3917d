package gate

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"pgrid/internal/keyspace"
	"pgrid/internal/overlay"
	"pgrid/internal/replication"
)

// fakeBackend is a scriptable in-memory Backend: a map store plus knobs to
// force errors and to block operations until released (for timeout,
// shedding and drain tests).
type fakeBackend struct {
	mu    sync.Mutex
	items map[string][]replication.Item

	// forceErr, when set, is returned by every operation.
	forceErr error
	// entered, when non-nil, receives one value as each operation starts.
	entered chan struct{}
	// release, when non-nil, blocks each operation until closed (or the
	// request context expires, which wins and surfaces as ctx.Err()).
	release chan struct{}
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{items: make(map[string][]replication.Item)}
}

// gate applies the scripted blocking/error behaviour shared by all ops.
func (f *fakeBackend) gate(ctx context.Context) error {
	if f.entered != nil {
		f.entered <- struct{}{}
	}
	if f.release != nil {
		select {
		case <-f.release:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return f.forceErr
}

func (f *fakeBackend) Search(ctx context.Context, key keyspace.Key, _ SearchOptions) (SearchResult, error) {
	if err := f.gate(ctx); err != nil {
		return SearchResult{}, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	items := f.items[key.String()]
	if len(items) == 0 {
		return SearchResult{}, overlay.ErrNotFound
	}
	return SearchResult{Items: append([]replication.Item(nil), items...), Hops: 1}, nil
}

func (f *fakeBackend) SearchMany(ctx context.Context, keys []keyspace.Key) []BatchEntry {
	out := make([]BatchEntry, len(keys))
	for i, k := range keys {
		res, err := f.Search(ctx, k, SearchOptions{})
		out[i] = BatchEntry{SearchResult: res, Err: err}
	}
	return out
}

func (f *fakeBackend) Range(ctx context.Context, r keyspace.Range) (RangeResult, error) {
	if err := f.gate(ctx); err != nil {
		return RangeResult{}, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var res RangeResult
	for _, items := range f.items {
		for _, it := range items {
			if r.ContainsKey(it.Key) {
				res.Items = append(res.Items, it)
			}
		}
	}
	res.Items = replication.DedupeItems(res.Items)
	res.Partitions = 1
	return res, nil
}

func (f *fakeBackend) Insert(ctx context.Context, it replication.Item) (MutateResult, error) {
	if err := f.gate(ctx); err != nil {
		return MutateResult{}, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.items[it.Key.String()] = append(f.items[it.Key.String()], it)
	return MutateResult{Acks: 2, Replicas: 2, Hops: 1}, nil
}

func (f *fakeBackend) Delete(ctx context.Context, key keyspace.Key, value string) (MutateResult, error) {
	if err := f.gate(ctx); err != nil {
		return MutateResult{}, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	kept := f.items[key.String()][:0]
	for _, it := range f.items[key.String()] {
		if it.Value != value {
			kept = append(kept, it)
		}
	}
	f.items[key.String()] = kept
	return MutateResult{Acks: 2, Replicas: 2, Hops: 1}, nil
}

func (f *fakeBackend) Ready(context.Context) error { return nil }

// doJSON runs one request against the test server and decodes the body.
func doJSON(t *testing.T, ts *httptest.Server, method, path, body string, out any) *http.Response {
	t.Helper()
	var rdr io.Reader
	if body != "" {
		rdr = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, ts.URL+path, rdr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: bad JSON body %q: %v", method, path, raw, err)
		}
	}
	return resp
}

func TestCRUDHappyPath(t *testing.T) {
	srv := New(Config{Backend: newFakeBackend()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var put mutateResponse
	if resp := doJSON(t, ts, http.MethodPut, "/v1/items/apple", `{"value":"doc1"}`, &put); resp.StatusCode != http.StatusOK {
		t.Fatalf("put: status %d", resp.StatusCode)
	}
	if put.Acks != 2 || put.Replicas != 2 {
		t.Errorf("put response: %+v", put)
	}
	doJSON(t, ts, http.MethodPut, "/v1/items/banana", `{"value":"doc2"}`, nil)

	var got searchResponse
	if resp := doJSON(t, ts, http.MethodGet, "/v1/search/apple", "", &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("search: status %d", resp.StatusCode)
	}
	if len(got.Items) != 1 || got.Items[0].Value != "doc1" {
		t.Errorf("search items: %+v", got.Items)
	}

	var batch batchResponse
	if resp := doJSON(t, ts, http.MethodPost, "/v1/batch", `{"keys":["apple","missing"]}`, &batch); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}
	if len(batch.Results) != 2 || !batch.Results[0].Found || batch.Results[1].Found || batch.Results[1].Error == "" {
		t.Errorf("batch results: %+v", batch.Results)
	}

	var rng rangeResponse
	if resp := doJSON(t, ts, http.MethodGet, "/v1/range?lo=a&hi=z", "", &rng); resp.StatusCode != http.StatusOK {
		t.Fatalf("range: status %d", resp.StatusCode)
	}
	if len(rng.Items) != 2 {
		t.Errorf("range items: %+v", rng.Items)
	}

	if resp := doJSON(t, ts, http.MethodDelete, "/v1/items/apple?value=doc1", "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	if resp := doJSON(t, ts, http.MethodGet, "/v1/search/apple", "", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("search after delete: status %d, want 404", resp.StatusCode)
	}
}

// TestErrorStatusMapping checks that every backend error class surfaces as
// its HTTP status instead of a generic 500.
func TestErrorStatusMapping(t *testing.T) {
	fb := newFakeBackend()
	srv := New(Config{Backend: fb})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		err  error
		want int
	}{
		{"not found", overlay.ErrNotFound, http.StatusNotFound},
		{"no quorum", fmt.Errorf("wrapped: %w", overlay.ErrNoQuorum), http.StatusServiceUnavailable},
		{"unreachable", fmt.Errorf("wrapped: %w", overlay.ErrUnreachable), http.StatusServiceUnavailable},
		{"deadline", context.DeadlineExceeded, http.StatusGatewayTimeout},
		{"internal", errors.New("boom"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		fb.forceErr = tc.err
		var body errorResponse
		resp := doJSON(t, ts, http.MethodGet, "/v1/search/anything", "", &body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		if body.Error.Message == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
		if body.Error.Code != codeFor(tc.want) {
			t.Errorf("%s: error code %q, want %q", tc.name, body.Error.Code, codeFor(tc.want))
		}
	}

	fb.forceErr = nil
	if resp := doJSON(t, ts, http.MethodGet, "/v1/search/k?enc=banana", "", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad encoding: status %d, want 400", resp.StatusCode)
	}
	if resp := doJSON(t, ts, http.MethodGet, "/v1/range", "", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("range without lo: status %d, want 400", resp.StatusCode)
	}
	if resp := doJSON(t, ts, http.MethodPost, "/v1/batch", `{"keys":[]}`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", resp.StatusCode)
	}
}

// TestTimeoutMidRoute checks the per-request deadline: a backend that stalls
// routing longer than RequestTimeout surfaces as 504, not as a hung request.
func TestTimeoutMidRoute(t *testing.T) {
	fb := newFakeBackend()
	fb.release = make(chan struct{}) // never closed: block until ctx fires
	srv := New(Config{Backend: fb, RequestTimeout: 30 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	start := time.Now()
	resp := doJSON(t, ts, http.MethodGet, "/v1/search/slow", "", nil)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("request took %v; deadline did not fire", d)
	}
}

// TestShedding checks the concurrency limiter: with MaxInFlight requests
// already being served, the next request is rejected immediately with
// 429 + Retry-After rather than queued.
func TestShedding(t *testing.T) {
	fb := newFakeBackend()
	fb.entered = make(chan struct{}, 8)
	fb.release = make(chan struct{})
	srv := New(Config{Backend: fb, MaxInFlight: 2, RequestTimeout: 10 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := ts.Client().Get(ts.URL + "/v1/search/blocked")
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	// Wait until both requests are inside the backend, holding the
	// semaphore's two slots.
	for i := 0; i < 2; i++ {
		select {
		case <-fb.entered:
		case <-time.After(5 * time.Second):
			t.Fatal("blocked requests never reached the backend")
		}
	}

	resp := doJSON(t, ts, http.MethodGet, "/v1/search/extra", "", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response is missing Retry-After")
	}

	close(fb.release)
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusNotFound { // key absent in the fake store
			t.Errorf("blocked request finished with %d", code)
		}
	}
}

// TestDrain checks graceful shutdown: Drain flips /readyz to 503 at once
// (so load balancers stop routing here) but blocks until the in-flight
// request finishes, which it does, successfully.
func TestDrain(t *testing.T) {
	fb := newFakeBackend()
	fb.entered = make(chan struct{}, 1)
	fb.release = make(chan struct{})
	srv := New(Config{Backend: fb, RequestTimeout: 10 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp := doJSON(t, ts, http.MethodGet, "/readyz", "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: %d", resp.StatusCode)
	}

	inflightDone := make(chan int, 1)
	go func() {
		resp, err := ts.Client().Get(ts.URL + "/v1/search/inflight")
		if err != nil {
			inflightDone <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		inflightDone <- resp.StatusCode
	}()
	<-fb.entered

	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainDone <- srv.Drain(ctx)
	}()

	// readyz must flip to 503 while the request is still in flight.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := doJSON(t, ts, http.MethodGet, "/readyz", "", nil)
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never flipped to 503 during drain")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-drainDone:
		t.Fatalf("drain returned %v with a request still in flight", err)
	default:
	}

	close(fb.release)
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code := <-inflightDone; code != http.StatusNotFound {
		t.Errorf("in-flight request finished with %d during drain", code)
	}

	// A drain that cannot finish in time reports the abort.
	srv2 := New(Config{Backend: fb, RequestTimeout: 10 * time.Second})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	fb.release = make(chan struct{})
	go func() {
		resp, err := ts2.Client().Get(ts2.URL + "/v1/search/stuck")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-fb.entered
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := srv2.Drain(ctx); err == nil {
		t.Error("drain with a stuck request returned nil")
	}
	close(fb.release)
}

// metricsFake adds a MetricsSnapshot to the fake backend so the peer
// exposition path is exercised.
type metricsFake struct {
	*fakeBackend
	snap overlay.MetricsSnapshot
}

func (m metricsFake) MetricsSnapshot() overlay.MetricsSnapshot { return m.snap }

// promLine matches one Prometheus text sample: name{labels} value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (NaN|[-+]?Inf|[-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?)$`)

// TestMetricsExposition drives a few requests and checks /metrics emits
// well-formed Prometheus text with the expected families.
func TestMetricsExposition(t *testing.T) {
	fb := newFakeBackend()
	mb := metricsFake{fakeBackend: fb, snap: overlay.MetricsSnapshot{
		Counts:   overlay.Counts{overlay.Queries: 42},
		Replicas: 3,
		Store:    replication.StoreStats{Items: 7, Tombstones: 1, WALSegments: 2},
	}}
	srv := New(Config{Backend: mb})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	doJSON(t, ts, http.MethodPut, "/v1/items/apple", `{"value":"doc1"}`, nil)
	doJSON(t, ts, http.MethodGet, "/v1/search/apple", "", nil)
	doJSON(t, ts, http.MethodGet, "/v1/search/missing", "", nil)

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}

	typed := make(map[string]string) // family -> type
	samples := make(map[string]string)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			typed[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("malformed sample line %q", line)
		}
		name, value, _ := strings.Cut(line, " ")
		samples[name] = value
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	// Every sample must belong to a declared family.
	suffixes := []string{"", "_bucket", "_sum", "_count"}
	for name := range samples {
		base, _, _ := strings.Cut(name, "{")
		ok := false
		for _, suf := range suffixes {
			if _, declared := typed[strings.TrimSuffix(base, suf)]; declared && (suf == "" || strings.HasSuffix(base, suf)) {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("sample %q has no # TYPE declaration", name)
		}
	}

	for _, want := range []string{
		`pgrid_gate_ready`,
		`pgrid_gate_requests_total{route="insert",code="200"}`,
		`pgrid_gate_requests_total{route="search",code="200"}`,
		`pgrid_gate_requests_total{route="search",code="404"}`,
		`pgrid_gate_request_duration_seconds_count{route="search"}`,
		`pgrid_peer_queries_total`,
		`pgrid_peer_replicas`,
		`pgrid_store_items`,
		`pgrid_store_wal_segments`,
	} {
		if _, ok := samples[want]; !ok {
			t.Errorf("missing sample %s", want)
		}
	}
	if got := samples[`pgrid_store_items`]; got != "7" {
		t.Errorf("pgrid_store_items = %s, want 7", got)
	}
	if got := samples[`pgrid_gate_requests_total{route="search",code="404"}`]; got != "1" {
		t.Errorf(`search 404 counter = %s, want 1`, got)
	}
}
