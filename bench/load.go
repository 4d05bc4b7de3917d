package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"syscall"
	"time"
)

// The JSON bodies of the gate's API, as far as the benchmark reads them.
type itemJSON struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

type readBody struct {
	Items      []itemJSON `json:"items"`
	Hops       int        `json:"hops"`
	Incomplete bool       `json:"incomplete"`
}

type mutateBody struct {
	Acks int `json:"acks"`
	Hops int `json:"hops"`
}

// outcome is what one completed request told the client besides its
// correctness.
type outcome struct {
	sent    time.Time     // when the request was handed to the HTTP client
	latency time.Duration // from then to the body fully read
	hops    int
	cached  bool
}

// client is one closed-loop HTTP client: a single keep-alive connection,
// the next request sent only when the previous body has been read and
// checked against the oracle.
type client struct {
	hc     *http.Client
	base   string
	quorum int
	orc    *oracle
	buf    bytes.Buffer
}

func newClient(base string, quorum int, orc *oracle) *client {
	if quorum < 1 {
		quorum = 1
	}
	return &client{
		hc: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
			Timeout:   10 * time.Second,
		},
		base: base, quorum: quorum, orc: orc,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// roundTrip sends one request, reads the whole body into c.buf and times
// exactly that.
func (c *client) roundTrip(method, target string, body io.Reader, out *outcome) (*http.Response, error) {
	req, err := http.NewRequest(method, c.base+target, body)
	if err != nil {
		return nil, err
	}
	out.sent = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	out.latency = time.Since(out.sent)
	return resp, err
}

func parseKeyBits(s string) (uint64, error) {
	if len(s) != keyDepth {
		return 0, fmt.Errorf("key %q is not %d bits", s, keyDepth)
	}
	var bits uint64
	for i := 0; i < len(s); i++ {
		bits <<= 1
		if s[i] == '1' {
			bits |= 1
		} else if s[i] != '0' {
			return 0, fmt.Errorf("key %q is not a bit string", s)
		}
	}
	return bits << (64 - keyDepth), nil
}

// do issues one operation, validates the answer and keeps the oracle
// current. A nil error means the operation completed and was correct.
func (c *client) do(o op) (out outcome, err error) {
	switch o.kind {
	case opRead, opRange:
		target := "/v1/search/" + keyString(o.key) + "?enc=bits"
		if o.kind == opRange {
			target = "/v1/range?enc=bits&lo=" + keyString(o.key) + "&hi=" + keyString(o.hi)
		}
		ticket := c.orc.beginRead(o)
		resp, err := c.roundTrip(http.MethodGet, target, nil, &out)
		if err != nil {
			return out, err
		}
		out.cached = resp.Header.Get("X-Pgrid-Cache") == "hit"
		var body readBody
		switch resp.StatusCode {
		case http.StatusOK:
			if err := json.Unmarshal(c.buf.Bytes(), &body); err != nil {
				return out, fmt.Errorf("bad body: %w", err)
			}
		case http.StatusNotFound:
			// the key holds nothing; the oracle decides whether that is right
		default:
			return out, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
		}
		if body.Incomplete {
			return out, errors.New("incomplete range answer")
		}
		out.hops = body.Hops
		got := make([]pair, len(body.Items))
		for i, it := range body.Items {
			k, err := parseKeyBits(it.Key)
			if err != nil {
				return out, err
			}
			got[i] = pair{k, it.Value}
		}
		return out, c.orc.checkRead(ticket, got)

	default: // opPut, opDelete
		c.orc.beginWrite(o.key)
		var resp *http.Response
		if o.kind == opPut {
			payload, _ := json.Marshal(map[string]string{"value": o.value}) // cannot fail for a string map
			resp, err = c.roundTrip(http.MethodPut, "/v1/items/"+keyString(o.key)+"?enc=bits", bytes.NewReader(payload), &out)
		} else {
			resp, err = c.roundTrip(http.MethodDelete, "/v1/items/"+keyString(o.key)+"?enc=bits&value="+url.QueryEscape(o.value), nil, &out)
		}
		var body mutateBody
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
		}
		if err == nil {
			err = json.Unmarshal(c.buf.Bytes(), &body)
		}
		if err == nil && body.Acks < c.quorum {
			err = fmt.Errorf("acked by %d replicas, want %d", body.Acks, c.quorum)
		}
		c.orc.endWrite(o, err == nil)
		out.hops = body.Hops
		return out, err
	}
}

// sample is one completed, correct operation of the measured window.
type sample struct {
	kind opKind
	ns   int64 // latency: request sent to body fully read
	at   int64 // completion time, ns since the window began
}

// tally is what one client (or all of them, merged) observed.
type tally struct {
	samples   []sample
	attempted int
	failed    int
	firstErrs []string
	reads     int // point reads completed
	cacheHits int
	hops      int // summed over point reads and writes
	hopOps    int
}

func (t *tally) fail(o op, err error) {
	t.failed++
	if len(t.firstErrs) < maxLogged {
		t.firstErrs = append(t.firstErrs, fmt.Sprintf("%s %s: %v", kindNames[o.kind], keyString(o.key), err))
	}
}

func (t *tally) note(o op, out outcome) {
	if o.kind == opRead {
		t.reads++
		if out.cached {
			t.cacheHits++
		}
	}
	if o.kind != opRange {
		t.hops += out.hops
		t.hopOps++
	}
}

func (t *tally) merge(o tally) {
	t.samples = append(t.samples, o.samples...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.reads += o.reads
	t.cacheHits += o.cacheHits
	t.hops += o.hops
	t.hopOps += o.hopOps
	for _, e := range o.firstErrs {
		if len(t.firstErrs) < maxLogged {
			t.firstErrs = append(t.firstErrs, e)
		}
	}
}

// window is the result of one closed-loop phase.
type window struct {
	tally
	seconds float64 // measured length
	cpuUS   float64 // process user+system CPU over the measured part
}

func cpuMicros() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	us := func(tv syscall.Timeval) float64 { return float64(tv.Sec)*1e6 + float64(tv.Usec) }
	return us(ru.Utime) + us(ru.Stime)
}

// runClosedLoop drives one generator per client against the gate: warm-up
// first (pools dial, caches fill; validated but not timed), then the
// measured window. Every operation of both parts counts as attempted.
func runClosedLoop(base string, quorum int, orc *oracle, gens []*generator, warm, measure time.Duration) window {
	var wg sync.WaitGroup
	tallies := make([]tally, len(gens))
	start := time.Now()
	measureFrom := start.Add(warm)
	end := measureFrom.Add(measure)
	for i, g := range gens {
		wg.Add(1)
		go func(t *tally, g *generator) {
			defer wg.Done()
			c := newClient(base, quorum, orc)
			defer c.close()
			for {
				t0 := time.Now()
				if !t0.Before(end) {
					return
				}
				o := g.next()
				out, err := c.do(o)
				t.attempted++
				if err != nil {
					t.fail(o, err)
					continue
				}
				if t0.Before(measureFrom) {
					continue
				}
				t.note(o, out)
				t.samples = append(t.samples, sample{o.kind, int64(out.latency), int64(time.Since(measureFrom))})
			}
		}(&tallies[i], g)
	}
	time.Sleep(time.Until(measureFrom))
	cpu0 := cpuMicros()
	time.Sleep(time.Until(end))
	cpu1 := cpuMicros()
	wg.Wait()
	w := window{seconds: measure.Seconds(), cpuUS: cpu1 - cpu0}
	for _, t := range tallies {
		w.merge(t)
	}
	return w
}

// median of no value is NaN: not measured.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantileUS returns the q-quantile of sorted ns values, in microseconds,
// NaN if there is none.
func quantileUS(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / 1e3
}

// windowStats is what the whole measured window says about the operations
// that match keep: how many completed, and the quantiles of their latency.
// Nothing is left out and nothing is smoothed: in a closed loop a stall
// delays only the requests in flight, so it hardly moves a percentile, but it
// takes its full length out of the operation count.
type windowStats struct {
	n        int
	p50, p99 float64 // us; NaN when n is 0
}

func (w window) stats(keep func(opKind) bool) windowStats {
	var lat []int64
	for _, s := range w.samples {
		if keep(s.kind) {
			lat = append(lat, s.ns)
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return windowStats{len(lat), quantileUS(lat, 0.50), quantileUS(lat, 0.99)}
}

// perSecond counts the completed operations of every second of the window,
// idle seconds included; the run logs it, so a stall can be seen and placed.
func (w window) perSecond() []int {
	ops := make([]int, int(math.Ceil(w.seconds)))
	for _, s := range w.samples {
		if i := int(s.at / int64(time.Second)); i >= 0 && i < len(ops) {
			ops[i]++
		}
	}
	return ops
}

func anyKind(opKind) bool   { return true }
func isWrite(k opKind) bool { return k == opPut || k == opDelete }
func isRead(k opKind) bool  { return k == opRead }
func isRange(k opKind) bool { return k == opRange }
