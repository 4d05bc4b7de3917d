package gate

// Prometheus text exposition (version 0.0.4) written with the standard
// library only: the gateway's per-route latency/status counters plus the
// overlay peer gauges from MetricsSnapshot. The format is plain lines of
// `name{labels} value`, so no client dependency is needed — only the
// conventions: counters end in _total, histograms expose cumulative
// _bucket{le=...} series plus _sum and _count, and every family gets one
// # HELP / # TYPE header.

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pgrid/internal/overlay"
)

// latencyBuckets are the cumulative histogram upper bounds, in seconds.
// They bracket the overlay's routing latencies: sub-millisecond loopback
// calls up to multi-second degraded routes.
var latencyBuckets = [...]float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5}

// routeStats accumulates one route's status counts and latency histogram.
// All fields are atomics: the request path never takes a lock.
type routeStats struct {
	mu    sync.Mutex
	codes map[int]*atomic.Uint64

	buckets [len(latencyBuckets) + 1]atomic.Uint64 // +1 for +Inf
	sumNs   atomic.Uint64
	count   atomic.Uint64
}

// observe records one finished request.
func (r *routeStats) observe(code int, d time.Duration) {
	r.codeCounter(code).Add(1)
	sec := d.Seconds()
	idx := len(latencyBuckets)
	for i, ub := range latencyBuckets {
		if sec <= ub {
			idx = i
			break
		}
	}
	r.buckets[idx].Add(1)
	r.sumNs.Add(uint64(d.Nanoseconds()))
	r.count.Add(1)
}

// codeCounter returns the counter of one status code, creating it on first
// use (the map is append-only and tiny: a handful of codes per route).
func (r *routeStats) codeCounter(code int) *atomic.Uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.codes == nil {
		r.codes = make(map[int]*atomic.Uint64)
	}
	c, ok := r.codes[code]
	if !ok {
		c = &atomic.Uint64{}
		r.codes[code] = c
	}
	return c
}

// gateMetrics is the gateway's metric state.
type gateMetrics struct {
	mu     sync.Mutex
	routes map[string]*routeStats

	inflight atomic.Int64
	shed     atomic.Uint64
	// cacheHits and cacheMisses count cache-eligible searches by how the
	// overlay served them (consistent reads bypass and count in neither).
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
}

func newGateMetrics() *gateMetrics {
	return &gateMetrics{routes: make(map[string]*routeStats)}
}

// route returns the stats of one route, creating them on first use.
func (g *gateMetrics) route(name string) *routeStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	rs, ok := g.routes[name]
	if !ok {
		rs = &routeStats{}
		g.routes[name] = rs
	}
	return rs
}

// fmtFloat renders a metric value the way Prometheus clients do.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// writeExposition renders the gateway metrics, and — when snap is non-nil —
// the overlay peer counters and replication gauges, as Prometheus text.
func (g *gateMetrics) writeExposition(w io.Writer, ready bool, snap *overlay.MetricsSnapshot) {
	fmt.Fprintf(w, "# HELP pgrid_gate_ready Whether the gateway accepts traffic (0 while draining).\n")
	fmt.Fprintf(w, "# TYPE pgrid_gate_ready gauge\n")
	readyVal := 0
	if ready {
		readyVal = 1
	}
	fmt.Fprintf(w, "pgrid_gate_ready %d\n", readyVal)

	fmt.Fprintf(w, "# HELP pgrid_gate_inflight_requests API requests currently being served.\n")
	fmt.Fprintf(w, "# TYPE pgrid_gate_inflight_requests gauge\n")
	fmt.Fprintf(w, "pgrid_gate_inflight_requests %d\n", g.inflight.Load())

	fmt.Fprintf(w, "# HELP pgrid_gate_shed_total Requests rejected with 429 by the concurrency limiter.\n")
	fmt.Fprintf(w, "# TYPE pgrid_gate_shed_total counter\n")
	fmt.Fprintf(w, "pgrid_gate_shed_total %d\n", g.shed.Load())

	fmt.Fprintf(w, "# HELP pgrid_gate_cache_hits_total Searches served from the overlay's query answer cache.\n")
	fmt.Fprintf(w, "# TYPE pgrid_gate_cache_hits_total counter\n")
	fmt.Fprintf(w, "pgrid_gate_cache_hits_total %d\n", g.cacheHits.Load())

	fmt.Fprintf(w, "# HELP pgrid_gate_cache_misses_total Cache-eligible searches that routed to the responsible partition.\n")
	fmt.Fprintf(w, "# TYPE pgrid_gate_cache_misses_total counter\n")
	fmt.Fprintf(w, "pgrid_gate_cache_misses_total %d\n", g.cacheMisses.Load())

	g.mu.Lock()
	names := make([]string, 0, len(g.routes))
	for name := range g.routes {
		names = append(names, name)
	}
	sort.Strings(names)
	routes := make([]*routeStats, len(names))
	for i, name := range names {
		routes[i] = g.routes[name]
	}
	g.mu.Unlock()

	fmt.Fprintf(w, "# HELP pgrid_gate_requests_total Finished requests by route and status code.\n")
	fmt.Fprintf(w, "# TYPE pgrid_gate_requests_total counter\n")
	for i, name := range names {
		rs := routes[i]
		rs.mu.Lock()
		codes := make([]int, 0, len(rs.codes))
		for code := range rs.codes {
			codes = append(codes, code)
		}
		sort.Ints(codes)
		for _, code := range codes {
			fmt.Fprintf(w, "pgrid_gate_requests_total{route=%q,code=\"%d\"} %d\n", name, code, rs.codes[code].Load())
		}
		rs.mu.Unlock()
	}

	fmt.Fprintf(w, "# HELP pgrid_gate_request_duration_seconds Request latency by route.\n")
	fmt.Fprintf(w, "# TYPE pgrid_gate_request_duration_seconds histogram\n")
	for i, name := range names {
		rs := routes[i]
		cum := uint64(0)
		for bi, ub := range latencyBuckets {
			cum += rs.buckets[bi].Load()
			fmt.Fprintf(w, "pgrid_gate_request_duration_seconds_bucket{route=%q,le=%q} %d\n", name, fmtFloat(ub), cum)
		}
		cum += rs.buckets[len(latencyBuckets)].Load()
		fmt.Fprintf(w, "pgrid_gate_request_duration_seconds_bucket{route=%q,le=\"+Inf\"} %d\n", name, cum)
		fmt.Fprintf(w, "pgrid_gate_request_duration_seconds_sum{route=%q} %s\n", name, fmtFloat(float64(rs.sumNs.Load())/1e9))
		fmt.Fprintf(w, "pgrid_gate_request_duration_seconds_count{route=%q} %d\n", name, rs.count.Load())
	}

	if snap != nil {
		writePeerExposition(w, snap)
	}
}

// writePeerExposition renders an overlay MetricsSnapshot as Prometheus
// text: the protocol counters as overlay.Counters declares them, the
// bandwidth counters, and the replication gauges (store size, tombstones,
// WAL shape, disk-engine segments).
func writePeerExposition(w io.Writer, s *overlay.MetricsSnapshot) {
	counter := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %s\n", name, help, name, name, fmtFloat(v))
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, fmtFloat(v))
	}
	family := ""
	for c, info := range overlay.Counters {
		if info.Family != family {
			family = info.Family
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", family, info.Help, family)
		}
		series := family
		if info.Label != "" {
			series += "{" + info.Label + "}"
		}
		fmt.Fprintf(w, "%s %s\n", series, fmtFloat(s.Counts[c]))
	}
	counter("pgrid_peer_query_bytes_total", "Encoded body bytes of the query-path calls this peer made (requests sent plus responses received).", s.QueryBytes)
	counter("pgrid_peer_maintenance_bytes_total", "Encoded body bytes of the maintenance calls this peer made (requests sent plus responses received).", s.MaintenanceBytes)
	gauge("pgrid_peer_replicas", "Peers known to replicate this partition.", float64(s.Replicas))
	gauge("pgrid_peer_path_depth", "Partition path depth (trie level).", float64(len(s.Path)))
	gauge("pgrid_store_items", "Live pairs in the replica store.", float64(s.Store.Items))
	gauge("pgrid_store_tombstones", "Delete tombstones retained.", float64(s.Store.Tombstones))
	gauge("pgrid_store_clock", "Store logical clock (total local mutations).", float64(s.Store.Clock))
	gauge("pgrid_store_wal_records", "Records in the current WAL segment.", float64(s.Store.WALRecords))
	gauge("pgrid_store_wal_segments", "WAL segment files on disk.", float64(s.Store.WALSegments))
	gauge("pgrid_store_engine_segments", "Disk-engine sorted segment files.", float64(s.Store.EngineStats.Segments))
	gauge("pgrid_store_engine_memtable_entries", "Disk-engine active memtable entries.", float64(s.Store.EngineStats.MemtableLen))
	gauge("pgrid_store_engine_frozen_entries", "Disk-engine entries frozen for flush.", float64(s.Store.EngineStats.FrozenLen))
}
