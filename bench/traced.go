package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"time"
)

// layerMetric is one per-layer metric as BENCHMARK.json declares it.
type layerMetric struct {
	name, unit  string
	lowerBetter bool
}

// perLayer names every metric a traced run reports. Names are
// module.metric; README.md defines each and says which end-to-end metric it
// should move. The http.* rows are the gate's API as the closed-loop clients
// saw it, by operation type; wire, self and ratio rows come from the spans;
// calls, bytes, hops, cache hits and maintenance bytes are counted during
// the closed loop; partitions, depth and replicas are the shape of the trie;
// the rest are probes.
var perLayer = []layerMetric{
	{"http.read_p50_us", "us", true},
	{"http.read_p99_us", "us", true},
	{"http.write_p50_us", "us", true},
	{"http.write_p99_us", "us", true},
	{"http.range_p50_us", "us", true},
	{"http.range_p99_us", "us", true},
	{"gate.self_us", "us", true},
	{"gate.backend_self_us", "us", true},
	{"gate.null_us", "us", true},
	{"gate.null_allocs", "count", true},
	{"network.wire_us", "us", true},
	{"network.path_wire_us", "us", true},
	{"network.calls_per_op", "count", true},
	{"network.bytes_per_op", "B", true},
	{"network.loopback_call_us", "us", true},
	{"network.loopback_call_allocs", "count", true},
	{"network.encode_ns", "ns", true},
	{"network.decode_ns", "ns", true},
	{"overlay.handle_self_us", "us", true},
	{"overlay.hops_per_op", "count", true},
	{"overlay.race_waste_ratio", "ratio", true},
	{"overlay.cache_hit_ratio", "ratio", false},
	{"overlay.maint_bytes_per_s", "B/s", true},
	{"overlay.partitions", "count", false},
	{"overlay.depth_mean", "count", true},
	{"overlay.replicas_mean", "count", false},
	{"routing.nexthop_ns", "ns", true},
	{"keyspace.parse_ns", "ns", true},
	{"replication.lookup_us", "us", true},
	{"replication.lookup_allocs", "count", true},
	{"replication.scan_us_per_item", "us", true},
	{"replication.insert_us", "us", true},
	{"replication.insert_wal_us", "us", true},
	{"replication.wal_bytes_per_write", "B", true},
	{"replication.checkpoint_ms", "ms", true},
	{"replication.recover_ms", "ms", true},
	{"replication.disk_bytes_per_user_byte", "ratio", true},
	{"replication.segments", "count", true},
	{"bench.trace_overhead_ratio", "ratio", true},
	{"bench.budget_gap_ratio", "ratio", true},
}

// runTraced is the --trace 1 run. The decorators sit on every endpoint and
// on the gate's Backend for the whole run. A closed-loop phase with
// recording off gives the counts and the per-type latencies; then one
// client replays client 0's operations, in blocks with recording off and on
// by turns, and the spans are analysed and written out. The probes run
// last, on a closed cluster.
func runTraced(spec workloadSpec, cfg runConfig) (result, error) {
	ctx := context.Background()
	data := genData(spec)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return result{}, err
	}
	root := dataRoot(cfg, spec)
	defer os.RemoveAll(root)
	rec := newRecorder()
	c, err := newCluster(ctx, spec, data, root, rec.decorators())
	if err != nil {
		return result{}, err
	}
	defer c.close()
	orc, zipf := newOracle(data), zipfFor(spec)
	total := time.Duration(cfg.seconds) * time.Second
	out := make(map[string]float64)

	gens := clientGenerators(spec, cfg, data, zipf)
	maint0 := c.metrics().MaintenanceBytes
	w := runClosedLoop(c.baseURL, spec.writeQuorum, orc, gens, cfg.warm, total/3)
	// The counters ran through the warm-up too, as did w.attempted.
	out["overlay.maint_bytes_per_s"] = (c.metrics().MaintenanceBytes - maint0) / (cfg.warm + total/3).Seconds()
	out["network.calls_per_op"] = float64(rec.calls.Load()) / float64(w.attempted)
	out["network.bytes_per_op"] = float64(rec.bytes.Load()) / float64(w.attempted)
	out["overlay.hops_per_op"] = float64(w.hops) / float64(w.hopOps)
	out["overlay.cache_hit_ratio"] = float64(w.cacheHits) / float64(w.reads)
	for name, keep := range map[string]func(opKind) bool{"read": isRead, "write": isWrite, "range": isRange} {
		st := w.stats(keep)
		out["http."+name+"_p50_us"], out["http."+name+"_p99_us"] = st.p50, st.p99
	}

	cl := newClient(c.baseURL, spec.writeQuorum, orc)
	defer cl.close()
	t := w.tally
	off, on := replay(cl, newGenerator(spec, data, zipf, cfg.seed, 0, "r0"), time.Now().Add(total/2), rec, &t)
	rec.mu.Lock()
	spans := rec.spans
	rec.spans = nil
	rec.mu.Unlock()
	for _, e := range t.firstErrs {
		logf("%s: failed: %s", spec.name, e)
	}
	if len(off) == 0 || len(on) == 0 {
		return result{}, fmt.Errorf("%s: the replay completed no operation", spec.name)
	}

	st := analyse(spans)
	if st.requests == 0 {
		return result{}, fmt.Errorf("%s: no traced request could be linked to its spans", spec.name)
	}
	path, err := writeTrace(cfg, spec, spans)
	if err != nil {
		return result{}, err
	}
	logf("%s: %d spans of %d traced requests in %s; %d handler spans without a call",
		spec.name, len(spans), st.requests, path, st.unlinked)
	out["gate.self_us"] = st.gateSelf / 1e3
	out["gate.backend_self_us"] = st.backendSelf / 1e3
	out["network.wire_us"] = st.wire / 1e3
	out["overlay.handle_self_us"] = st.handleSelf / 1e3
	out["overlay.race_waste_ratio"] = 1 - float64(st.pathForwards)/float64(st.forwards)
	out["bench.budget_gap_ratio"] = st.gap
	out["bench.trace_overhead_ratio"] = median(on)/median(off) - 1
	out["overlay.partitions"] = float64(c.partitions)
	out["overlay.depth_mean"] = c.depthMean
	out["overlay.replicas_mean"] = c.replicasMean
	out["network.path_wire_us"] = st.pathWire / 1e3
	logf("%s: traced e2e p50 %.0f us; gate %.0f + backend %.1f + %.2f calls on the blocking path x (wire %.0f + handler self %.1f) us; gap %.3f; all calls: %.1f per request, wire %.0f, handler self %.1f us",
		spec.name, st.e2e/1e3, st.gateSelf/1e3, st.backendSelf/1e3, st.pathCalls, st.pathWire/1e3, st.pathHandleSelf/1e3, st.gap, st.calls, st.wire/1e3, st.handleSelf/1e3)

	in := probeInput{spec: spec, table: c.peers[0].Table(), dir: cfg.outDir, count: cfg.probeCount}
	for _, it := range data {
		if it.Key.HasPrefix(c.peers[0].Path()) {
			in.items = append(in.items, it)
		}
	}
	lost, recoverMS := 0, math.NaN()
	if spec.dataDirs && spec.writePct > 0 {
		dur, err := checkDurability(c, orc)
		if err != nil {
			return result{}, err
		}
		lost, recoverMS = dur.lost, dur.recoverMS
	}
	c.close()
	probes, err := runProbes(in)
	if err != nil {
		return result{}, err
	}
	for k, v := range probes {
		out[k] = v
	}
	if !math.IsNaN(recoverMS) {
		out["replication.recover_ms"] = recoverMS // the peers' own data dirs after the run
	}

	// A value over no sample (a latency of an operation the workload never
	// sends, a ratio over nothing) is NaN or Inf by now. The driver wants
	// every declared metric in every traced result and JSON has no NaN, so
	// such a metric goes out as 0 and is named in unmeasured.
	res := result{Correct: t.failed == 0 && lost == 0, Attempted: t.attempted, Failed: t.failed + lost, Metrics: make(map[string]metric)}
	for _, m := range perLayer {
		v, ok := out[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.unmeasured = append(res.unmeasured, m.name)
			v = 0
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	if len(res.unmeasured) > 0 {
		logf("%s: not measured on this workload, reported as 0: %v", spec.name, res.unmeasured)
	}
	return res, nil
}
