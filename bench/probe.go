package main

import (
	"context"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pgrid/internal/gate"
	"pgrid/internal/keyspace"
	"pgrid/internal/network"
	"pgrid/internal/overlay"
	"pgrid/internal/replication"
	"pgrid/internal/routing"
)

// The store, the engine, the routing table, the codec and the gate's
// handler cannot be wrapped from outside, so these layers are probed:
// fixed-count timed loops over their public functions on the workload's own
// data, median of five batches, allocations from runtime.MemStats.Mallocs.
// The probes run after the cluster has been closed, so nothing else in the
// process allocates or competes.

const probeBatches = 5

// timeLoop runs fn count times per batch and returns the median time and
// allocations per call.
func timeLoop(count int, fn func(i int)) (ns, allocs float64) {
	var nss, als []float64
	var ms runtime.MemStats
	for b := 0; b < probeBatches; b++ {
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		t0 := time.Now()
		for i := 0; i < count; i++ {
			fn(b*count + i)
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&ms)
		nss = append(nss, float64(d)/float64(count))
		als = append(als, float64(ms.Mallocs-m0)/float64(count))
	}
	return median(nss), median(als)
}

// nullBackend answers every operation at once with a one-item result, so a
// request against it costs what the gate itself costs.
type nullBackend struct{ item replication.Item }

func (b nullBackend) Search(context.Context, keyspace.Key, gate.SearchOptions) (gate.SearchResult, error) {
	return gate.SearchResult{Items: []replication.Item{b.item}, Hops: 1}, nil
}
func (b nullBackend) SearchMany(_ context.Context, keys []keyspace.Key) []gate.BatchEntry {
	return make([]gate.BatchEntry, len(keys))
}
func (b nullBackend) Range(context.Context, keyspace.Range) (gate.RangeResult, error) {
	return gate.RangeResult{Items: []replication.Item{b.item}, Partitions: 1}, nil
}
func (b nullBackend) Insert(context.Context, replication.Item) (gate.MutateResult, error) {
	return gate.MutateResult{Acks: 1, Replicas: 1}, nil
}
func (b nullBackend) Delete(context.Context, keyspace.Key, string) (gate.MutateResult, error) {
	return gate.MutateResult{Acks: 1, Replicas: 1}, nil
}
func (b nullBackend) Ready(context.Context) error { return nil }

// discardWriter is the least an http.Handler needs to write to.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// probeInput is what the probes take from the workload and its cluster.
type probeInput struct {
	spec  workloadSpec
	items []replication.Item // one partition's loaded data
	table *routing.Table     // a peer's routing table
	dir   string             // scratch directory for the probe stores
	count int                // iterations per batch of the fastest probes
}

// runProbes measures the layers no decorator reaches. The map is keyed by
// metric name.
func runProbes(in probeInput) (map[string]float64, error) {
	out := make(map[string]float64)
	ctx := context.Background()
	keys := make([]keyspace.Key, len(in.items))
	strs := make([]string, len(in.items))
	for i, it := range in.items {
		keys[i] = it.Key
		strs[i] = it.Key.String()
	}
	n := len(keys)

	// gate: the handler against a null Backend.
	h := gate.New(gate.Config{Backend: nullBackend{in.items[0]}}).Handler()
	reqs := make([]*http.Request, 64)
	for i := range reqs {
		r, err := http.NewRequest(http.MethodGet, "/v1/search/"+strs[i%n]+"?enc=bits", nil)
		if err != nil {
			return nil, err
		}
		reqs[i] = r
	}
	w := &discardWriter{h: make(http.Header)}
	ns, al := timeLoop(in.count/4, func(i int) { h.ServeHTTP(w, reqs[i%len(reqs)]) })
	out["gate.null_us"], out["gate.null_allocs"] = ns/1e3, al

	// network: codec alone, then one pooled call over loopback TCP.
	resp := overlay.QueryResponse{
		Found: true, Items: in.items[:1], Hops: 3,
		Responsible: "127.0.0.1:17000", ResponsiblePath: "0101", Clock: 12345,
	}
	frame, err := network.EncodeMessageBinary("127.0.0.1:17001", resp, 0)
	if err != nil {
		return nil, err
	}
	ns, _ = timeLoop(in.count, func(int) { _, _ = network.EncodeMessageBinary("127.0.0.1:17001", resp, 0) })
	out["network.encode_ns"] = ns
	ns, _ = timeLoop(in.count, func(int) { _, _, _ = network.DecodeMessageBinary(frame) })
	out["network.decode_ns"] = ns

	a, err := network.ListenTCP("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer a.Close()
	b, err := network.ListenTCP("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer b.Close()
	b.Handle(func(context.Context, network.Addr, any) (any, error) { return resp, nil })
	var callErr error
	ns, al = timeLoop(in.count/10, func(i int) {
		if _, err := a.Call(ctx, b.Addr(), overlay.QueryRequest{Key: keys[i%n], Hops: 1, TTL: 63}); err != nil {
			callErr = err
		}
	})
	if callErr != nil {
		return nil, fmt.Errorf("loopback call probe: %w", callErr)
	}
	out["network.loopback_call_us"], out["network.loopback_call_allocs"] = ns/1e3, al

	// routing and keyspace: paid once per hop and once per request.
	ns, _ = timeLoop(in.count, func(i int) { in.table.NextHop(keys[i%n]) })
	out["routing.nexthop_ns"] = ns
	ns, _ = timeLoop(in.count, func(i int) {
		if k, err := keyspace.FromString(strs[i%n]); err == nil {
			_ = k.String()
		}
	})
	out["keyspace.parse_ns"] = ns

	// replication: a store holding one partition's data on the workload's
	// engine, with a data dir so the disk engine serves reads from segments.
	storeDir := filepath.Join(in.dir, "probe-store")
	if err := os.RemoveAll(storeDir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(storeDir)
	opts := replication.PersistOptions{Engine: in.spec.engine}
	st, err := replication.OpenStore(storeDir, opts)
	if err != nil {
		return nil, err
	}
	defer func() { st.Close() }()
	st.AddAll(in.items)
	if err := st.Checkpoint(); err != nil {
		return nil, err
	}
	count := in.count
	if in.spec.engine == replication.EngineDisk {
		count /= 10 // a disk point read costs some 30 memory ones
	}
	ns, al = timeLoop(count, func(i int) { st.Lookup(keys[(i*7919)%n]) })
	out["replication.lookup_us"], out["replication.lookup_allocs"] = ns/1e3, al

	width := in.spec.rangeWidth
	if width == 0 {
		width = 0.005
	}
	lo, hi := keys[0].Float(), keys[0].Float()
	for _, k := range keys {
		lo, hi = min(lo, k.Float()), max(hi, k.Float())
	}
	scanned := 0
	const scans = 50
	ns, _ = timeLoop(scans, func(i int) {
		from := lo + (hi-lo-width)*float64(i%scans)/scans
		r := keyspace.NewRange(keyspace.MustFromFloat(from, keyDepth), keyspace.MustFromFloat(from+width, keyDepth))
		st.ScanRange(r, func(replication.Item) bool { scanned++; return true })
	})
	if scanned > 0 {
		out["replication.scan_us_per_item"] = ns / 1e3 * scans * probeBatches / float64(scanned)
	}

	// Writes: the index alone, then index + WAL (default batched fsync).
	fresh := func(i int) replication.Item {
		return replication.Item{Key: keyspace.MustFromFloat(float64(i%1000003)/1000003, keyDepth), Value: "p" + fmt.Sprint(i)}
	}
	mem, err := replication.NewStoreKind(in.spec.engine)
	if err != nil {
		return nil, err
	}
	mem.AddAll(in.items)
	writes := in.count / 4
	ns, _ = timeLoop(writes, func(i int) { mem.Insert(fresh(i)) })
	_ = mem.Close()
	out["replication.insert_us"] = ns / 1e3
	if err := st.Sync(); err != nil {
		return nil, err
	}
	wal0 := dirBytes(storeDir, "wal")
	ns, _ = timeLoop(writes, func(i int) { st.Insert(fresh(i)) })
	out["replication.insert_wal_us"] = ns / 1e3
	if err := st.Sync(); err != nil {
		return nil, err
	}
	out["replication.wal_bytes_per_write"] = float64(dirBytes(storeDir, "wal")-wal0) / float64(writes*probeBatches)

	// Checkpoint, space and recovery: read cost, write cost and space trade
	// against each other, so all three are reported.
	t0 := time.Now()
	if err := st.Checkpoint(); err != nil {
		return nil, err
	}
	out["replication.checkpoint_ms"] = float64(time.Since(t0)) / 1e6
	user := 0
	st.ScanRange(keyspace.RangeFrom(keyspace.Key{}), func(it replication.Item) bool {
		user += it.Key.Len/8 + len(it.Value)
		return true
	})
	out["replication.disk_bytes_per_user_byte"] = float64(dirBytes(storeDir, "")) / float64(user)
	out["replication.segments"] = float64(st.Stats().EngineStats.Segments)
	if err := st.Close(); err != nil {
		return nil, err
	}
	t0 = time.Now()
	if st, err = replication.OpenStore(storeDir, opts); err != nil {
		return nil, err
	}
	out["replication.recover_ms"] = float64(time.Since(t0)) / 1e6
	return out, nil
}

// dirBytes sums the sizes of the files under dir whose name starts with
// prefix.
func dirBytes(dir, prefix string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || len(d.Name()) < len(prefix) || d.Name()[:len(prefix)] != prefix {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}
