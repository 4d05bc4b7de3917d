package harness

import (
	"net/http"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestClusterSmoke is the process-level smoke suite: the boot / workload /
// scrape / clean-shutdown / recovery path that scripts/smoke.sh used to
// hand-roll in bash now runs through the same harness the churn suites
// use. Three pgridnode processes over the pooled TCP transport, one
// pgridgate, an HTTP workload, metrics assertions, then a SIGTERM
// checkpointed shutdown and a snapshot-only restart.
func TestClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	c, err := New(Options{
		Nodes:     3,
		Durable:   true,
		HTTPNodes: 1,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		t.Fatalf("start: %v\n%s", err, c.LogTails(20))
	}
	if err := c.StartGate(); err != nil {
		t.Fatalf("gate: %v\n%s", err, c.LogTails(20))
	}

	// Workload: inserts, lookups, a delete — all through the gateway.
	keys, err := c.LoadKeys("smoke", 6)
	if err != nil {
		t.Fatalf("load keys: %v\n%s", err, c.LogTails(20))
	}
	if err := c.WaitConverged(keys, 30*time.Second); err != nil {
		t.Fatalf("%v\n%s", err, c.LogTails(20))
	}
	res, err := c.Gate.Search("never-inserted-key")
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusNotFound {
		t.Errorf("absent key returned %d, want 404", res.Status)
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)

	// Batch: hits report found with values, the missing key reports
	// found=false in the same answer. Entries come back in request order
	// (the response keys are bit-strings, not the original terms). Polled
	// like every other read assertion: a batch can transiently dead-end
	// while construction interactions are still splitting partitions.
	queried := []string{sorted[0], sorted[1], "never-inserted-key"}
	batchDeadline := time.Now().Add(30 * time.Second)
	for {
		entries, err := c.Gate.Batch(queried)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 3 {
			t.Fatalf("batch returned %d entries, want 3", len(entries))
		}
		if entries[2].Found {
			t.Fatalf("batch reported the never-inserted key as found: %+v", entries[2])
		}
		ok := true
		for i, e := range entries[:2] {
			if !e.Found || !contains(e.Values, keys[queried[i]]) {
				ok = false
				if time.Now().After(batchDeadline) {
					t.Fatalf("batch entry %s: found=%v values=%v, want %q", queried[i], e.Found, e.Values, keys[queried[i]])
				}
			}
		}
		if ok {
			break
		}
		time.Sleep(250 * time.Millisecond)
	}

	// Range: a sweep past the whole generated key block sees every
	// inserted value (hi is past the last key — the bound lands between
	// partitions at encoding depth, so an exact-endpoint hi can exclude
	// the endpoint's own partition).
	rangeVals, err := c.Gate.Range(sorted[0], "zz")
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range keys {
		if !contains(rangeVals, v) {
			t.Errorf("range [%s, zz] missing %s=%s (got %d values)", sorted[0], k, v, len(rangeVals))
		}
	}

	victim := sorted[3]
	if err := c.Gate.Delete(victim, keys[victim]); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitAbsent(map[string]string{victim: keys[victim]}, 30*time.Second); err != nil {
		t.Errorf("%v\n%s", err, c.LogTails(20))
	}

	// A node without HTTP is probed through a wire-level routed query —
	// the readiness path real deployments without a front door rely on.
	if err := WaitProbeGet(c.Nodes[1].Addr, sorted[0], 30*time.Second); err != nil {
		t.Errorf("-get probe: %v", err)
	}

	// Metrics scrapes, gateway and node.
	gm, err := c.Gate.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if v := gm.Sum("pgrid_gate_requests_total", `route="insert"`, `code="200"`); v < 6 {
		t.Errorf("gate insert counter %v, want >= 6", v)
	}
	if v := gm.Sum("pgrid_gate_requests_total", `route="search"`, `code="200"`); v < 1 {
		t.Errorf("gate search counter %v, want >= 1", v)
	}
	if gm.Sum("pgrid_gate_request_duration_seconds_bucket") == 0 {
		t.Error("gate latency histogram missing")
	}
	nm, err := c.Nodes[0].Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if v := nm.Value("pgrid_store_clock", ""); v < 1 {
		t.Errorf("node 0 store clock %v after workload, want >= 1", v)
	}
	if _, ok := nm["pgrid_peer_queries_total"]; !ok {
		t.Error("node 0 peer counters missing")
	}

	// Graceful shutdown: gateway first, then the durable node. Both must
	// exit 0 and log their clean-shutdown line.
	if err := c.Gate.stop(10 * time.Second); err != nil {
		t.Fatalf("gate SIGTERM: %v\n%s", err, c.Gate.logTail(20))
	}
	if !strings.Contains(c.Gate.log(), "clean shutdown") {
		t.Errorf("gateway did not log a clean shutdown:\n%s", c.Gate.logTail(20))
	}
	n0 := c.Nodes[0]
	if err := n0.Stop(15 * time.Second); err != nil {
		t.Fatalf("node 0 SIGTERM: %v\n%s", err, n0.logTail(20))
	}
	if !n0.LogContains("clean shutdown") {
		t.Errorf("node 0 did not log a clean shutdown:\n%s", n0.logTail(20))
	}

	// Restart: same address, same data dir. Recovery must come from the
	// snapshot alone (checkpointed shutdown leaves an empty WAL tail) and
	// must bring the items back.
	if err := n0.Restart(); err != nil {
		t.Fatal(err)
	}
	if err := n0.WaitListening(20 * time.Second); err != nil {
		t.Fatalf("%v", err)
	}
	if err := n0.WaitHTTPReady(20 * time.Second); err != nil {
		t.Fatalf("%v", err)
	}
	if !n0.LogContains("recovered durable state") {
		t.Errorf("restart did not recover durable state:\n%s", n0.logTail(20))
	}
	nm, err = n0.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if v := nm.Value("pgrid_store_wal_records", ""); v != 0 {
		t.Errorf("WAL tail not empty after checkpointed shutdown: %v records", v)
	}
	if nm.Value("pgrid_store_items", "") < 1 {
		t.Error("restarted node recovered no items")
	}
}

// TestMain keeps the shared binary build's temp dir alive for the whole
// package run and removes it afterwards.
func TestMain(m *testing.M) {
	code := m.Run()
	if binaries.dir != "" {
		os.RemoveAll(binaries.dir)
	}
	os.Exit(code)
}
