package sim

import (
	"os"
	"runtime"
	"testing"
	"time"

	"pgrid/internal/churn"
	"pgrid/internal/overlay"
	"pgrid/internal/workload"
)

// footprintPeers is the population the footprint benchmark builds. Large
// enough that fixed experiment overhead (graph, slices, the test binary's
// own allocations) is amortised into noise, small enough to rebuild per
// benchmark iteration.
const footprintPeers = 2000

// BenchmarkSimPeerFootprint measures the retained heap per simulated peer
// right after experiment construction — the number that decides how many
// peers one pgridsim process can hold. It reports bytes/peer as a custom
// metric so the nightly logs track the memory diet
// (per-peer RNG state, digest-tree keying, routing-ref interning) instead
// of only wall-clock time.
func BenchmarkSimPeerFootprint(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Peers = footprintPeers
	cfg.Distribution = workload.Uniform{}

	var perPeer float64
	for i := 0; i < b.N; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		e, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		perPeer = float64(after.HeapAlloc-before.HeapAlloc) / footprintPeers
		if err := e.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(perPeer, "bytes/peer")
}

// TestSoak10kPeerTimeline pushes the in-process simulator an order of
// magnitude past the paper's 296-peer PlanetLab deployment: 10,000 peers
// through the full join → construct → query → churn timeline. It exists to
// prove the sim's per-peer footprint and the overlay's round-based
// construction hold up at four-digit scale, so it only runs in the nightly
// soak job (PGRID_SOAK=1) — the populated experiment alone holds ~10^5
// keys and the run takes minutes.
func TestSoak10kPeerTimeline(t *testing.T) {
	if os.Getenv("PGRID_SOAK") == "" {
		t.Skip("10k-peer timeline soak; set PGRID_SOAK=1 to run")
	}
	cfg := TimelineConfig{
		Experiment: Config{
			Peers:        10000,
			KeysPerPeer:  10,
			Distribution: workload.Uniform{},
			Overlay: overlay.Config{
				MaxKeys:     50,
				MinReplicas: 5,
				MaxRefs:     3,
			},
			MaxRounds: 120,
			Queries:   200,
			Degree:    6,
			Seed:      101,
		},
		JoinEnd:      20 * time.Minute,
		ConstructEnd: 80 * time.Minute,
		QueryEnd:     110 * time.Minute,
		ChurnEnd:     130 * time.Minute,
		// One query per peer every ~30 virtual minutes keeps the absolute
		// query count (~10k over the operational phases) meaningful without
		// dominating the wall-clock budget.
		QueryInterval:       30 * time.Minute,
		MaintenanceInterval: 20 * time.Minute,
		Churn:               churn.PaperModel(),
		HopLatency:          time.Second,
		Step:                time.Minute,
	}
	start := time.Now()
	res, err := RunTimeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("10k-peer timeline completed in %v", time.Since(start))
	t.Logf("%s", res.Summary())

	if res.SuccessBeforeChurn < 0.9 {
		t.Errorf("pre-churn query success %.3f < 0.9 at 10k peers", res.SuccessBeforeChurn)
	}
	if res.SuccessDuringChurn < 0.7 {
		t.Errorf("during-churn query success %.3f < 0.7 at 10k peers", res.SuccessDuringChurn)
	}
	if res.Construction == nil || res.Construction.Replication.MeanReplicas < 1 {
		t.Error("construction produced no replication at 10k peers")
	}
	var mem runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mem)
	t.Logf("post-run heap: %.1f MiB (%.0f bytes/peer)",
		float64(mem.HeapAlloc)/(1<<20), float64(mem.HeapAlloc)/10000)
}
