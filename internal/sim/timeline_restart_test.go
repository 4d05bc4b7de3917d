package sim

import (
	"strings"
	"testing"
	"time"

	"pgrid/internal/churn"
	"pgrid/internal/overlay"
)

// TestTimelineRestartScenario runs the timeline with persistence enabled
// and a mid-operation restart wave, and requires the restarted peers to
// rejoin through the in-sync/delta anti-entropy paths — no full rebuilds —
// because their baselines and content were recovered from disk.
func TestTimelineRestartScenario(t *testing.T) {
	cfg := TimelineConfig{
		Experiment:          smallConfig(11),
		JoinEnd:             20 * time.Minute,
		ConstructEnd:        60 * time.Minute,
		QueryEnd:            90 * time.Minute,
		ChurnEnd:            100 * time.Minute,
		QueryInterval:       2 * time.Minute,
		WriteInterval:       4 * time.Minute,
		MaintenanceInterval: 2 * time.Minute,
		Churn:               churn.Model{}, // isolate the restart effect from churn
		HopLatency:          2 * time.Second,
		Step:                time.Minute,
		RestartAt:           80 * time.Minute,
		RestartFraction:     0.3,
	}
	cfg.Experiment.DataDir = t.TempDir()
	res, err := RunTimeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RestartedPeers == 0 {
		t.Fatal("restart scenario bounced no peers")
	}
	if pr := res.PostRestart; pr[overlay.SyncsInSync]+pr[overlay.SyncsDelta] == 0 {
		t.Error("restarted peers completed no in-sync/delta rounds after recovery")
	}
	if full := res.PostRestart[overlay.SyncsFull]; full > 0 {
		t.Errorf("restarted peers ran %.0f full syncs; durable baselines should have kept them on the delta path",
			full)
	}
	// Reads keep succeeding across the restart wave.
	if res.SuccessDuringChurn < 0.8 {
		t.Errorf("query success across the restart wave %v too low", res.SuccessDuringChurn)
	}
	if got := res.Summary(); !strings.Contains(got, "restarted peers") {
		t.Errorf("summary misses the restart metrics: %q", got)
	}
}

// TestTimelineRestartWithoutPersistence pins the contrast: the same restart
// wave without DataDir loses the peers' state, so at least some rejoins
// degrade to full-set transfers (walks count as delta-proportional; a
// full rebuild appears once tombstone GC has advanced) — and, more
// fundamentally, the restarted peers come back empty.
func TestTimelineRestartWithoutPersistence(t *testing.T) {
	cfg := TimelineConfig{
		Experiment:          smallConfig(12),
		JoinEnd:             20 * time.Minute,
		ConstructEnd:        60 * time.Minute,
		QueryEnd:            90 * time.Minute,
		ChurnEnd:            100 * time.Minute,
		QueryInterval:       2 * time.Minute,
		MaintenanceInterval: 2 * time.Minute,
		Churn:               churn.Model{},
		HopLatency:          2 * time.Second,
		Step:                time.Minute,
		RestartAt:           80 * time.Minute,
		RestartFraction:     0.3,
	}
	res, err := RunTimeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RestartedPeers == 0 {
		t.Fatal("restart scenario bounced no peers")
	}
	// Without durable state the rejoiners are first contacts: their path
	// and baselines are gone, so they cannot run exact deltas with their
	// old partitions from the start. The run must still complete and serve
	// queries (replicas rebuild them), just less efficiently.
	if res.SuccessDuringChurn == 0 {
		t.Error("overlay did not survive the restart wave at all")
	}
}
