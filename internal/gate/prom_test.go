package gate

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pgrid/internal/overlay"
	"pgrid/internal/replication"
)

// goldenSnapshot gives every counter, byte field and gauge of a peer
// snapshot a distinct non-zero value, so a series that reads the wrong
// field or drops out of the exposition changes the rendered text.
func goldenSnapshot() overlay.MetricsSnapshot {
	return overlay.MetricsSnapshot{
		Counts: overlay.Counts{
			overlay.Interactions:      1,
			overlay.KeysMoved:         2,
			overlay.Queries:           3,
			overlay.QueryHops:         4,
			overlay.Mutations:         5,
			overlay.MutationHops:      6,
			overlay.SyncsInSync:       7,
			overlay.SyncsDelta:        8,
			overlay.SyncsFull:         9,
			overlay.TombstonesPruned:  10,
			overlay.PersistenceErrors: 11,
			overlay.CacheHits:         12,
			overlay.CacheMisses:       13,
		},
		QueryBytes:       1400,
		MaintenanceBytes: 1500,
		Replicas:         16,
		Path:             "01101001011010010", // depth 17
		Store: replication.StoreStats{
			Items:       18,
			Tombstones:  19,
			Clock:       20,
			WALRecords:  21,
			WALSegments: 22,
			EngineStats: replication.EngineStats{Segments: 23, MemtableLen: 24, FrozenLen: 25},
		},
	}
}

// TestPeerExpositionGolden pins every peer series of /metrics — name,
// labels, value, HELP and TYPE — against testdata/peer_metrics.golden. The
// lines are compared sorted, so the order families are written in is free.
func TestPeerExpositionGolden(t *testing.T) {
	snap := goldenSnapshot()
	var b strings.Builder
	writePeerExposition(&b, &snap)
	got := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	sort.Strings(got)

	raw, err := os.ReadFile(filepath.Join("testdata", "peer_metrics.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("peer exposition differs from testdata/peer_metrics.golden; got:\n%s", strings.Join(got, "\n"))
	}

	// Every declared counter is described, distinct, and exported exactly
	// once.
	seen := make(map[string]overlay.Counter)
	for c := overlay.Counter(0); c < overlay.NumCounters; c++ {
		info := overlay.Counters[c]
		if info.Help == "" {
			t.Errorf("counter %d (%s) has no help string", c, info.Family)
		}
		series := info.Family
		if info.Label != "" {
			series += "{" + info.Label + "}"
		}
		if prev, dup := seen[series]; dup {
			t.Errorf("counters %d and %d both export %s", prev, c, series)
		}
		seen[series] = c
		n := 0
		for _, line := range got {
			if strings.HasPrefix(line, series+" ") {
				n++
			}
		}
		if n != 1 {
			t.Errorf("counter %d (%s) appears %d times in the exposition, want 1", c, series, n)
		}
	}
}
