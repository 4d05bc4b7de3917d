package replication

// This file is the store's observability read path: plain-value snapshots
// of its gauges (live pair count, tombstones, logical clock, WAL shape,
// disk-engine segment and memtable sizes), consumed by the overlay's
// MetricsSnapshot and ultimately the HTTP gateway's Prometheus endpoint.
// Every field is read under the appropriate lock and copied out, so a
// scrape never observes a half-updated figure and never blocks a mutation
// for longer than one gauge read.

import (
	"os"
	"strings"
)

// EngineStats describes the storage engine's internal shape on the disk
// policy. All fields are zero on the resident (mem) policy, whose only
// gauge is the store's own item count.
type EngineStats struct {
	// Segments is the number of immutable sorted segment files currently
	// serving reads (disk policy).
	Segments int
	// MemtableLen is the number of entries in the active memtable,
	// including delete markers shadowing segment records (disk policy).
	MemtableLen int
	// FrozenLen is the number of entries frozen for an in-progress flush
	// (disk policy; 0 outside a checkpoint).
	FrozenLen int
}

// StoreStats is a point-in-time snapshot of a store's size and persistence
// gauges.
type StoreStats struct {
	// Items is the number of live pairs.
	Items int
	// Tombstones is the number of delete tombstones retained.
	Tombstones int
	// Clock is the store's logical clock (total local mutations).
	Clock uint64
	// GCFloor is the clock of the latest tombstone prune (0 = never).
	GCFloor uint64
	// Engine is the storage engine kind (EngineMem or EngineDisk).
	Engine string
	// EngineStats describes the engine's internal shape (disk policy only).
	EngineStats EngineStats
	// Persistent reports whether the store is WAL-backed.
	Persistent bool
	// WALRecords is the number of records in the current WAL segment — the
	// input to the snapshot threshold (0 for in-memory stores).
	WALRecords int
	// WALSegments is the number of WAL segment files on disk. It stays 1
	// in steady state (checkpoints delete covered segments); growth means
	// checkpointing has stalled or failed.
	WALSegments int
}

// Stats returns a consistent snapshot of the store's gauges. Safe to call
// concurrently with mutations; intended for metrics scrapes.
func (s *Store) Stats() StoreStats {
	st := StoreStats{
		Items:       s.Len(),
		Tombstones:  s.TombstoneCount(),
		Clock:       s.Clock(),
		GCFloor:     s.GCFloor(),
		Engine:      s.EngineKind(),
		EngineStats: s.eng.stats(),
		Persistent:  s.persist != nil,
		WALRecords:  s.WALRecords(),
	}
	if s.persist != nil {
		st.WALSegments = s.persist.segmentCount()
	}
	return st
}

// segmentCount counts the WAL segment files in the persistence directory.
// A readdir per call is fine for its only caller, the metrics scrape path.
func (p *Persistence) segmentCount() int {
	entries, err := os.ReadDir(p.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".log") {
			n++
		}
	}
	return n
}

// stats reports the engine's internal shape for metrics scrapes.
func (e *engine) stats() EngineStats {
	if e.resident {
		return EngineStats{}
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	st := EngineStats{Segments: len(e.segs), MemtableLen: e.mem.len()}
	if e.frozen != nil {
		st.FrozenLen = e.frozen.len()
	}
	return st
}
