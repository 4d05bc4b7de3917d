package replication

// This file defines the pair-storage engine boundary beneath a Store. The
// Store keeps the anti-entropy brain — digest tree, logical clock, tombstone
// and GC semantics, sync baselines, WAL hooks — while the raw live pairs
// live behind the Engine interface, so the same reconciliation machinery
// runs over an in-memory ordered index (memengine.go) or an LSM-style disk
// layout (diskengine.go) without byte-level differences in digests, deltas
// or WAL replay.

import (
	"fmt"
	"os"
	"strings"
)

// Storage engine kinds accepted by NewStoreKind, PersistOptions.Engine and
// the PGRID_ENGINE environment variable.
const (
	// EngineMem is the in-memory engine (the default): every live pair
	// stays on the heap in an ordered index, lookups are O(log n), restarts
	// rebuild from snapshot + WAL.
	EngineMem = "mem"
	// EngineDisk is the disk-backed engine: live pairs live in sorted
	// segment files plus a bounded in-memory memtable, so resident memory
	// stays flat in the number of keys and recovery does not materialise
	// the pair set.
	EngineDisk = "disk"
)

// defaultEngineKind is the engine used when none is configured, switchable
// fleet-wide through the PGRID_ENGINE environment variable (read once at
// startup; CI uses it to run the full test matrix against the disk engine).
var defaultEngineKind = func() string {
	if os.Getenv("PGRID_ENGINE") == EngineDisk {
		return EngineDisk
	}
	return EngineMem
}()

// DefaultEngine returns the storage engine kind selected for this process
// (EngineMem unless PGRID_ENGINE=disk).
func DefaultEngine() string { return defaultEngineKind }

// PairRecord is one live (key, value) pair as stored by an engine: the key
// bit string, the opaque value, the pair's replication generation and the
// store clock of its last local modification (what DeltaSince keys on).
type PairRecord struct {
	Key   string // key bit string ('0'/'1' only)
	Value string
	Gen   uint64
	Ver   uint64
}

// Engine stores a Store's live pairs. Implementations order pairs by
// (key bit string, value) — note that a key sorts before every strict
// extension of itself — and must be safe for concurrent readers; mutations
// (Put, Delete, Close) are serialised by the owning Store's lock and never
// run concurrently with reads. Both engines keep their in-memory pairs in
// that order (ordered.go), so a scan seeks and walks and never sorts.
//
// Engines store exactly what they are told: generation arbitration,
// tombstones, digests and WAL logging are the Store's job.
type Engine interface {
	// Get returns the record stored for the (key, value) pair.
	Get(key, value string) (PairRecord, bool)
	// Put upserts a record. isNew tells the engine whether the pair is
	// currently absent (the caller has just established that via Get or
	// Delete), letting LSM-style engines maintain Len with a blind write
	// instead of a read-modify-write.
	Put(rec PairRecord, isNew bool)
	// Delete removes the pair, returning the removed record.
	Delete(key, value string) (PairRecord, bool)
	// ScanPrefix streams, in (key, value) order, every record whose key bit
	// string starts with prefix (raw string prefix — the zero-padded digest
	// bucket membership is layered on top by the Store) and is >= from in
	// string order ("" for no lower bound). Records below from are never
	// yielded, and the disk engine seeks past them through its segment
	// indexes, so a range read visits only the records at or past its lower
	// bound. fn returns false to stop early. fn must not call back into the
	// engine or mutate the store.
	ScanPrefix(prefix, from string, fn func(PairRecord) bool)
	// ScanKey streams, in value order, the records stored under exactly this
	// key. Equivalent to ScanPrefix(key, "") stopped at the first longer
	// key, but engines keep it cheap for the exact-match query hot path
	// (Lookup).
	ScanKey(key string, fn func(PairRecord) bool)
	// Len returns the number of live pairs.
	Len() int
	// Close releases the engine's resources. The engine must not be used
	// afterwards.
	Close() error
}

// newEngine constructs a storage engine of the given kind ("" means the
// process default). The disk engine gets a throwaway directory; persistent
// stores attach it to their data directory through OpenStore instead.
func newEngine(kind string) (Engine, error) {
	switch kind {
	case "":
		kind = defaultEngineKind
	case EngineMem, EngineDisk:
	default:
		return nil, fmt.Errorf("replication: unknown storage engine %q", kind)
	}
	if kind == EngineDisk {
		dir, err := os.MkdirTemp("", "pgrid-engine-")
		if err != nil {
			return nil, err
		}
		eng, err := openDiskEngine(dir, nil, 0)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		eng.ephemeral = true
		return eng, nil
	}
	return newMemEngine(), nil
}

// pairCompare orders two pairs by (key bit string, value), returning -1, 0
// or +1. For the bit strings the engines store, plain string order already
// puts a key before every strict extension of itself, so this matches the
// dyadic key order the digest machinery and sortItems use.
func pairCompare(aKey, aValue, bKey, bValue string) int {
	if c := strings.Compare(aKey, bKey); c != 0 {
		return c
	}
	return strings.Compare(aValue, bValue)
}

// pairLess reports whether pair a sorts before pair b.
func pairLess(aKey, aValue, bKey, bValue string) bool {
	return pairCompare(aKey, aValue, bKey, bValue) < 0
}

// scanLiveUnderLocked streams the live records in the digest bucket of
// prefix — raw-prefix matches plus the shorter keys the zero-padding rule
// assigns to the bucket (see underDigest) — in (key, value) order. Callers
// must hold s.mu.
func (s *Store) scanLiveUnderLocked(prefix string, fn func(PairRecord) bool) {
	// A key shorter than the prefix belongs to the bucket when it is a
	// prefix of it and the remaining bits are all zero; those candidates
	// sort before every full-prefix key, so emitting them first keeps the
	// stream ordered.
	firstZero := len(prefix)
	for firstZero > 0 && prefix[firstZero-1] == '0' {
		firstZero--
	}
	for l := firstZero; l < len(prefix); l++ {
		stopped := false
		s.eng.ScanKey(prefix[:l], func(rec PairRecord) bool {
			if !fn(rec) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
	}
	s.eng.ScanPrefix(prefix, "", fn)
}

// hasPrefix is strings.HasPrefix, aliased so engine code reads uniformly.
func hasPrefix(s, prefix string) bool { return strings.HasPrefix(s, prefix) }
