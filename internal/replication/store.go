// Package replication provides the data-replication substrate of the
// overlay: per-peer data stores, anti-entropy reconciliation between
// replicas of the same partition (incremental digest trees, logical-clock
// deltas, generation-stamped delete tombstones with a GC horizon), and the
// maximum-likelihood estimator of the number of replicas in a partition
// that the construction protocol uses in place of global knowledge
// (Section 4.2 of the paper).
//
// A Store is split into two layers. The index layer — this file — owns the
// anti-entropy brain: digest tree, logical clock, tombstones, GC horizon,
// sync baselines and WAL hooks. The raw live pairs live in the storage
// engine (engine.go): an ordered memtable over optional sorted segment
// files, whose residency policy — every pair in memory (EngineMem, the
// default) or in segments for stores far bigger than RAM (EngineDisk) —
// only a store with a data directory feels. Digests, deltas and WAL replay
// are byte-identical under either policy.
//
// Stores are non-durable by default. OpenStore binds one to a data
// directory instead, making its state durable through an append-only,
// CRC-framed, fsync-batched write-ahead log plus periodic compacted
// snapshots (wal.go, snapshot.go, persist.go): items, tombstones, the
// logical clock, the GC floor, per-replica sync baselines, mutation dedup
// state and overlay metadata all survive a crash, and recovery replays the
// log exactly — tolerating the torn final record a crash can leave behind.
package replication

import (
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"pgrid/internal/keyspace"
)

// Item is one stored data item: an indexed key plus an opaque value (for the
// information-retrieval application the value is a document identifier, for
// the data-management application a tuple reference).
type Item struct {
	Key   keyspace.Key
	Value string
	// Gen is the pair's logical generation, used to order live writes
	// against delete tombstones during replica reconciliation: every live
	// re-insert or delete of the same (Key, Value) pair bumps it, and the
	// merge keeps the state with the higher generation (deletes win ties).
	// It stays zero for data that never saw a live mutation.
	Gen uint64 `json:",omitempty"`
}

// DigestDepth is the deepest key-bit prefix bucket the anti-entropy digest
// walk recurses into — which is what bounds its round count.
const DigestDepth = 20

// digestDenseDepth is the deepest prefix for which the digest tree keeps
// incrementally maintained cells. Shallower digests — including the
// whole-partition digest the steady-state sync compares every tick — are
// O(1) reads; deeper bucket digests are computed by scanning the bucket,
// which only happens during walk rounds between diverged replicas and costs
// a fraction of the partition scan. Keeping the dense tree shallow caps the
// write amplification (9 cell updates per mutation) and bounds the dense
// state every snapshot carries.
const digestDenseDepth = 8

// mutationDedupWindow is the number of recent mutation IDs a store remembers
// for exactly-once coordination (MarkMutation).
const mutationDedupWindow = 1024

// GCPolicy is a Cassandra-style gc_grace horizon for delete tombstones: a
// tombstone is pruned once it is old enough that every replica syncing at the
// configured maintenance cadence must have seen it. Peers that stay silent
// longer than the horizon are detected through the store clock (see GCFloor)
// and rebuilt from an authoritative replica instead of being delta-merged, so
// a pruned delete can never be resurrected by a stale live copy.
type GCPolicy struct {
	// MinAge prunes a tombstone once its local wall-clock age exceeds this
	// duration. Zero disables the age criterion.
	MinAge time.Duration
	// MinVersions prunes a tombstone once the store clock has advanced by
	// more than this many versions since the tombstone was recorded. This is
	// the criterion to use under virtual clocks (simulations), where wall
	// time does not advance. Zero disables the version criterion.
	MinVersions uint64
}

// Enabled reports whether any pruning criterion is configured.
func (p GCPolicy) Enabled() bool { return p.MinAge > 0 || p.MinVersions > 0 }

// BucketDigest is the digest of one key-prefix bucket, exchanged during the
// anti-entropy digest walk.
type BucketDigest struct {
	// Prefix is the key-bit prefix the bucket covers.
	Prefix keyspace.Path
	// Hash is the order-independent XOR digest over every (key, value, gen,
	// live/tombstoned) pair under Prefix. Two replicas hold identical state
	// under the prefix exactly when their hashes match. A hash is uniform
	// over 64 bits, so on the wire it is 8 fixed bytes, not a varint.
	Hash uint64 `wire:"fixed64"`
	// Count is the number of pairs (live plus tombstoned) under Prefix.
	Count int
}

// tombstone is the store-local record of a deleted pair: the generation that
// orders it against live copies, the local clock/time of its recording used
// by the GC horizon, and the pair's last-modified clock (what DeltaSince
// keys on; live pairs carry theirs in the engine's PairRecord.Ver).
type tombstone struct {
	gen  uint64
	born uint64 // store clock when the tombstone was recorded locally
	at   int64  // local wall-clock time of the recording, in Unix nanoseconds
	ver  uint64 // store clock of the last modification
}

// pairKey names one (key, value) pair: the key's bit string and the value.
type pairKey struct {
	k, v string
}

// digestCell is one node of the incremental digest tree; the zero cell is
// an empty bucket.
type digestCell struct {
	hash uint64
	n    int
}

// Store is a peer's local data store. It is safe for concurrent use.
//
// Deletions are remembered as generation-stamped tombstones. Which state of
// a pair wins is decided by Merge (pair.go) and nowhere else: every write
// reads the pair's state, merges one event into it and writes the
// difference (applyLocked).
//
// The store additionally maintains, incrementally on every mutation:
//
//   - a logical clock (Clock) that stamps each pair's last local
//     modification, so replicas can pull exact deltas (DeltaSince) instead
//     of full sets;
//   - a Merkle-style digest tree over key-bit prefixes (Digest,
//     DigestChildren), so replicas can find the few differing buckets by
//     comparing O(log n) hashes;
//   - a GC horizon (SetGCPolicy, CompactTombstones) that prunes tombstones
//     once every replica syncing at the maintenance cadence must have seen
//     them. GCFloor reports the clock of the latest prune: deltas reaching
//     further back are incomparable and callers must fall back to a full
//     sync/rebuild.
type Store struct {
	mu  sync.RWMutex
	eng *engine // live pairs (engine.go)
	// tombs holds one record per tombstoned pair. It is flat, not a map per
	// key: a delete of a fresh key, the common case, then costs one map
	// entry instead of a map of its own.
	tombs   map[pairKey]tombstone
	dig     [2 << digestDenseDepth]digestCell // by marker-bit prefix index (densePrefixIndex)
	clock   uint64
	gcFloor uint64
	gc      GCPolicy
	now     func() time.Time

	// Mutation dedup ring (MarkMutation): the overlay's exactly-once write
	// coordination. Persisted through the WAL and snapshots so a restarted
	// coordinator does not re-apply a retransmitted mutation.
	mutSeen map[uint64]bool
	mutLog  []uint64
	mutPos  int

	// persist, when non-nil, is the WAL + snapshot machinery every mutation
	// is logged to (see persist.go); baselines and metadata are the small
	// non-pair state that rides along so a restarted peer can resume
	// anti-entropy where it left off.
	persist   *Persistence
	baselines map[string]Baseline
	metadata  map[string]string
	// muted suppresses per-pair WAL records while a compound mutation that
	// is logged as one record (ReplaceWithin) runs (guarded by mu).
	muted bool
	// batched holds WAL records back while a bulk apply runs, so its
	// records reach the file in one write (guarded by mu; see
	// beginBatchLocked).
	batched bool

	// deepMu guards deep, the one-entry cache of the last digest computed
	// for a prefix below the dense tree. The steady-state sync reads the
	// whole-partition digest every tick; for partitions deeper than the
	// dense tree that read would otherwise re-scan the store each time. The
	// cache is validated against the clock, which every digest-changing
	// mutation (including tombstone GC) advances.
	deepMu sync.Mutex
	deep   struct {
		prefix string
		hash   uint64
		n      int
		clock  uint64
		ok     bool
	}
}

// NewStore creates an empty store without a data directory, on the
// process-default storage engine kind (EngineMem unless PGRID_ENGINE=disk).
func NewStore() *Store { return newStoreWithEngine(newEngine(defaultEngineKind == EngineMem)) }

// NewStoreKind creates an empty store without a data directory on the
// given storage engine kind (EngineMem, EngineDisk, or "" for the process
// default), refusing unknown kinds. The kind is a residency policy that
// only matters at checkpoint and open, so such a store behaves the same
// under either; it reports the kind through EngineKind. Durable stores are
// opened through OpenStore with PersistOptions.Engine instead.
func NewStoreKind(kind string) (*Store, error) {
	resident, err := residentKind(kind)
	if err != nil {
		return nil, err
	}
	return newStoreWithEngine(newEngine(resident)), nil
}

// newStoreWithEngine wires a store around an existing engine. The
// tombstone map is allocated lazily on first use: a freshly joined peer in
// a large simulation holds no state yet, and thousands of empty maps are
// pure overhead.
func newStoreWithEngine(eng *engine) *Store {
	return &Store{eng: eng, now: time.Now}
}

// EngineKind returns the storage engine kind backing the store (EngineMem
// or EngineDisk).
func (s *Store) EngineKind() string {
	if s.eng.resident {
		return EngineMem
	}
	return EngineDisk
}

// SetTimeSource replaces the wall-clock source used to age tombstones
// (virtual clocks in simulations, frozen clocks in tests).
func (s *Store) SetTimeSource(now func() time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if now != nil {
		s.now = now
	}
}

// SetGCPolicy installs the tombstone GC horizon applied by
// CompactTombstones.
func (s *Store) SetGCPolicy(p GCPolicy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gc = p
}

// Clock returns the store's logical clock: it advances on every visible
// local mutation, and each pair remembers the clock value of its last
// change, which is what DeltaSince keys on.
func (s *Store) Clock() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.clock
}

// GCFloor returns the highest last-modified version among ever-pruned
// tombstones (0 when nothing was ever pruned). A replica that last
// synchronised before the floor may have missed a pruned delete entirely,
// so deltas from before the floor are incomparable and such replicas must
// be resynchronised with a full exchange; replicas that synced during the
// pruned tombstones' lifetime stay comparable.
func (s *Store) GCFloor() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gcFloor
}

// TombstoneCount returns the number of tombstoned pairs currently held.
func (s *Store) TombstoneCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tombs)
}

// CompactTombstones prunes every tombstone past the GC horizon, advances
// the GC floor, and returns the number of tombstones pruned. It is a no-op
// when no GC policy is set.
func (s *Store) CompactTombstones() int {
	return len(s.CompactTombstonesCollect())
}

// CompactTombstonesCollect is CompactTombstones returning the pruned
// (key, value) pairs, each stamped with the generation its tombstone
// carried — the batch a compacting peer pushes to its replicas so they
// drop the same tombstones cooperatively (DropTombstones) instead of
// re-learning the prune through later sync rounds.
func (s *Store) CompactTombstonesCollect() []Item {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.gc.Enabled() {
		return nil
	}
	now := s.now().UnixNano()
	var prunedPairs []prunedPair
	for pk, t := range s.tombs {
		expired := s.gc.MinAge > 0 && now-t.at >= int64(s.gc.MinAge) ||
			s.gc.MinVersions > 0 && s.clock-t.born >= s.gc.MinVersions
		if expired {
			prunedPairs = append(prunedPairs, prunedPair{K: pk.k, V: pk.v})
		}
	}
	// Map order is random: sort, so that stores built by the same
	// operations return the same batch and log the same prune record.
	slices.SortFunc(prunedPairs, func(a, b prunedPair) int { return pairCompare(a.K, a.V, b.K, b.V) })
	var pruned []Item
	for _, pp := range prunedPairs {
		t := s.tombs[pairKey{pp.K, pp.V}]
		s.pruneTombLocked(pp.K, pp.V, t)
		pruned = append(pruned, Item{Key: keyspace.MustFromString(pp.K), Value: pp.V, Gen: t.gen})
	}
	s.endPruneLocked(prunedPairs)
	return pruned
}

// DropTombstones applies a cooperative prune notification: for each given
// pair whose local tombstone is not newer than the notified generation, the
// tombstone is removed and the GC floor advanced exactly as a local
// compaction would. Returns the number of tombstones dropped. Newer local
// tombstones (a delete this store saw after the notifier snapshotted) are
// kept untouched.
func (s *Store) DropTombstones(pairs []Item) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var pruned []prunedPair
	for _, p := range pairs {
		ks := p.Key.String()
		if s.applyLocked(ks, p.Value, Event{Op: Drop, Gen: p.Gen}).New {
			pruned = append(pruned, prunedPair{K: ks, V: p.Value})
		}
	}
	s.endPruneLocked(pruned)
	return len(pruned)
}

// FNV-1a constants for the pair digests.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// pairHash digests one pair state. Live copies and tombstones of the same
// pair and generation hash differently, so replicas disagreeing only on
// liveness still show a digest mismatch.
func pairHash(ks, value string, gen uint64, live bool) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(ks); i++ {
		h = (h ^ uint64(ks[i])) * fnvPrime
	}
	h = (h ^ 0x1f) * fnvPrime
	for i := 0; i < len(value); i++ {
		h = (h ^ uint64(value[i])) * fnvPrime
	}
	for i := 0; i < 8; i++ {
		h = (h ^ (gen >> (8 * i) & 0xff)) * fnvPrime
	}
	if live {
		h = (h ^ 1) * fnvPrime
	} else {
		h = (h ^ 2) * fnvPrime
	}
	return h
}

func liveHash(ks, value string, gen uint64) uint64 { return pairHash(ks, value, gen, true) }
func tombHash(ks, value string, gen uint64) uint64 { return pairHash(ks, value, gen, false) }

// densePrefixIndex encodes a dense-tree prefix (a '0'/'1' bit string of
// length <= digestDenseDepth) as a marker-bit integer: (1<<len(p)) | bits.
// The marker bit disambiguates depth — "0" (idx 2) and "00" (idx 4) are
// distinct cells — so every dense prefix maps to a unique index in
// [1, 2^(digestDenseDepth+1)) of the store's flat cell array. Strings
// appear only at the snapshot boundary (see persist.go), keeping the
// on-disk format unchanged.
func densePrefixIndex(p string) uint16 {
	idx := uint16(1)
	for i := 0; i < len(p); i++ {
		idx <<= 1
		if p[i] == '1' {
			idx |= 1
		}
	}
	return idx
}

// densePrefixString decodes a marker-bit index back into its bit string,
// for writing snapshot digest records.
func densePrefixString(idx uint16) string { return densePrefixStrings[idx] }

// densePrefixStrings holds every dense-tree prefix's bit string by index,
// built once, so a checkpoint names its digest cells without allocating.
var densePrefixStrings = func() (names [2 << digestDenseDepth]string) {
	for idx := 2; idx < len(names); idx++ { // 1 is the root, ""
		names[idx] = names[idx>>1] + string("01"[idx&1])
	}
	return names
}()

// underDigest reports whether the (possibly short) key bit string belongs
// to the digest bucket of the prefix, under the zero-padding rule.
func underDigest(ks, prefix string) bool {
	if len(ks) >= len(prefix) {
		return strings.HasPrefix(ks, prefix)
	}
	if !strings.HasPrefix(prefix, ks) {
		return false
	}
	for i := len(ks); i < len(prefix); i++ {
		if prefix[i] != '0' {
			return false
		}
	}
	return true
}

// digestXorLocked folds a pair-state hash into the digest cells of every
// tracked prefix of the (padded) key, adjusting the pair count by dn (+1
// when the pair state appears, -1 when it disappears; a replaced state is
// one of each). Callers must hold mu.
func (s *Store) digestXorLocked(ks string, h uint64, dn int) {
	// Keys shorter than the dense depth are zero-padded for bucketing (the
	// dyadic lower edge — see underDigest), which here just means missing
	// bits read as '0' while descending the marker-bit indices.
	idx := 1
	for d := 0; ; d++ {
		s.dig[idx].hash ^= h
		s.dig[idx].n += dn
		if d == digestDenseDepth {
			return
		}
		idx <<= 1
		if d < len(ks) && ks[d] == '1' {
			idx |= 1
		}
	}
}

// stateLocked reads the pair's state, and its tombstone when it has one
// (callers must hold mu). A pair is never both live and tombstoned, so a
// tombstone answers without an engine read.
func (s *Store) stateLocked(ks, value string) (PairState, tombstone) {
	if t, ok := s.tombs[pairKey{ks, value}]; ok {
		return PairState{Kind: Tombstoned, Gen: t.gen}, t
	}
	if rec, ok := s.eng.Get(ks, value); ok {
		return PairState{Kind: Live, Gen: rec.Gen}, tombstone{}
	}
	return PairState{}, tombstone{}
}

// applyLocked reads the pair's state, merges the event into it (pair.go)
// and writes the difference (callers must hold mu): the engine copy, the
// tombstone, the digest, one clock tick stamping the pair's version, and
// one WAL record — opAdd for a live result, opTomb for a tombstone. A new
// tombstone is born at the clock before the tick; a re-stamped one keeps
// its birth. A dropped tombstone goes the way of every prune
// (pruneTombLocked), whose clock tick and WAL record the caller issues for
// the batch.
func (s *Store) applyLocked(ks, value string, ev Event) Outcome {
	cur, t := s.stateLocked(ks, value)
	next, out := Merge(cur, ev)
	switch {
	case next == cur:
		return out
	case next.Kind == Absent:
		s.pruneTombLocked(ks, value, t)
		return out
	}
	if cur.Kind != Absent {
		s.digestXorLocked(ks, pairHash(ks, value, cur.Gen, cur.Kind == Live), -1)
	}
	s.digestXorLocked(ks, pairHash(ks, value, next.Gen, next.Kind == Live), 1)
	born := s.clock
	s.clock++
	if next.Kind == Live {
		if cur.Kind == Tombstoned {
			s.deleteTombLocked(ks, value)
		}
		s.eng.Put(PairRecord{Key: ks, Value: value, Gen: next.Gen, Ver: s.clock}, cur.Kind != Live)
		s.logLocked(opAdd, walPair{K: ks, V: value, Gen: next.Gen})
		return out
	}
	if cur.Kind == Live {
		s.eng.Delete(ks, value)
	}
	if cur.Kind == Tombstoned {
		born = t.born
	} else {
		t.at = s.now().UnixNano()
	}
	s.putTombLocked(ks, value, tombstone{gen: next.Gen, born: born, at: t.at, ver: s.clock})
	s.logLocked(opTomb, walPair{K: ks, V: value, Gen: next.Gen})
	return out
}

// putTombLocked records the pair's tombstone (callers must hold mu and
// maintain the digest).
func (s *Store) putTombLocked(ks, value string, t tombstone) {
	if s.tombs == nil {
		s.tombs = make(map[pairKey]tombstone)
	}
	s.tombs[pairKey{ks, value}] = t
}

// deleteTombLocked removes the pair's tombstone record (callers must hold
// mu and maintain the digest).
func (s *Store) deleteTombLocked(ks, value string) {
	delete(s.tombs, pairKey{ks, value})
}

// pruneTombLocked removes a tombstone the way GC does — local compaction,
// a cooperative drop and WAL replay of either alike: the GC floor advances
// to the tombstone's last-modified version, its digest contribution goes,
// and the record is deleted (callers must hold mu, and finish the batch
// with endPruneLocked).
func (s *Store) pruneTombLocked(ks, value string, t tombstone) {
	// The floor must cover the pruned tombstone's last-modified version,
	// not the prune-time clock: a replica that synced any time during the
	// tombstone's lifetime has seen it and remains delta-comparable; only
	// replicas that missed the whole window (offline longer than the
	// horizon) must rebuild.
	s.gcFloor = max(s.gcFloor, t.ver)
	s.digestXorLocked(ks, tombHash(ks, value, t.gen), -1)
	s.deleteTombLocked(ks, value)
}

// endPruneLocked closes a batch of prunes: a prune changes the digest
// without touching any pair's version, so the clock advances once for
// clock-validated digest caches to notice, and the batch is logged as one
// record (callers must hold mu).
func (s *Store) endPruneLocked(pruned []prunedPair) {
	if len(pruned) == 0 {
		return
	}
	s.clock++
	s.logLocked(opPrune, walPrune{Pairs: pruned, Floor: s.gcFloor})
}

// Apply merges one event into the (key, value) pair (see Merge) and
// returns its outcome. The overlay's Direct fan-out leg uses it to take its
// ack and generation from the apply itself.
func (s *Store) Apply(key keyspace.Key, value string, ev Event) Outcome {
	ks := key.String()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyLocked(ks, value, ev)
}

// Add inserts a replicated item. Duplicate (key, value) pairs are ignored so
// that replica reconciliation is idempotent, and pairs tombstoned at the
// same or a higher generation are refused so that reconciliation cannot
// resurrect deleted items; a copy carrying a higher generation than the
// tombstone (a deliberate re-insert elsewhere) clears it and wins. It
// reports whether the pair became live.
func (s *Store) Add(it Item) bool {
	return s.Apply(it.Key, it.Value, Event{Op: Replicate, Kind: Live, Gen: it.Gen}).New
}

// Insert is a live write: it stamps the pair with a generation above any
// local tombstone or live copy, and at least it.Gen — so a pair that was
// deleted earlier is deliberately re-inserted and the new generation
// propagates through reconciliation — and returns the stamped item for
// replica fan-out.
func (s *Store) Insert(it Item) Item {
	it.Gen = s.Apply(it.Key, it.Value, Event{Op: Stamp, Kind: Live, Gen: it.Gen}).Gen
	return it
}

// Delete removes the (key, value) pair and records a tombstone stamped
// above every state this store has seen for the pair. It returns true when
// the store changed visibly: a live copy was removed or the tombstone is
// new (re-stamping an existing tombstone does not count).
func (s *Store) Delete(key keyspace.Key, value string) bool {
	return s.Apply(key, value, Event{Op: Stamp, Kind: Tombstoned}).New
}

// DeleteStamped is Delete returning the generation-stamped tombstone as an
// item, for fan-out to replicas: applying that exact stamp everywhere (via
// AddTombstones) orders the delete consistently against concurrent
// re-inserts even at replicas whose own tombstone history is stale. floor is
// the highest generation the coordinator has seen reported elsewhere (0 when
// none); the stamp always ends up strictly above it.
func (s *Store) DeleteStamped(key keyspace.Key, value string, floor uint64) Item {
	out := s.Apply(key, value, Event{Op: Stamp, Kind: Tombstoned, Gen: floor + 1})
	return Item{Key: key, Value: value, Gen: out.Gen}
}

// Deleted reports whether the (key, value) pair is tombstoned.
func (s *Store) Deleted(key keyspace.Key, value string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.tombs[pairKey{key.String(), value}]
	return ok
}

// Live reports whether the (key, value) pair is currently stored.
func (s *Store) Live(key keyspace.Key, value string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.eng.Get(key.String(), value)
	return ok
}

// PairGen returns the highest generation this store has seen for the
// (key, value) pair — live or tombstoned — and 0 for an unknown pair.
func (s *Store) PairGen(key keyspace.Key, value string) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, _ := s.stateLocked(key.String(), value)
	return st.Gen
}

// Tombstones returns the deleted (key, value) pairs as generation-stamped
// items, ordered by key then value, for exchange during anti-entropy. The
// returned slice is freshly allocated and shares no memory with the store.
func (s *Store) Tombstones() []Item {
	return s.tombstones(nil)
}

// TombstonesWithPrefix returns the tombstones whose keys start with the path.
func (s *Store) TombstonesWithPrefix(p keyspace.Path) []Item {
	return s.tombstones(func(ks string) bool { return strings.HasPrefix(ks, string(p)) })
}

// tombstones collects tombstones whose key bit strings pass the filter
// (nil = all).
func (s *Store) tombstones(keep func(string) bool) []Item {
	s.mu.RLock()
	var out []Item
	for pk, t := range s.tombs {
		if keep == nil || keep(pk.k) {
			out = append(out, Item{Key: keyspace.MustFromString(pk.k), Value: pk.v, Gen: t.gen})
		}
	}
	s.mu.RUnlock()
	sortItems(out)
	return out
}

// AddTombstones applies tombstones received from a replica: live copies at
// the same or a lower generation are dropped and the tombstones recorded
// (deletes win generation ties; a live copy with a strictly higher
// generation — a newer re-insert — survives). It returns the number of
// tombstones that changed this store. Like AddAll, it takes one lock hold
// and one WAL write.
func (s *Store) AddTombstones(items []Item) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.beginBatchLocked()
	defer s.endBatchLocked()
	n := 0
	for _, it := range items {
		if s.applyLocked(it.Key.String(), it.Value, Event{Op: Replicate, Kind: Tombstoned, Gen: it.Gen}).New {
			n++
		}
	}
	return n
}

// MarkMutation records a coordinated mutation ID in the store's dedup ring
// and reports whether it was new — false means the mutation was already
// applied and must not run again. The ring (and thus exactly-once
// coordination) survives restarts on persistent stores: marks are
// WAL-logged and snapshot-carried. The zero ID is never deduplicated.
func (s *Store) MarkMutation(id uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.markLoggedLocked(id)
}

// MarkAndApply is MarkMutation followed by Apply under one lock hold, the
// mark's WAL record and the pair's written in one write. It reports the
// apply's outcome and whether the ID was new. With once set a seen ID
// applies nothing (a coordinator's duplicate); without it the event is
// applied either way (a replica leg, which Merge makes idempotent).
func (s *Store) MarkAndApply(id uint64, key keyspace.Key, value string, ev Event, once bool) (Outcome, bool) {
	ks := key.String()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.beginBatchLocked()
	defer s.endBatchLocked()
	fresh := s.markLoggedLocked(id)
	if !fresh && once {
		return Outcome{}, false
	}
	return s.applyLocked(ks, value, ev), fresh
}

// markLoggedLocked is MarkMutation's body (callers must hold mu).
func (s *Store) markLoggedLocked(id uint64) bool {
	if id == 0 {
		return true
	}
	if !s.markMutationLocked(id) {
		return false
	}
	s.logLocked(opMutSeen, walMutation{ID: id})
	return true
}

// markMutationLocked inserts the ID into the dedup ring, evicting the
// oldest entry once the window is full (callers must hold mu).
func (s *Store) markMutationLocked(id uint64) bool {
	if s.mutSeen[id] {
		return false
	}
	if s.mutSeen == nil {
		s.mutSeen = make(map[uint64]bool)
	}
	if len(s.mutLog) < mutationDedupWindow {
		s.mutLog = append(s.mutLog, id)
	} else {
		delete(s.mutSeen, s.mutLog[s.mutPos])
		s.mutLog[s.mutPos] = id
		s.mutPos = (s.mutPos + 1) % mutationDedupWindow
	}
	s.mutSeen[id] = true
	return true
}

// mutationRingLocked returns the dedup ring's IDs oldest-first (callers
// must hold mu; snapshot capture).
func (s *Store) mutationRingLocked() []uint64 {
	if len(s.mutLog) == 0 {
		return nil
	}
	out := make([]uint64, 0, len(s.mutLog))
	out = append(out, s.mutLog[s.mutPos:]...)
	out = append(out, s.mutLog[:s.mutPos]...)
	return out
}

// AddAll inserts a batch of items, each as Add does, and returns how many
// were new. The batch is applied under one lock hold and its WAL records are
// written in one write.
func (s *Store) AddAll(items []Item) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.beginBatchLocked()
	defer s.endBatchLocked()
	n := 0
	for _, it := range items {
		if s.applyLocked(it.Key.String(), it.Value, Event{Op: Replicate, Kind: Live, Gen: it.Gen}).New {
			n++
		}
	}
	return n
}

// Len returns the number of stored items.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.eng.Len()
}

// Keys returns the distinct keys present in the store, in key order.
func (s *Store) Keys() keyspace.Keys { return s.KeysWithPrefix(keyspace.Root) }

// KeysWithPrefix returns the distinct keys under path p, in key order: what
// Keys().FilterPrefix(p) returns, read from p's part of the store only. The
// engine yields in (key, value) order and Key.Compare is string order, so
// the keys need no sort.
func (s *Store) KeysWithPrefix(p keyspace.Path) keyspace.Keys {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out keyspace.Keys
	last, first := "", true
	s.eng.ScanPrefix(string(p), "", func(rec PairRecord) bool {
		if first || rec.Key != last {
			out = append(out, keyspace.MustFromString(rec.Key))
			last, first = rec.Key, false
		}
		return true
	})
	return out
}

// Items returns all items ordered by key then value, the engine's scan
// order. The slice is freshly allocated.
func (s *Store) Items() []Item {
	s.mu.RLock()
	out := make([]Item, 0, s.eng.Len())
	s.eng.ScanPrefix("", "", func(rec PairRecord) bool {
		out = append(out, Item{Key: keyspace.MustFromString(rec.Key), Value: rec.Value, Gen: rec.Gen})
		return true
	})
	s.mu.RUnlock()
	return out
}

// Lookup returns the items stored under the exact key. The slice is freshly
// allocated.
func (s *Store) Lookup(k keyspace.Key) []Item {
	ks := k.String()
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Item
	s.eng.ScanKey(ks, func(rec PairRecord) bool {
		out = append(out, Item{Key: k, Value: rec.Value, Gen: rec.Gen})
		return true
	})
	return out
}

// ItemsWithPrefix returns the items whose keys start with the given path.
func (s *Store) ItemsWithPrefix(p keyspace.Path) []Item {
	s.mu.RLock()
	var out []Item
	s.eng.ScanPrefix(string(p), "", func(rec PairRecord) bool {
		out = append(out, Item{Key: keyspace.MustFromString(rec.Key), Value: rec.Value, Gen: rec.Gen})
		return true
	})
	s.mu.RUnlock()
	return out
}

// ItemsInRange returns the items whose keys fall into the range.
func (s *Store) ItemsInRange(r keyspace.Range) []Item {
	var out []Item
	s.ScanRange(r, func(it Item) bool {
		out = append(out, it)
		return true
	})
	return out
}

// ScanRange streams, in key order, the items whose keys fall into the range,
// without materialising the partition: the engine scan seeks to Lo, stays
// under the common key-bit prefix of the range's bounds and stops at the
// first key at or past Hi, so it visits only the records it returns plus
// one. fn returns false to stop early; it must not call back into the
// store.
func (s *Store) ScanRange(r keyspace.Range, fn func(Item) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.scanRangeLocked(r, fn)
}

// scanRangeLocked is ScanRange under the caller's read lock. It returns the
// number of records the engine scan yielded, which a test holds to the
// number returned plus one.
func (s *Store) scanRangeLocked(r keyspace.Range, fn func(Item) bool) (yielded int) {
	prefix, lo, hi := rangeBounds(r)
	s.eng.ScanPrefix(prefix, lo, func(rec PairRecord) bool {
		yielded++
		if !r.HiUnbounded && rec.Key >= hi {
			return false // scan order matches key order: nothing further fits
		}
		return fn(Item{Key: keyspace.MustFromString(rec.Key), Value: rec.Value, Gen: rec.Gen})
	})
	return yielded
}

// rangeBounds returns the engine scan a range read issues: the prefix and
// lower bound to pass to ScanPrefix, and the key bit string at which to
// stop ("" when Hi is unbounded). Key.Compare is exactly Go string order on
// the keys' '0'/'1' renderings (a proper prefix sorts first), so the lower
// bound and the Hi check compare strings, and only the records returned
// are parsed. Every key in [Lo, Hi) shares the bounds' longest common bit
// prefix: a key diverging above it sorts after Hi.
func rangeBounds(r keyspace.Range) (prefix, lo, hi string) {
	lo = r.Lo.String()
	if r.HiUnbounded {
		return "", lo, ""
	}
	hi = r.Hi.String()
	i := 0
	for i < len(lo) && i < len(hi) && lo[i] == hi[i] {
		i++
	}
	return lo[:i], lo, hi
}

// CountWithPrefix returns the number of items under the given path.
func (s *Store) CountWithPrefix(p keyspace.Path) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	s.eng.ScanPrefix(string(p), "", func(PairRecord) bool {
		n++
		return true
	})
	return n
}

// RemovePrefix removes and returns every item whose key starts with the
// path (used to hand a sub-partition's content over to its new owner during
// a split).
func (s *Store) RemovePrefix(p keyspace.Path) []Item {
	s.mu.Lock()
	removed := s.removePrefixLocked(p)
	s.mu.Unlock()
	return removed
}

// removePrefixLocked is RemovePrefix without the lock (shared with WAL
// replay; callers must hold mu).
func (s *Store) removePrefixLocked(p keyspace.Path) []Item {
	var recs []PairRecord
	s.eng.ScanPrefix(string(p), "", func(rec PairRecord) bool {
		recs = append(recs, rec)
		return true
	})
	removed := s.dropLiveLocked(recs)
	if len(removed) > 0 {
		s.clock++
		s.logLocked(opRemovePrefix, walPrefix{P: string(p)})
	}
	return removed
}

// RetainPrefix drops every item whose key does not start with the path,
// returning the removed items (handed over to the counterpart in a split).
func (s *Store) RetainPrefix(p keyspace.Path) []Item {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retainPrefixLocked(p)
}

// retainPrefixLocked is RetainPrefix's body (shared with WAL replay;
// callers must hold mu).
func (s *Store) retainPrefixLocked(p keyspace.Path) []Item {
	var recs []PairRecord
	s.eng.ScanPrefix("", "", func(rec PairRecord) bool {
		if !strings.HasPrefix(rec.Key, string(p)) {
			recs = append(recs, rec)
		}
		return true
	})
	removed := s.dropLiveLocked(recs)
	if len(removed) > 0 {
		s.clock++
		s.logLocked(opRetainPrefix, walPrefix{P: string(p)})
	}
	return removed
}

// dropLiveLocked deletes the collected records from the engine and digest,
// returning them as items (callers must hold mu).
func (s *Store) dropLiveLocked(recs []PairRecord) []Item {
	var removed []Item
	for _, rec := range recs {
		s.digestXorLocked(rec.Key, liveHash(rec.Key, rec.Value, rec.Gen), -1)
		s.eng.Delete(rec.Key, rec.Value)
		removed = append(removed, Item{Key: keyspace.MustFromString(rec.Key), Value: rec.Value, Gen: rec.Gen})
	}
	return removed
}

// Digest returns the XOR digest and pair count (live plus tombstoned) of the
// key-prefix bucket. Shallow prefixes (up to the dense tree depth) are
// served from the incrementally maintained cells in O(1); deeper buckets
// are scanned on demand, with the most recent result cached per clock so
// the steady-state root comparison of a deep partition stays O(1) between
// mutations.
func (s *Store) Digest(prefix keyspace.Path) (uint64, int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(prefix) <= digestDenseDepth {
		cell := s.dig[densePrefixIndex(string(prefix))]
		return cell.hash, cell.n
	}
	s.deepMu.Lock()
	if s.deep.ok && s.deep.prefix == string(prefix) && s.deep.clock == s.clock {
		h, n := s.deep.hash, s.deep.n
		s.deepMu.Unlock()
		return h, n
	}
	s.deepMu.Unlock()
	h, n := s.digestLocked(prefix)
	s.deepMu.Lock()
	s.deep.prefix, s.deep.hash, s.deep.n, s.deep.clock, s.deep.ok = string(prefix), h, n, s.clock, true
	s.deepMu.Unlock()
	return h, n
}

// digestLocked computes a bucket digest below the dense tree by scanning the
// bucket, filtered by the padded-prefix membership rule (callers must hold
// mu; shallow prefixes are served by the dense cells).
func (s *Store) digestLocked(prefix keyspace.Path) (uint64, int) {
	if len(prefix) <= digestDenseDepth {
		cell := s.dig[densePrefixIndex(string(prefix))]
		return cell.hash, cell.n
	}
	var h uint64
	n := 0
	s.scanLiveUnderLocked(string(prefix), func(rec PairRecord) bool {
		h ^= liveHash(rec.Key, rec.Value, rec.Gen)
		n++
		return true
	})
	for pk, t := range s.tombs {
		if underDigest(pk.k, string(prefix)) {
			h ^= tombHash(pk.k, pk.v, t.gen)
			n++
		}
	}
	return h, n
}

// DigestChildren returns the digests of all 2^width extensions of the
// prefix, including empty ones, so two replicas can compare the same bucket
// set during the anti-entropy digest walk. Bucket membership follows the
// zero-padding rule (see underDigest), so the children exactly partition the
// parent even in the presence of keys shorter than the child depth.
func (s *Store) DigestChildren(prefix keyspace.Path, width int) []BucketDigest {
	if width < 1 {
		width = 1
	}
	childDepth := len(prefix) + width
	out := make([]BucketDigest, 1<<width)
	for i := range out {
		b := make([]byte, 0, childDepth)
		b = append(b, prefix...)
		for d := width - 1; d >= 0; d-- {
			if i>>uint(d)&1 == 1 {
				b = append(b, '1')
			} else {
				b = append(b, '0')
			}
		}
		out[i].Prefix = keyspace.Path(b)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if childDepth <= digestDenseDepth {
		for i := range out {
			cell := s.dig[densePrefixIndex(string(out[i].Prefix))]
			out[i].Hash, out[i].Count = cell.hash, cell.n
		}
		return out
	}
	// Below the dense tree: one pass over the parent bucket bucketises every
	// pair into its child by the (zero-padded) key bits at the child depth,
	// instead of 2^width independent scans.
	bucket := func(ks string) int {
		if !underDigest(ks, string(prefix)) {
			return -1
		}
		idx := 0
		for d := len(prefix); d < childDepth; d++ {
			idx <<= 1
			if d < len(ks) && ks[d] == '1' {
				idx |= 1
			}
		}
		return idx
	}
	s.scanLiveUnderLocked(string(prefix), func(rec PairRecord) bool {
		if idx := bucket(rec.Key); idx >= 0 {
			out[idx].Hash ^= liveHash(rec.Key, rec.Value, rec.Gen)
			out[idx].Count++
		}
		return true
	})
	for pk, t := range s.tombs {
		if idx := bucket(pk.k); idx >= 0 {
			out[idx].Hash ^= tombHash(pk.k, pk.v, t.gen)
			out[idx].Count++
		}
	}
	return out
}

// DeltaSince returns every pair modified after the given store clock value —
// live items and tombstones separately — together with ok reporting whether
// the delta is complete: when since predates the GC floor, pruned tombstones
// can no longer be reproduced and the caller must fall back to a full
// exchange.
func (s *Store) DeltaSince(since uint64) (items, tombs []Item, ok bool) {
	return s.DeltaSinceWithPrefix(keyspace.Root, since)
}

// DeltaSinceWithPrefix is DeltaSince restricted to keys under the path
// (padded-membership, matching the digest machinery).
func (s *Store) DeltaSinceWithPrefix(p keyspace.Path, since uint64) (items, tombs []Item, ok bool) {
	s.mu.RLock()
	if since < s.gcFloor {
		s.mu.RUnlock()
		return nil, nil, false
	}
	if since < s.clock { // nothing can be newer than the clock itself
		s.scanLiveUnderLocked(string(p), func(rec PairRecord) bool {
			if rec.Ver > since {
				items = append(items, Item{Key: keyspace.MustFromString(rec.Key), Value: rec.Value, Gen: rec.Gen})
			}
			return true
		})
		for pk, t := range s.tombs {
			if t.ver > since && underDigest(pk.k, string(p)) {
				tombs = append(tombs, Item{Key: keyspace.MustFromString(pk.k), Value: pk.v, Gen: t.gen})
			}
		}
	}
	s.mu.RUnlock()
	sortItems(items)
	sortItems(tombs)
	return items, tombs, true
}

// ContentWithin returns the live items and tombstones under any of the given
// prefixes (used to exchange the differing buckets found by a digest walk).
// Membership follows the digest machinery's zero-padding rule, so whatever
// a bucket digest covers is exactly what the bucket exchange transfers. The
// prefixes are expected to be non-overlapping.
func (s *Store) ContentWithin(prefixes []keyspace.Path) (items, tombs []Item) {
	s.mu.RLock()
	for _, p := range prefixes {
		s.scanLiveUnderLocked(string(p), func(rec PairRecord) bool {
			items = append(items, Item{Key: keyspace.MustFromString(rec.Key), Value: rec.Value, Gen: rec.Gen})
			return true
		})
	}
	for pk, t := range s.tombs {
		if underAnyDigest(pk.k, prefixes) {
			tombs = append(tombs, Item{Key: keyspace.MustFromString(pk.k), Value: pk.v, Gen: t.gen})
		}
	}
	s.mu.RUnlock()
	sortItems(items)
	sortItems(tombs)
	return items, tombs
}

// ReplaceWithin atomically replaces the store's content under the path with
// the given live items and tombstones: a rebuild from an authoritative
// replica after the local copy went stale past the replica's GC horizon.
// Local live copies and tombstones under the path are dropped first, so a
// stale pair that was deleted-and-pruned elsewhere cannot survive the
// rebuild. It returns the store clock after the replacement, taken
// atomically with it, so callers can record a sync baseline that provably
// covers the installed content and nothing newer.
func (s *Store) ReplaceWithin(p keyspace.Path, items, tombs []Item) uint64 {
	rec := walReplace{P: string(p), Items: walPairs(items), Tombs: walPairs(tombs)}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.logLocked(opReplace, rec)
	s.muted = true
	defer func() { s.muted = false }()
	return s.replaceWithinLocked(rec)
}

// walPairs renders items as WAL pair records.
func walPairs(items []Item) []walPair {
	if len(items) == 0 {
		return nil
	}
	out := make([]walPair, len(items))
	for i, it := range items {
		out[i] = walPair{K: it.Key.String(), V: it.Value, Gen: it.Gen}
	}
	return out
}

// replaceWithinLocked is ReplaceWithin's body (shared with WAL replay;
// callers must hold mu).
func (s *Store) replaceWithinLocked(r walReplace) uint64 {
	var recs []PairRecord
	s.scanLiveUnderLocked(r.P, func(rec PairRecord) bool {
		recs = append(recs, rec)
		return true
	})
	for _, rec := range recs {
		s.digestXorLocked(rec.Key, liveHash(rec.Key, rec.Value, rec.Gen), -1)
		s.eng.Delete(rec.Key, rec.Value)
	}
	for pk, t := range s.tombs {
		if underDigest(pk.k, r.P) {
			s.digestXorLocked(pk.k, tombHash(pk.k, pk.v, t.gen), -1)
			delete(s.tombs, pk)
		}
	}
	s.clock++
	for _, it := range r.Tombs {
		if underDigest(it.K, r.P) {
			s.applyLocked(it.K, it.V, Event{Op: Replicate, Kind: Tombstoned, Gen: it.Gen})
		}
	}
	for _, it := range r.Items {
		if underDigest(it.K, r.P) {
			s.applyLocked(it.K, it.V, Event{Op: Replicate, Kind: Live, Gen: it.Gen})
		}
	}
	return s.clock
}

// Clone returns a deep copy of the store's logical content (items and
// tombstones; the clone's clock, digests and tombstone ages are rebuilt
// fresh). The clone has no data directory and the resident policy,
// whatever backs the original.
func (s *Store) Clone() *Store {
	c := newStoreWithEngine(newEngine(true))
	c.AddAll(s.Items())
	c.AddTombstones(s.Tombstones())
	return c
}

// Diff returns the items present in the store but missing from the other
// store (by key and value).
func (s *Store) Diff(other *Store) []Item {
	otherItems := make(map[string]map[string]bool)
	for _, it := range other.Items() {
		ks := it.Key.String()
		if otherItems[ks] == nil {
			otherItems[ks] = make(map[string]bool)
		}
		otherItems[ks][it.Value] = true
	}
	var out []Item
	for _, it := range s.Items() {
		if !otherItems[it.Key.String()][it.Value] {
			out = append(out, it)
		}
	}
	return out
}

// Reconcile performs anti-entropy between two replica stores: both end up
// with the union of their items minus the union of their tombstones (deletes
// win over stale live copies, so a removed item cannot be resurrected). It
// returns the number of items transferred in each direction (for bandwidth
// accounting). This is the full-set exchange, which only tests use (with
// Diff): the overlay's maintenance loop runs the digest/delta protocol.
func Reconcile(a, b *Store) (toA, toB int) {
	b.AddTombstones(a.Tombstones())
	a.AddTombstones(b.Tombstones())
	missingInB := a.Diff(b)
	missingInA := b.Diff(a)
	toB = b.AddAll(missingInB)
	toA = a.AddAll(missingInA)
	return toA, toB
}

// DedupeItems returns items without duplicate (key, value) pairs, ordered
// by key then value: replicas can return the same item through different
// range branches. The input slice is left untouched, since it may alias a
// response buffer the caller still reads.
func DedupeItems(items []Item) []Item {
	type pair struct {
		key   keyspace.Key
		value string
	}
	seen := make(map[pair]bool, len(items))
	out := make([]Item, 0, len(items))
	for _, it := range items {
		k := pair{it.Key, it.Value}
		if !seen[k] {
			seen[k] = true
			out = append(out, it)
		}
	}
	sortItems(out)
	return out
}

// sortItems orders items by key then value.
func sortItems(items []Item) {
	sort.Slice(items, func(i, j int) bool {
		c := items[i].Key.Compare(items[j].Key)
		if c != 0 {
			return c < 0
		}
		return items[i].Value < items[j].Value
	})
}

// underAnyDigest reports whether the key bit string belongs to any of the
// digest buckets, under the zero-padding membership rule.
func underAnyDigest(ks string, prefixes []keyspace.Path) bool {
	for _, p := range prefixes {
		if underDigest(ks, string(p)) {
			return true
		}
	}
	return false
}

// OverlapCount returns the number of distinct keys two key sets share.
func OverlapCount(a, b keyspace.Keys) int {
	set := make(map[uint64]map[int]bool, len(a))
	for _, k := range a {
		if set[k.Bits] == nil {
			set[k.Bits] = make(map[int]bool)
		}
		set[k.Bits][k.Len] = true
	}
	n := 0
	seen := make(map[uint64]map[int]bool)
	for _, k := range b {
		if set[k.Bits][k.Len] && !seen[k.Bits][k.Len] {
			if seen[k.Bits] == nil {
				seen[k.Bits] = make(map[int]bool)
			}
			seen[k.Bits][k.Len] = true
			n++
		}
	}
	return n
}

// EstimateReplicas is the maximum-likelihood estimate of the number of
// replica peers in the current partition, derived from the key-set overlap
// of two peers that meet in a balanced split (Section 4.2). Before the
// indexing process starts every data key is replicated nmin times; if two
// peers hold n1 and n2 keys of the partition and share `overlap` of them,
// the capture-recapture estimate of the number of distinct keys is
// n1*n2/overlap, each replicated nmin times, spread over peers holding
// about sqrt(n1*n2) keys each:
//
//	replicas ≈ nmin * sqrt(n1*n2) / overlap
//
// In particular, identical key sets of any size yield nmin, matching the
// paper's example. A zero overlap (disjoint samples) indicates many more
// replicas than nmin; we return 2*nmin*sqrt(n1*n2) as a conservative cap.
func EstimateReplicas(n1, n2, overlap, nmin int) float64 {
	if n1 <= 0 || n2 <= 0 || nmin <= 0 {
		return float64(nmin)
	}
	g := math.Sqrt(float64(n1) * float64(n2))
	if overlap <= 0 {
		return 2 * float64(nmin) * g
	}
	return float64(nmin) * g / float64(overlap)
}
