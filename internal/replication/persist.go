package replication

// This file binds a Store to a data directory: an append-only WAL (wal.go)
// capturing every logical mutation, plus periodic compacted snapshots
// (snapshot.go) that truncate it. Together they durably capture the store's
// items, tombstones, logical clock, GC floor, per-replica sync baselines
// and overlay metadata, so a restarted peer recovers the exact replica
// state — and in particular the sync baselines that let it re-enter
// anti-entropy through the cheap exact-delta path instead of a first-contact
// walk or a post-GC rebuild.
//
// Recovery protocol (OpenStore):
//
//  1. Load the newest valid snapshot snap-<seq>.bin, if any; it covers
//     every WAL segment below <seq>.
//  2. Replay the WAL segments >= <seq> in order. Only the final record of
//     the final segment may be torn (the expected crash artifact); an
//     invalid frame anywhere earlier is reported as corruption.
//  3. Continue appending to the final segment (truncated past any torn
//     tail).
//
// Checkpoint rotates to a fresh WAL segment while holding the store lock
// (so the snapshot corresponds exactly to the segment boundary), writes the
// snapshot atomically, and deletes the now-covered segments. A crash at any
// point leaves a recoverable directory.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pgrid/internal/keyspace"
	"pgrid/internal/wire"
)

// Baseline is a per-replica anti-entropy sync baseline: the two store
// clocks recorded after the last completed digest/delta sync with that
// replica (see overlay's sync-state tracking). Persisting baselines is what
// lets a restarted peer resume exact-delta syncs — and what closes the
// resurrection window of a rejoiner whose baseline predates a tombstone
// prune: with the baseline durable, the staleness is provable and the peer
// is rebuilt instead of walk-merged.
type Baseline struct {
	// Mine is the local store clock at the last completed sync.
	Mine uint64
	// Theirs is the replica's store clock at that sync.
	Theirs uint64
}

// Defaults of PersistOptions.
const (
	// DefaultWALSyncInterval is the default fsync batching interval: an
	// append fsyncs only when this much time passed since the last fsync,
	// bounding the crash-loss window without paying a disk flush per write.
	DefaultWALSyncInterval = 100 * time.Millisecond
	// DefaultSnapshotThreshold is the default number of WAL records after
	// which CheckpointIfNeeded compacts the log into a snapshot.
	DefaultSnapshotThreshold = 16384
)

// PersistOptions parameterises a store's persistence.
type PersistOptions struct {
	// SyncInterval batches fsyncs: an append writes to the OS page cache
	// immediately but fsyncs at most once per interval. Zero means
	// DefaultWALSyncInterval. A killed process loses nothing once an
	// append returned; records appended inside the window are lost only if
	// the machine crashes. SyncAlways closes even that window at the cost
	// of one fsync per mutation.
	SyncInterval time.Duration
	// SyncAlways fsyncs on every append.
	SyncAlways bool
	// SnapshotThreshold is the number of WAL records after which
	// CheckpointIfNeeded writes a snapshot and truncates the log. Zero
	// means DefaultSnapshotThreshold.
	SnapshotThreshold int
	// Engine selects the storage engine's residency policy: EngineMem,
	// EngineDisk, or "" for the process default (PGRID_ENGINE). Under
	// EngineDisk the live pairs are served from segment files in the data
	// directory, next to the WAL and snapshots; under EngineMem they all
	// stay in memory and a checkpoint writes them as one segment that is
	// read back only at open. (A store without a data directory takes the
	// same kinds through NewStoreKind, where they make no difference.) Both
	// policies write the same directory shape, so a directory opens under
	// either, with no conversion step.
	Engine string
}

// normalize fills in defaults.
func (o PersistOptions) normalize() PersistOptions {
	if o.SyncInterval <= 0 {
		o.SyncInterval = DefaultWALSyncInterval
	}
	if o.SyncAlways {
		o.SyncInterval = -1 // wal fsyncs every append
	}
	if o.SnapshotThreshold <= 0 {
		o.SnapshotThreshold = DefaultSnapshotThreshold
	}
	return o
}

// Persistence is the WAL + snapshot machinery attached to a Store. It is
// created by OpenStore and driven through the store's methods (Checkpoint,
// Sync, Close); it has no exported methods of its own.
type Persistence struct {
	dir  string
	opts PersistOptions

	// mu guards the fields below. Appends additionally happen under the
	// owning store's lock, which is what orders them against each other
	// and against rotation.
	mu      sync.Mutex
	w       *wal
	seq     uint64 // sequence number of the open segment
	carried int    // records replayed from the open segment at recovery
	err     error  // sticky I/O failure; persistence is broken once set

	// ckptMu serialises whole checkpoints.
	ckptMu sync.Mutex
}

// OpenStore opens (creating if needed) the persistent store rooted at dir:
// it recovers the durable state — newest snapshot plus WAL replay, torn
// final record tolerated — and returns a store whose every future mutation
// is appended to the WAL. The directory must not be shared between live
// stores.
func OpenStore(dir string, opts PersistOptions) (*Store, error) {
	opts = opts.normalize()
	resident, err := residentKind(opts.Engine)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	snap, haveSnap, err := loadLatestSnapshot(dir)
	if err != nil {
		return nil, err
	}
	var manifest []string
	count := 0
	if haveSnap && snap.External {
		manifest, count = snap.Manifest, snap.Count
	}
	eng, err := openEngine(dir, manifest, count, resident)
	if err != nil {
		return nil, err
	}
	s := newStoreWithEngine(eng)
	var startSeq uint64
	if haveSnap {
		s.loadSnapshot(snap)
		startSeq = snap.Seq
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	openSeq := startSeq
	carried := 0
	var openValid int64
	for i, seq := range segs {
		if seq < startSeq {
			continue // covered by the snapshot; removal must have crashed
		}
		path := filepath.Join(dir, segmentName(seq))
		valid, records, err := scanWAL(path, s.applyWAL)
		if err != nil {
			return nil, fmt.Errorf("replication: replay %s: %w", path, err)
		}
		if i < len(segs)-1 {
			// Only the final segment may end in a torn record; a short
			// frame in an earlier segment is corruption, not a crash tail.
			if fi, statErr := os.Stat(path); statErr == nil && fi.Size() != valid {
				return nil, fmt.Errorf("replication: %s: %w", path, errWALCorrupt)
			}
		}
		if seq >= openSeq {
			openSeq = seq
			carried = records
			openValid = valid
		}
	}
	w, err := openWAL(filepath.Join(dir, segmentName(openSeq)), opts.SyncInterval, openValid)
	if err != nil {
		return nil, err
	}
	// The segment file may have just been created: make its directory
	// entry durable, or fsynced appends could vanish with the whole file
	// on power loss.
	if err := syncDir(dir); err != nil {
		_ = w.close()
		return nil, err
	}
	s.persist = &Persistence{dir: dir, opts: opts, w: w, seq: openSeq, carried: carried}
	return s, nil
}

// append frames one record into the current segment and, with write set,
// writes it in one write together with every record framed before it; a
// bulk apply frames its records with write unset and ends with flush.
// Failures are sticky: once an append fails the persistence is considered
// broken and the error resurfaces from Sync, Checkpoint and Close.
func (p *Persistence) append(op byte, rec any, write bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return
	}
	err := p.w.frame(op, rec)
	if err == nil && write {
		err = p.w.flush()
	}
	if err != nil {
		p.err = err
	}
}

// flush writes the records framed since the last write in one write.
func (p *Persistence) flush() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return
	}
	if err := p.w.flush(); err != nil {
		p.err = err
	}
}

// records returns the number of records in the open segment (replayed plus
// appended).
func (p *Persistence) records() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.carried + p.w.records
}

// rotate syncs and closes the open segment and starts the next one.
// Callers must hold the owning store's lock so no append slips between the
// captured snapshot state and the new segment.
func (p *Persistence) rotate() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return p.err
	}
	if err := p.w.close(); err != nil {
		p.err = err
		return err
	}
	p.seq++
	w, err := openWAL(filepath.Join(p.dir, segmentName(p.seq)), p.opts.SyncInterval, 0)
	if err != nil {
		p.err = err
		return err
	}
	// Make the new segment's directory entry durable before any record
	// lands in it.
	if err := syncDir(p.dir); err != nil {
		p.err = err
		return err
	}
	p.w = w
	p.carried = 0
	return nil
}

// sync makes every appended record durable.
func (p *Persistence) sync() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return p.err
	}
	if err := p.w.sync(); err != nil {
		p.err = err
	}
	return p.err
}

// close syncs and closes the open segment.
func (p *Persistence) close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	err := p.w.close()
	if p.err == nil {
		p.err = err
	}
	return p.err
}

// --- Store-facing API -------------------------------------------------------

// Persistent reports whether the store is backed by a WAL.
func (s *Store) Persistent() bool { return s.persist != nil }

// PersistenceErr returns the sticky persistence failure (nil while
// healthy, and always nil for in-memory stores). Once a WAL append or
// rotation fails — disk full, I/O error — persistence stops accepting
// records: the on-disk state remains a consistent prefix of history while
// the in-memory store keeps serving, so mutations applied after the
// failure are lost on restart. The error also resurfaces from Sync,
// Checkpoint and Close; the overlay's maintenance tick reports it through
// TickReport.PersistenceErr and Metrics.PersistenceErrors so deployments
// can alarm and fail the peer over instead of discovering the rollback at
// the next restart.
func (s *Store) PersistenceErr() error {
	if err := s.eng.Err(); err != nil {
		return err
	}
	if s.persist == nil {
		return nil
	}
	s.persist.mu.Lock()
	defer s.persist.mu.Unlock()
	return s.persist.err
}

// Sync flushes and fsyncs the WAL, making every mutation applied so far
// durable. It is a no-op for in-memory stores.
func (s *Store) Sync() error {
	if s.persist == nil {
		return nil
	}
	return s.persist.sync()
}

// Close syncs and closes the store's persistence, then releases the
// storage engine's open segments. The store must not be used afterwards.
func (s *Store) Close() error {
	var perr error
	if s.persist != nil {
		perr = s.persist.close()
	}
	eerr := s.eng.Close()
	if perr != nil {
		return perr
	}
	return eerr
}

// WALRecords returns the number of records in the current WAL segment
// (0 for in-memory stores) — the input to the snapshot threshold.
func (s *Store) WALRecords() int {
	if s.persist == nil {
		return 0
	}
	return s.persist.records()
}

// Checkpoint compacts the store's persistence: it captures a snapshot of
// the full durable state at a fresh WAL segment boundary, writes it
// atomically, and deletes the WAL segments the snapshot covers. It is a
// no-op for non-persistent stores.
//
// The pairs are never inlined into the snapshot: they are written to
// segment files outside the store lock, and the snapshot records the
// resulting segment manifest. On the disk policy the memtable is frozen at
// the boundary and flushed to a new segment (with compaction once enough
// segments accumulate); on the resident policy a copy of the pairs taken
// at the boundary becomes one segment, which replaces the previous ones.
// Segment files a checkpoint replaces are deleted only after the snapshot
// naming their replacement is durable, so a crash at any point leaves a
// manifest whose files all exist.
func (s *Store) Checkpoint() error {
	p := s.persist
	if p == nil {
		return nil
	}
	p.ckptMu.Lock()
	defer p.ckptMu.Unlock()
	s.mu.Lock()
	st := s.snapshotStateLocked()
	recs := s.eng.freeze()
	err := p.rotate()
	st.Seq = p.seq
	s.mu.Unlock()
	if err != nil {
		return err
	}
	f, err := s.eng.flush(recs)
	if err != nil {
		// A frozen memtable stays pending (retried by the next checkpoint);
		// the rotated WAL still covers everything since the previous
		// snapshot, so no state is lost.
		return err
	}
	st.Manifest = f.manifest
	err = writeSnapshot(p.dir, st, f.wait)
	f.commit(err == nil)
	if err != nil {
		return err
	}
	removeBelow(p.dir, st.Seq)
	return nil
}

// CheckpointIfNeeded runs Checkpoint once the current WAL segment exceeds
// the snapshot threshold, and reports whether it did. The overlay's
// maintenance tick calls this, so WAL growth is bounded by write volume
// between ticks.
func (s *Store) CheckpointIfNeeded() (bool, error) {
	p := s.persist
	if p == nil {
		return false, nil
	}
	if p.records() < p.opts.SnapshotThreshold {
		return false, nil
	}
	if err := s.Checkpoint(); err != nil {
		return false, err
	}
	return true, nil
}

// RecordBaseline durably records the anti-entropy sync baseline for a
// replica (keyed by its transport address). Baselines ride the same WAL and
// snapshots as the data, so a restarted peer can resume exact-delta syncs.
// The zero Baseline deletes the entry (recording "no baseline" and holding
// one are equivalent on recovery), which is how the overlay's sync-state
// compaction keeps the durable map bounded under long-term churn.
func (s *Store) RecordBaseline(replica string, b Baseline) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// An absent entry reads as the zero Baseline, which is never stored.
	if s.baselines[replica] == b {
		return
	}
	rec := baselineRecord{Replica: replica, Baseline: b}
	s.setBaselineLocked(rec)
	s.logLocked(opBaseline, rec)
}

// setBaselineLocked installs or, for the zero Baseline, deletes one
// replica's baseline (callers must hold s.mu).
func (s *Store) setBaselineLocked(rec baselineRecord) {
	if rec.Baseline == (Baseline{}) {
		delete(s.baselines, rec.Replica)
		return
	}
	if s.baselines == nil {
		s.baselines = make(map[string]Baseline)
	}
	s.baselines[rec.Replica] = rec.Baseline
}

// Baselines returns a copy of the recorded per-replica sync baselines
// (recovered ones included).
func (s *Store) Baselines() map[string]Baseline {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]Baseline, len(s.baselines))
	for k, v := range s.baselines {
		out[k] = v
	}
	return out
}

// SetMeta durably records one small key/value metadata pair (the overlay
// persists its partition path here). Re-recording an unchanged value is a
// no-op, so callers can invoke it opportunistically.
func (s *Store) SetMeta(key, value string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.metadata[key]; ok && old == value {
		return
	}
	rec := metaRecord{Key: key, Value: value}
	s.setMetaLocked(rec)
	s.logLocked(opMeta, rec)
}

// setMetaLocked records one metadata pair (callers must hold s.mu).
func (s *Store) setMetaLocked(rec metaRecord) {
	if s.metadata == nil {
		s.metadata = make(map[string]string)
	}
	s.metadata[rec.Key] = rec.Value
}

// Meta returns the recorded metadata value for key ("" when absent).
func (s *Store) Meta(key string) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.metadata[key]
}

// --- WAL records -------------------------------------------------------------

// logLocked appends one record — the op tag and the op's record struct
// (wal.go) — to the WAL if persistence is attached. Callers must hold
// s.mu, which orders records exactly like the mutations they describe.
// Inside a batch (beginBatchLocked) the record is only framed.
func (s *Store) logLocked(op byte, rec any) {
	if s.persist != nil && !s.muted {
		s.persist.append(op, rec, !s.batched)
	}
}

// beginBatchLocked holds the WAL records of the mutations that follow back
// until endBatchLocked writes them in one write (callers must hold s.mu
// throughout, so the batch reaches the file before any other record).
func (s *Store) beginBatchLocked() { s.batched = true }

// endBatchLocked writes the batch's records (callers must hold s.mu).
func (s *Store) endBatchLocked() {
	s.batched = false
	if s.persist != nil {
		s.persist.flush()
	}
}

// applyWAL decodes one record payload and re-applies its mutation. Replay
// happens before persistence is attached, so nothing is re-logged; because
// the store's mutation logic is deterministic given identical prior state,
// replaying the full record sequence reproduces items, tombstones, per-pair
// versions, the logical clock and the GC floor exactly. (Tombstone
// wall-clock ages restart from the replay time, which can only delay age-
// based GC — the safe direction.)
func (s *Store) applyWAL(payload []byte) error {
	d := wire.NewDecoder(payload)
	op := d.Byte()
	s.mu.Lock()
	defer s.mu.Unlock()
	switch op {
	case opAdd, opTomb:
		var rec walPair
		if err := readWALRecord(d, op, &rec); err != nil {
			return err
		}
		kind := Live
		if op == opTomb {
			kind = Tombstoned
		}
		s.applyLocked(rec.K, rec.V, Event{Op: Replicate, Kind: kind, Gen: rec.Gen})
	case opPrune:
		var rec walPrune
		if err := readWALRecord(d, op, &rec); err != nil {
			return err
		}
		var pruned []prunedPair
		for _, pr := range rec.Pairs {
			if t, ok := s.tombs[pairKey{pr.K, pr.V}]; ok {
				s.pruneTombLocked(pr.K, pr.V, t)
				pruned = append(pruned, pr)
			}
		}
		s.gcFloor = max(s.gcFloor, rec.Floor)
		s.endPruneLocked(pruned)
	case opRemovePrefix, opRetainPrefix:
		var rec walPrefix
		if err := readWALRecord(d, op, &rec); err != nil {
			return err
		}
		if op == opRemovePrefix {
			s.removePrefixLocked(keyspace.Path(rec.P))
		} else {
			s.retainPrefixLocked(keyspace.Path(rec.P))
		}
	case opReplace:
		var rec walReplace
		if err := readWALRecord(d, op, &rec); err != nil {
			return err
		}
		s.replaceWithinLocked(rec)
	case opBaseline:
		var rec baselineRecord
		if err := readWALRecord(d, op, &rec); err != nil {
			return err
		}
		s.setBaselineLocked(rec)
	case opMeta:
		var rec metaRecord
		if err := readWALRecord(d, op, &rec); err != nil {
			return err
		}
		s.setMetaLocked(rec)
	case opMutSeen:
		var rec walMutation
		if err := readWALRecord(d, op, &rec); err != nil {
			return err
		}
		s.markMutationLocked(rec.ID)
	default:
		return fmt.Errorf("%w: unknown WAL op %d", errWALCorrupt, op)
	}
	return nil
}

// readWALRecord decodes the rest of a payload, which must be exactly one
// record of op's struct, into rec.
func readWALRecord(d *wire.Decoder, op byte, rec any) error {
	walRecords[op].Read(d, rec)
	if err := d.Finish(); err != nil {
		return fmt.Errorf("%w: op %d record: %v", errWALCorrupt, op, err)
	}
	return nil
}

// --- snapshot capture and restore -------------------------------------------

// snapshotStateLocked captures the store's durable state (callers must
// hold s.mu): the pair count and the dense digest tree stand in for the
// pairs, which Checkpoint writes to segments and names in the manifest.
func (s *Store) snapshotStateLocked() *snapshotState {
	st := &snapshotState{Clock: s.clock, GCFloor: s.gcFloor, External: true, Count: s.eng.Len()}
	cells := 0
	for _, cell := range s.dig {
		if cell != (digestCell{}) {
			cells++
		}
	}
	st.Digests = make([]snapDigest, 0, cells)
	for idx, cell := range s.dig {
		if cell != (digestCell{}) {
			st.Digests = append(st.Digests, snapDigest{P: densePrefixString(uint16(idx)), H: cell.hash, N: uint64(cell.n)})
		}
	}
	st.Tombs = make([]snapTomb, 0, len(s.tombs))
	for pk, t := range s.tombs {
		st.Tombs = append(st.Tombs, snapTomb{K: pk.k, V: pk.v, Gen: t.gen, Born: t.born, At: t.at, Ver: t.ver})
	}
	if len(s.baselines) > 0 {
		st.Baselines = make(map[string]Baseline, len(s.baselines))
		for k, v := range s.baselines {
			st.Baselines[k] = v
		}
	}
	if len(s.metadata) > 0 {
		st.Meta = make(map[string]string, len(s.metadata))
		for k, v := range s.metadata {
			st.Meta[k] = v
		}
	}
	st.MutLog = s.mutationRingLocked()
	return st
}

// loadSnapshot installs a decoded snapshot into the (empty, un-attached)
// store. External snapshots install the carried dense cells directly — the
// pairs are already in the engine, in its segments or read back into its
// memtable, and are never rehashed. An inline snapshot, which checkpoints
// no longer write, rebuilds the digest tree pair by pair; the next
// checkpoint rewrites its directory as external.
func (s *Store) loadSnapshot(st *snapshotState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st.External {
		for _, dc := range st.Digests {
			s.dig[densePrefixIndex(dc.P)] = digestCell{hash: dc.H, n: int(dc.N)}
		}
	} else {
		for _, si := range st.Items {
			s.digestXorLocked(si.K, liveHash(si.K, si.V, si.Gen), 1)
			s.eng.Put(PairRecord{Key: si.K, Value: si.V, Gen: si.Gen, Ver: si.Ver}, true)
		}
	}
	for _, tb := range st.Tombs {
		// External snapshots' carried cells already include the tombstones.
		if !st.External {
			s.digestXorLocked(tb.K, tombHash(tb.K, tb.V, tb.Gen), 1)
		}
		s.putTombLocked(tb.K, tb.V, tombstone{gen: tb.Gen, born: tb.Born, at: tb.At, ver: tb.Ver})
	}
	s.clock = st.Clock
	s.gcFloor = st.GCFloor
	if len(st.Baselines) > 0 {
		s.baselines = make(map[string]Baseline, len(st.Baselines))
		for k, v := range st.Baselines {
			s.baselines[k] = v
		}
	}
	if len(st.Meta) > 0 {
		s.metadata = make(map[string]string, len(st.Meta))
		for k, v := range st.Meta {
			s.metadata[k] = v
		}
	}
	for _, id := range st.MutLog {
		s.markMutationLocked(id)
	}
}
