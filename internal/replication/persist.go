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
	// Engine selects the storage engine backing the live pairs: EngineMem,
	// EngineDisk, or "" for the process default (PGRID_ENGINE). The disk
	// engine keeps its segment files in the store's data directory, next to
	// the WAL and snapshots. A directory written under one engine opens
	// cleanly under the other: the pairs migrate at open (mem reads the
	// segments back; disk starts from the inlined snapshot) and the next
	// checkpoint rewrites the directory in the new engine's shape.
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
	kind := opts.Engine
	switch kind {
	case "":
		kind = defaultEngineKind
	case EngineMem, EngineDisk:
	default:
		return nil, fmt.Errorf("replication: unknown storage engine %q", opts.Engine)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	snap, haveSnap, err := loadLatestSnapshot(dir)
	if err != nil {
		return nil, err
	}
	if haveSnap && snap.External && kind == EngineMem {
		// Disk-to-mem migration: inline the segment pairs into the snapshot
		// state so the ordinary load path below installs them.
		if err := inlineSegmentPairs(dir, snap); err != nil {
			return nil, err
		}
	}
	var eng Engine
	if kind == EngineDisk {
		var manifest []string
		count := 0
		if haveSnap && snap.External {
			manifest, count = snap.Manifest, snap.Count
		}
		eng, err = openDiskEngine(dir, manifest, count)
		if err != nil {
			return nil, err
		}
	} else {
		eng = newMemEngine()
	}
	s := newStoreWithEngine(eng, kind)
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

// append frames one record into the current segment. Failures are sticky:
// once an append fails the persistence is considered broken and the error
// resurfaces from Sync, Checkpoint and Close.
func (p *Persistence) append(payload []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return
	}
	if err := p.w.append(payload); err != nil {
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
	if ee, ok := s.eng.(interface{ Err() error }); ok {
		if err := ee.Err(); err != nil {
			return err
		}
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
// storage engine (for a throwaway disk engine this removes its temp
// directory). The store must not be used afterwards.
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
// On the disk engine the pairs are not inlined into the snapshot: the
// memtable is frozen at the same boundary, flushed to a new segment file
// (with compaction once enough segments accumulate) outside the store
// lock, and the snapshot records the resulting segment manifest. Segment
// files replaced by compaction are deleted only after the snapshot naming
// their replacement is durable, so a crash at any point leaves a manifest
// whose files all exist.
func (s *Store) Checkpoint() error {
	p := s.persist
	if p == nil {
		return nil
	}
	p.ckptMu.Lock()
	defer p.ckptMu.Unlock()
	disk, isDisk := s.eng.(*diskEngine)
	s.mu.Lock()
	st := s.snapshotStateLocked(!isDisk)
	if isDisk {
		disk.freeze()
	}
	err := p.rotate()
	st.Seq = p.seq
	s.mu.Unlock()
	if err != nil {
		return err
	}
	var cleanup func()
	if isDisk {
		manifest, cl, ferr := disk.flushFrozen()
		if ferr != nil {
			// The frozen memtable stays pending (retried by the next
			// checkpoint); the rotated WAL still covers everything since the
			// previous snapshot, so no state is lost.
			return ferr
		}
		st.Manifest = manifest
		cleanup = cl
	}
	if err := writeSnapshot(p.dir, st); err != nil {
		return err
	}
	if cleanup != nil {
		cleanup()
	}
	if !isDisk {
		// A mem-engine snapshot inlines every pair: segment files left over
		// from an earlier disk-engine era are now unreferenced.
		removeSegmentFiles(p.dir)
	}
	removeBelow(p.dir, st.Seq)
	return nil
}

// removeSegmentFiles deletes every storage-engine segment file in dir (best
// effort; only called when the current snapshot references none).
func removeSegmentFiles(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if _, ok := parseSeq(e.Name(), "seg-", ".seg"); ok {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// inlineSegmentPairs rewrites an external-pairs snapshot state into inline
// form by merging the manifest's segment files (disk-to-mem migration at
// open).
func inlineSegmentPairs(dir string, st *snapshotState) error {
	var segs []*segment
	defer func() {
		for _, g := range segs {
			g.close()
		}
	}()
	for _, name := range st.Manifest {
		g, err := openSegment(filepath.Join(dir, name), name)
		if err != nil {
			return fmt.Errorf("replication: open segment %s: %w", name, err)
		}
		segs = append(segs, g)
	}
	sources := make([]pairSource, 0, len(segs))
	for i := len(segs) - 1; i >= 0; i-- { // newest first: merge keeps the newest state
		it, err := segs[i].iter("", "")
		if err != nil {
			return err
		}
		sources = append(sources, it)
	}
	err := mergeSources(sources, "", func(rec segRec) bool {
		if !rec.del {
			st.Items = append(st.Items, snapItem{K: rec.key, V: rec.value, Gen: rec.gen, Ver: rec.ver})
		}
		return true
	})
	if err != nil {
		return err
	}
	// Inline mode rebuilds the digest tree from the installed pairs; the
	// carried cells are no longer needed.
	st.External = false
	st.Manifest, st.Digests = nil, nil
	st.Count = 0
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
	if old, ok := s.baselines[replica]; ok && old == b {
		return
	}
	if b == (Baseline{}) {
		if _, ok := s.baselines[replica]; !ok {
			return
		}
		delete(s.baselines, replica)
		var e walEncoder
		e.op(opBaseline)
		e.string(replica)
		e.uint(0)
		e.uint(0)
		s.logLocked(e.buf)
		return
	}
	if s.baselines == nil {
		s.baselines = make(map[string]Baseline)
	}
	s.baselines[replica] = b
	var e walEncoder
	e.op(opBaseline)
	e.string(replica)
	e.uint(b.Mine)
	e.uint(b.Theirs)
	s.logLocked(e.buf)
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
	if s.metadata == nil {
		s.metadata = make(map[string]string)
	}
	s.metadata[key] = value
	var e walEncoder
	e.op(opMeta)
	e.string(key)
	e.string(value)
	s.logLocked(e.buf)
}

// Meta returns the recorded metadata value for key ("" when absent).
func (s *Store) Meta(key string) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.metadata[key]
}

// --- WAL record construction (called with s.mu held) ------------------------

// logLocked appends an encoded record to the WAL if persistence is
// attached. Callers must hold s.mu, which orders records exactly like the
// mutations they describe.
func (s *Store) logLocked(payload []byte) {
	if s.persist != nil && !s.muted {
		s.persist.append(payload)
	}
}

// logPairLocked logs a live upsert (opAdd) or tombstone upsert (opTomb).
func (s *Store) logPairLocked(op walOp, ks, value string, gen uint64) {
	if s.persist == nil || s.muted {
		return
	}
	var e walEncoder
	e.op(op)
	e.pair(ks, value, gen)
	s.logLocked(e.buf)
}

// prunedPair identifies one tombstone removed by GC.
type prunedPair struct{ ks, value string }

// logPruneLocked logs one GC compaction outcome.
func (s *Store) logPruneLocked(pruned []prunedPair, floor uint64) {
	if s.persist == nil || len(pruned) == 0 {
		return
	}
	var e walEncoder
	e.op(opPrune)
	e.uint(uint64(len(pruned)))
	for _, pr := range pruned {
		e.string(pr.ks)
		e.string(pr.value)
	}
	e.uint(floor)
	s.logLocked(e.buf)
}

// logPrefixLocked logs a RemovePrefix/RetainPrefix handover.
func (s *Store) logPrefixLocked(op walOp, p keyspace.Path) {
	if s.persist == nil {
		return
	}
	var e walEncoder
	e.op(op)
	e.string(string(p))
	s.logLocked(e.buf)
}

// logReplaceLocked logs a wholesale partition rebuild with its inputs.
func (s *Store) logReplaceLocked(p keyspace.Path, items, tombs []Item) {
	if s.persist == nil {
		return
	}
	var e walEncoder
	e.op(opReplace)
	e.string(string(p))
	e.uint(uint64(len(items)))
	for _, it := range items {
		e.pair(it.Key.String(), it.Value, it.Gen)
	}
	e.uint(uint64(len(tombs)))
	for _, it := range tombs {
		e.pair(it.Key.String(), it.Value, it.Gen)
	}
	s.logLocked(e.buf)
}

// --- WAL replay --------------------------------------------------------------

// applyWAL decodes one record payload and re-applies its mutation. Replay
// happens before persistence is attached, so nothing is re-logged; because
// the store's mutation logic is deterministic given identical prior state,
// replaying the full record sequence reproduces items, tombstones, per-pair
// versions, the logical clock and the GC floor exactly. (Tombstone
// wall-clock ages restart from the replay time, which can only delay age-
// based GC — the safe direction.)
func (s *Store) applyWAL(payload []byte) error {
	if len(payload) == 0 {
		return errWALCorrupt
	}
	d := wire.NewDecoder(payload[1:])
	s.mu.Lock()
	defer s.mu.Unlock()
	switch walOp(payload[0]) {
	case opAdd, opTomb:
		ks, value, gen := walPair(d)
		kind := Live
		if walOp(payload[0]) == opTomb {
			kind = Tombstoned
		}
		if d.Err() == nil {
			s.applyLocked(ks, value, Event{Op: Replicate, Kind: kind, Gen: gen})
		}
	case opPrune:
		n := d.Uvarint()
		var pruned []prunedPair
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			ks := d.String()
			value := d.String()
			if d.Err() != nil {
				break
			}
			if t, ok := s.tombs[ks][value]; ok {
				s.pruneTombLocked(ks, value, t)
				pruned = append(pruned, prunedPair{ks: ks, value: value})
			}
		}
		floor := d.Uvarint()
		if d.Err() == nil {
			s.gcFloor = max(s.gcFloor, floor)
			s.endPruneLocked(pruned)
		}
	case opRemovePrefix:
		p := keyspace.Path(d.String())
		if d.Err() == nil {
			s.removePrefixLocked(p)
		}
	case opRetainPrefix:
		p := keyspace.Path(d.String())
		if d.Err() == nil {
			s.retainPrefixLocked(p)
		}
	case opReplace:
		p := keyspace.Path(d.String())
		items := walItems(d)
		tombs := walItems(d)
		if d.Err() == nil {
			s.replaceWithinLocked(p, items, tombs)
		}
	case opBaseline:
		replica := d.String()
		b := Baseline{Mine: d.Uvarint(), Theirs: d.Uvarint()}
		if d.Err() == nil {
			if b == (Baseline{}) {
				delete(s.baselines, replica)
				break
			}
			if s.baselines == nil {
				s.baselines = make(map[string]Baseline)
			}
			s.baselines[replica] = b
		}
	case opMeta:
		key := d.String()
		value := d.String()
		if d.Err() == nil {
			if s.metadata == nil {
				s.metadata = make(map[string]string)
			}
			s.metadata[key] = value
		}
	case opMutSeen:
		id := d.Uvarint()
		if d.Err() == nil {
			s.markMutationLocked(id)
		}
	default:
		return fmt.Errorf("replication: unknown WAL op %d", payload[0])
	}
	return d.Err()
}

// walItems decodes a length-prefixed item list. The initial capacity is
// bounded so a corrupt count cannot drive a huge allocation before the
// decoder runs out of buffer.
func walItems(d *wire.Decoder) []Item {
	n := d.Uvarint()
	if d.Err() != nil || n > uint64(maxWALRecord) {
		return nil
	}
	hint := n
	if hint > 4096 {
		hint = 4096
	}
	out := make([]Item, 0, hint)
	for i := uint64(0); i < n; i++ {
		ks, value, gen := walPair(d)
		if d.Err() != nil {
			return nil
		}
		out = append(out, Item{Key: keyspace.MustFromString(ks), Value: value, Gen: gen})
	}
	return out
}

// --- snapshot capture and restore -------------------------------------------

// snapshotStateLocked serialises the store's durable state (callers must
// hold s.mu). With inlinePairs the live pairs are scanned out of the engine
// into the snapshot (mem engine); without it the snapshot carries the pair
// count and the dense digest tree instead, and Checkpoint fills in the
// segment manifest after the flush (disk engine).
func (s *Store) snapshotStateLocked(inlinePairs bool) *snapshotState {
	st := &snapshotState{Clock: s.clock, GCFloor: s.gcFloor}
	if inlinePairs {
		st.Items = make([]snapItem, 0, s.eng.Len())
		s.eng.ScanPrefix("", func(rec PairRecord) bool {
			st.Items = append(st.Items, snapItem{K: rec.Key, V: rec.Value, Gen: rec.Gen, Ver: rec.Ver})
			return true
		})
	} else {
		st.External = true
		st.Count = s.eng.Len()
		st.Digests = make([]snapDigest, 0, len(s.dig))
		for p, cell := range s.dig {
			st.Digests = append(st.Digests, snapDigest{P: densePrefixString(p), H: cell.hash, N: cell.n})
		}
	}
	for ks, vals := range s.tombs {
		for v, t := range vals {
			st.Tombs = append(st.Tombs, snapTomb{K: ks, V: v, Gen: t.gen, Born: t.born, At: t.at.UnixNano(), Ver: t.ver})
		}
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
// store. Inline snapshots rebuild the digest tree pair by pair; external
// ones install the carried dense cells directly — the pairs are already in
// the engine's segments and are never scanned.
func (s *Store) loadSnapshot(st *snapshotState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st.External {
		if s.dig == nil && len(st.Digests) > 0 {
			s.dig = make(map[uint16]digestCell, len(st.Digests))
		}
		for _, dc := range st.Digests {
			s.dig[densePrefixIndex(dc.P)] = digestCell{hash: dc.H, n: dc.N}
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
		s.putTombLocked(tb.K, tb.V, tombstone{gen: tb.Gen, born: tb.Born, at: time.Unix(0, tb.At), ver: tb.Ver})
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
