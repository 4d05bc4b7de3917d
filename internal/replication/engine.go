package replication

// The storage engine beneath a Store: an LSM-lite of one ordered in-memory
// memtable (ordered.go) over optional immutable sorted segment files
// (segment.go). The Store keeps the anti-entropy brain — digest tree,
// logical clock, tombstone and GC semantics, sync baselines, WAL hooks —
// and the engine stores exactly the live pairs it is told to, so digests,
// deltas and WAL replay are byte-identical whichever policy holds them.
//
// Writes land in the memtable (they are already WAL-durable: the Store logs
// every mutation before the engine sees it). Two residency policies, the
// EngineMem and EngineDisk kinds, differ in exactly two things, checkpoint
// and open, so they only matter for a store with a data directory; one
// without never checkpoints and is a memtable alone under either:
//
//   - disk: a checkpoint freezes the memtable, flushes it to a new segment
//     and, past diskCompactThreshold segments, compacts all segments into
//     one. Open adopts the manifest's segments. Reads consult the memtable,
//     the frozen memtable being flushed, then segments newest-first; range
//     scans k-way merge all of them.
//   - mem (resident): every pair stays in the memtable. A checkpoint writes
//     a copy of the pairs as one segment, which no read ever touches, and
//     the previous segments go once the snapshot naming it is durable; with
//     no pair changed since the last one it keeps them instead. Open merges
//     the manifest's segments into the memtable and closes them.
//
// While neither a frozen memtable nor a segment lies beneath the memtable —
// always on the resident policy — a read walks the memtable directly, with
// no merge.
//
// Crash consistency is manifest-gated: a segment file only becomes part of
// the store when a committed snapshot lists it (snapshot.go), which happens
// after the file and the directory entry are fsynced. Recovery therefore
// opens exactly the manifest's segments — whose content is exactly the
// engine state at the snapshot's WAL boundary — deletes unreferenced
// segment files (flushes whose snapshot never committed; their records are
// still recovered from the surviving WAL segments), and replays the WAL
// tail into the memtable. On the disk policy no pair scan is needed to
// serve: the segments' sparse indexes are the only thing loaded.

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
)

// Storage engine kinds accepted by NewStoreKind, PersistOptions.Engine and
// the PGRID_ENGINE environment variable. They name the engine's residency
// policy, which only a store with a data directory feels.
const (
	// EngineMem keeps every live pair on the heap in the ordered memtable
	// (the default): lookups are O(log n) and never touch a file, and a
	// restart reads the checkpointed segment back into memory.
	EngineMem = "mem"
	// EngineDisk keeps the live pairs in sorted segment files plus a
	// bounded memtable, so resident memory stays flat in the number of
	// keys and recovery does not materialise the pair set.
	EngineDisk = "disk"
)

// defaultEngineKind is the engine used when none is configured, switchable
// fleet-wide through the PGRID_ENGINE environment variable (read once at
// startup; CI uses it to run the full test matrix on the disk policy).
var defaultEngineKind = func() string {
	if os.Getenv("PGRID_ENGINE") == EngineDisk {
		return EngineDisk
	}
	return EngineMem
}()

// DefaultEngine returns the storage engine kind selected for this process
// (EngineMem unless PGRID_ENGINE=disk).
func DefaultEngine() string { return defaultEngineKind }

// residentKind reports whether an engine kind ("" for the process default)
// is the resident policy, and refuses unknown kinds.
func residentKind(kind string) (bool, error) {
	switch kind {
	case "":
		return defaultEngineKind == EngineMem, nil
	case EngineMem:
		return true, nil
	case EngineDisk:
		return false, nil
	}
	return false, fmt.Errorf("replication: unknown storage engine %q", kind)
}

// diskCompactThreshold is the number of segments above which a checkpoint
// merges all segments into one.
const diskCompactThreshold = 4

// PairRecord is one live (key, value) pair as stored by the engine: the key
// bit string, the opaque value, the pair's replication generation and the
// store clock of its last local modification (what DeltaSince keys on).
type PairRecord struct {
	Key   string // key bit string ('0'/'1' only)
	Value string
	Gen   uint64
	Ver   uint64
}

// memtable is the engine's in-memory index of pair records. An entry's flag
// marks a delete marker shadowing older segments.
type memtable = orderedIndex[bool]

// memRec returns a memtable entry as a segment record.
func memRec(ent *indexEntry[bool]) segRec {
	return segRec{Del: ent.aux, PairRecord: ent.PairRecord}
}

// engine stores a Store's live pairs in (key bit string, value) order —
// note that a key sorts before every strict extension of itself — so a
// scan seeks and walks and never sorts. It stores exactly what it is told:
// generation arbitration, tombstones, digests and WAL logging are the
// Store's job. Mutations (Put, Delete, Close) are serialised by the owning
// Store's lock; reads may run concurrently with each other.
type engine struct {
	dir      string // data directory; "" for a store without one
	resident bool   // the EngineMem policy: every pair stays in the memtable

	// mu guards the memtables and the segment list. Mutating calls are
	// additionally serialised by the owning Store's lock; flushes and
	// compactions run outside that lock (only checkpoint-serialised), which
	// is why readers must hold mu too.
	mu      sync.RWMutex
	mem     *memtable
	frozen  *memtable  // pending flush; nil when none (always, if resident)
	segs    []*segment // oldest first; none if resident
	n       int        // live pair count
	nextSeq uint64     // next segment file sequence (checkpoint-serialised)
	// files names a resident engine's segments on disk: the manifest it
	// opened or its last checkpoint committed, plus any segment a failed
	// checkpoint left, which the next committed one removes. mutations
	// counts Puts and Deletes (under mu); saved is the count the files hold
	// and taken the one the running checkpoint's freeze captured, so a
	// resident checkpoint with no mutation since the last one keeps its
	// files (checkpoint-serialised, like files).
	files                   []string
	mutations, taken, saved uint64

	errMu sync.Mutex
	err   error // sticky segment I/O failure
}

// newEngine returns an empty engine for a store without a data directory.
func newEngine(resident bool) *engine {
	return &engine{resident: resident, mem: newOrderedIndex[bool]()}
}

// openEngine opens the engine over dir: it opens the manifest's segments
// (in manifest order, oldest first), deletes unreferenced segment files —
// flushes of checkpoints that never committed; the WAL still holds their
// records — and starts an empty memtable. count is the live pair count at
// the manifest's snapshot boundary. A resident engine then merges the
// segments into its memtable and closes them.
func openEngine(dir string, manifest []string, count int, resident bool) (*engine, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	keep := make(map[string]bool, len(manifest))
	for _, name := range manifest {
		keep[name] = true
	}
	e := newEngine(resident)
	e.dir, e.n = dir, count
	for _, ent := range entries {
		seq, ok := parseSeq(ent.Name(), "seg-", ".seg")
		if !ok {
			continue
		}
		e.nextSeq = max(e.nextSeq, seq+1)
		if !keep[ent.Name()] {
			os.Remove(filepath.Join(dir, ent.Name()))
		}
	}
	for _, name := range manifest {
		seg, err := openSegment(filepath.Join(dir, name), name)
		if err != nil {
			e.Close()
			return nil, fmt.Errorf("replication: open segment %s: %w", name, err)
		}
		e.segs = append(e.segs, seg)
	}
	// The count comes from a snapshot and sizes reads (Store.Items): hold
	// it to what the segments can hold, one index entry per segIndexEvery
	// records.
	bound := 0
	for _, seg := range e.segs {
		bound += len(seg.index) * segIndexEvery
	}
	if count > bound {
		e.Close()
		return nil, fmt.Errorf("replication: snapshot counts %d pairs, its segments hold at most %d: %w", count, bound, errSnapshotCorrupt)
	}
	if resident {
		if err := e.loadSegments(); err != nil {
			e.Close()
			return nil, err
		}
		e.files = manifest
	}
	return e, nil
}

// loadSegments merges the open segments into the empty memtable, newest
// state first, and closes them: what a resident engine does at open. The
// merge is in pair order, so the memtable is filled bottom-up.
func (e *engine) loadSegments() error {
	sources := make([]pairSource, 0, len(e.segs))
	for i := len(e.segs) - 1; i >= 0; i-- { // newest first: merge keeps the newest state
		it, err := e.segs[i].iter("", "")
		if err != nil {
			return err
		}
		sources = append(sources, it)
	}
	entries := make([]indexEntry[bool], 0, e.n)
	err := mergeSources(sources, "", func(rec segRec) bool {
		if !rec.Del {
			entries = append(entries, indexEntry[bool]{PairRecord: rec.PairRecord})
		}
		return true
	})
	if err != nil {
		return err
	}
	e.mem.fill(entries)
	e.n = e.mem.len()
	return e.Close()
}

// fail records a sticky segment I/O failure (surfaced through
// Store.PersistenceErr).
func (e *engine) fail(err error) {
	e.errMu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.errMu.Unlock()
}

// Err returns the sticky segment I/O failure, if any.
func (e *engine) Err() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.err
}

// single reports whether the memtable is the only source: no frozen
// memtable or segment lies beneath it. Callers must hold mu.
func (e *engine) single() bool { return e.frozen == nil && len(e.segs) == 0 }

// lookupLocked resolves a pair across memtable, frozen memtable and
// segments (newest first). It returns the record and whether the pair is
// live — a delete marker is a definitive miss. Callers must hold mu.
func (e *engine) lookupLocked(key, value string) (segRec, bool) {
	if ent, ok := e.mem.get(key, value); ok {
		return memRec(ent), !ent.aux
	}
	if e.frozen != nil {
		if ent, ok := e.frozen.get(key, value); ok {
			return memRec(ent), !ent.aux
		}
	}
	for i := len(e.segs) - 1; i >= 0; i-- {
		rec, ok, err := e.segs[i].get(key, value)
		if err != nil {
			e.fail(err)
			return segRec{}, false
		}
		if ok {
			return rec, !rec.Del
		}
	}
	return segRec{}, false
}

// Get returns the record stored for the (key, value) pair.
func (e *engine) Get(key, value string) (PairRecord, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	rec, live := e.lookupLocked(key, value)
	if !live {
		return PairRecord{}, false
	}
	return rec.PairRecord, true
}

// Put upserts a record. isNew tells the engine whether the pair is
// currently absent (the caller has just established that via Get or
// Delete), so Len stays right with a blind write into the memtable.
func (e *engine) Put(rec PairRecord, isNew bool) {
	e.mu.Lock()
	e.mem.upsert(indexEntry[bool]{PairRecord: rec})
	if isNew {
		e.n++
	}
	e.mutations++
	e.mu.Unlock()
}

// Delete removes the pair, returning the removed record.
func (e *engine) Delete(key, value string) (PairRecord, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.single() {
		// Nothing beneath the memtable to shadow: drop the entry outright
		// (a leftover delete marker included).
		ent, ok := e.mem.remove(key, value)
		if !ok || ent.aux {
			return PairRecord{}, false
		}
		e.n--
		e.mutations++
		return ent.PairRecord, true
	}
	rec, live := e.lookupLocked(key, value)
	if !live {
		return PairRecord{}, false
	}
	e.mem.upsert(indexEntry[bool]{aux: true, PairRecord: PairRecord{Key: key, Value: value}})
	e.n--
	e.mutations++
	return rec.PairRecord, true
}

// ScanKey streams, in value order, the records stored under exactly this
// key: ScanPrefix(key, "") stopped at the first longer key.
func (e *engine) ScanKey(key string, fn func(PairRecord) bool) {
	e.ScanPrefix(key, "", func(rec PairRecord) bool {
		return rec.Key == key && fn(rec)
	})
}

// Len returns the number of live pairs.
func (e *engine) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.n
}

// Close releases the open segments. The engine must not be read
// afterwards.
func (e *engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	var err error
	for _, g := range e.segs {
		if cerr := g.close(); err == nil {
			err = cerr
		}
	}
	e.segs = nil
	return err
}

// --- scanning ---------------------------------------------------------------

// pairSource is the k-way merge's view of one sorted record stream.
type pairSource interface {
	peek() (segRec, bool, error)
	advance()
}

// memtableSource streams a memtable from a cursor.
type memtableSource struct{ c *indexCursor[bool] }

func (s memtableSource) peek() (segRec, bool, error) {
	ent, ok := s.c.peek()
	if !ok {
		return segRec{}, false, nil
	}
	return memRec(ent), true, nil
}

func (s memtableSource) advance() { s.c.advance() }

// ScanPrefix streams, in (key, value) order, every record whose key bit
// string starts with prefix (raw string prefix — the zero-padded digest
// bucket membership is layered on top by the Store) and is >= from in
// string order ("" for no lower bound). Records below from are never
// yielded: every source seeks past them, a segment through its sparse
// index, so a range read visits only the records at or past its lower
// bound. fn returns false to stop early. fn must not call back into the
// engine or mutate the store.
func (e *engine) ScanPrefix(prefix, from string, fn func(PairRecord) bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	start := max(prefix, from)
	if e.single() {
		// The keys under prefix are the ones from start up to the first key
		// without it.
		e.mem.ascend(start, func(ent *indexEntry[bool]) bool {
			return hasPrefix(ent.Key, prefix) && (ent.aux || fn(ent.PairRecord))
		})
		return
	}
	// Sources in shadowing order: the memtable, the frozen memtable, then
	// segments newest first.
	sources := make([]pairSource, 0, 2+len(e.segs))
	sources = append(sources, memtableSource{e.mem.seek(start)})
	if e.frozen != nil {
		sources = append(sources, memtableSource{e.frozen.seek(start)})
	}
	for i := len(e.segs) - 1; i >= 0; i-- {
		it, err := e.segs[i].iter(start, "")
		if err != nil {
			e.fail(err)
			return
		}
		sources = append(sources, it)
	}
	if err := mergeSources(sources, prefix, func(rec segRec) bool {
		return rec.Del || fn(rec.PairRecord)
	}); err != nil {
		e.fail(err)
	}
}

// mergeSources k-way merges sorted record streams, resolving duplicates in
// favour of the earliest source, and stops once records leave the prefix.
// Delete markers are passed through to fn (callers skip or drop them).
func mergeSources(sources []pairSource, prefix string, fn func(segRec) bool) error {
	for {
		best := -1
		var bestRec segRec
		for i, src := range sources {
			rec, ok, err := src.peek()
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			if best == -1 || pairLess(rec.Key, rec.Value, bestRec.Key, bestRec.Value) {
				best, bestRec = i, rec
			}
		}
		if best == -1 {
			return nil
		}
		if !hasPrefix(bestRec.Key, prefix) {
			// Sources only yield records at or past the prefix, so the first
			// non-matching minimum means every remaining record is past it.
			return nil
		}
		for _, src := range sources {
			rec, ok, err := src.peek()
			if err != nil {
				return err
			}
			if ok && rec.Key == bestRec.Key && rec.Value == bestRec.Value {
				src.advance()
			}
		}
		if !fn(bestRec) {
			return nil
		}
	}
}

// --- checkpoint integration (persist.go) ------------------------------------

// freeze captures what a checkpoint writes. Called with the owning Store's
// lock held, at the WAL rotation point, so the capture is exactly the state
// at the snapshot boundary. A resident engine returns a copy of its
// records, or nothing when its files already hold them. Otherwise the
// active memtable moves aside for flushing; if an earlier flush failed, its
// frozen set is merged under the new one, the memtable's entries replacing
// the frozen ones of the same pair.
func (e *engine) freeze() []PairRecord {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.resident {
		e.taken = e.mutations
		if e.taken == e.saved {
			return nil
		}
		recs := make([]PairRecord, 0, e.n)
		e.mem.ascend("", func(ent *indexEntry[bool]) bool {
			recs = append(recs, ent.PairRecord)
			return true
		})
		return recs
	}
	if e.mem.len() == 0 {
		return nil
	}
	if e.frozen == nil {
		e.frozen = e.mem
	} else {
		e.mem.ascend("", func(ent *indexEntry[bool]) bool {
			e.frozen.upsert(*ent)
			return true
		})
	}
	e.mem = newOrderedIndex[bool]()
	return nil
}

// flushed is what a checkpoint's flush leaves for its snapshot: the
// manifest (the segment files now holding the pairs), wait, which blocks
// until those files are durable (nil when they already are), and commit,
// called once the snapshot naming the manifest is durable (true) or has
// failed (false).
type flushed struct {
	manifest []string
	wait     func() error
	commit   func(ok bool)
}

// flush writes what freeze captured. The disk policy flushes the frozen
// memtable to a new segment and compacts past the threshold; its commit
// deletes the segments a compaction replaced. A resident engine writes recs
// as one segment, in the background while the snapshot is written, and
// keeps its files when freeze captured no change; its commit deletes every
// other segment file it holds. Runs outside the store lock; serialised by the
// checkpoint mutex.
func (e *engine) flush(recs []PairRecord) (flushed, error) {
	if !e.resident {
		cleanup, err := e.flushFrozen()
		if err != nil {
			return flushed{}, err
		}
		f := flushed{commit: func(ok bool) {
			if ok {
				cleanup()
			}
		}}
		e.mu.RLock()
		for _, g := range e.segs {
			f.manifest = append(f.manifest, g.name)
		}
		e.mu.RUnlock()
		return f, nil
	}
	if e.taken == e.saved {
		// No mutation since the files were written: they are the manifest.
		return flushed{manifest: e.files, commit: func(bool) {}}, nil
	}
	var f flushed
	if len(recs) > 0 {
		// The segment is written while the snapshot is.
		name := segmentFileName(e.nextSeq)
		e.nextSeq++
		f.manifest = []string{name}
		e.files = append(e.files, name)
		done := make(chan struct{})
		var err error
		go func() {
			defer close(done)
			_, err = writeSegmentFile(filepath.Join(e.dir, name), func(add func(segRec) error) error {
				for _, rec := range recs {
					if err := add(segRec{PairRecord: rec}); err != nil {
						return err
					}
				}
				return nil
			})
		}()
		f.wait = func() error { <-done; return err }
	}
	taken := e.taken
	f.commit = func(ok bool) {
		if f.wait != nil {
			f.wait() // no write outlives its checkpoint
		}
		if !ok {
			return // the new segment stays in files until a commit
		}
		for _, name := range e.files {
			if !slices.Contains(f.manifest, name) {
				os.Remove(filepath.Join(e.dir, name))
			}
		}
		e.files, e.saved = f.manifest, taken
	}
	return f, nil
}

// flushFrozen writes the frozen memtable to a new segment and compacts
// when the segment count passes the threshold, returning the compaction's
// cleanup (a no-op without one).
func (e *engine) flushFrozen() (func(), error) {
	e.mu.RLock()
	frozen := e.frozen
	e.mu.RUnlock()
	if frozen != nil && frozen.len() > 0 {
		name, err := e.writeSegment(func(add func(segRec) error) error {
			var err error
			frozen.ascend("", func(ent *indexEntry[bool]) bool {
				err = add(memRec(ent))
				return err == nil
			})
			return err
		})
		if err != nil {
			return nil, err
		}
		seg, err := openSegment(filepath.Join(e.dir, name), name)
		if err != nil {
			os.Remove(filepath.Join(e.dir, name))
			return nil, err
		}
		e.mu.Lock()
		e.segs = append(e.segs, seg)
		e.frozen = nil
		e.mu.Unlock()
	}
	if len(e.segs) > diskCompactThreshold {
		return e.compact()
	}
	return func() {}, nil
}

// compact streams a merge of every segment into one new segment, dropping
// delete markers and shadowed records. The replaced files are closed and
// removed by the returned cleanup, which callers invoke once the manifest
// naming the merged segment is durable.
func (e *engine) compact() (func(), error) {
	e.mu.RLock()
	old := append([]*segment(nil), e.segs...)
	e.mu.RUnlock()
	sources := make([]pairSource, 0, len(old))
	for i := len(old) - 1; i >= 0; i-- { // newest first: merge keeps the newest state
		it, err := old[i].iter("", "")
		if err != nil {
			return nil, err
		}
		sources = append(sources, it)
	}
	name, err := e.writeSegment(func(add func(segRec) error) error {
		var err error
		mergeErr := mergeSources(sources, "", func(rec segRec) bool {
			if rec.Del {
				return true // compacting the full set: markers shadow nothing older
			}
			err = add(rec)
			return err == nil
		})
		if mergeErr != nil {
			return mergeErr
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	var segs []*segment
	if name != "" {
		seg, err := openSegment(filepath.Join(e.dir, name), name)
		if err != nil {
			os.Remove(filepath.Join(e.dir, name))
			return nil, err
		}
		segs = []*segment{seg}
	}
	e.mu.Lock()
	e.segs = segs
	e.mu.Unlock()
	return func() {
		// Best effort: leftovers are cleaned at the next open.
		for _, g := range old {
			path := g.f.Name()
			g.close()
			os.Remove(path)
		}
	}, nil
}

// writeSegment writes the records fill adds, in (key, value) order, to the
// next segment file and returns its name, or "" when fill adds none.
func (e *engine) writeSegment(fill func(add func(segRec) error) error) (string, error) {
	name := segmentFileName(e.nextSeq)
	e.nextSeq++
	if ok, err := writeSegmentFile(filepath.Join(e.dir, name), fill); !ok {
		return "", err
	}
	return name, nil
}

// writeSegmentFile writes the records fill adds, in (key, value) order, to
// a new segment file at path and fsyncs it. It reports false, and leaves no
// file, when fill adds none or the write fails.
func writeSegmentFile(path string, fill func(add func(segRec) error) error) (bool, error) {
	w, err := newSegWriter(path)
	if err != nil {
		return false, err
	}
	if err := fill(w.add); err != nil || w.records == 0 {
		w.abort()
		return false, err
	}
	if err := w.finish(); err != nil {
		os.Remove(path)
		return false, err
	}
	return true, nil
}

// segmentCount reports the number of open segments (tests and stats).
func (e *engine) segmentCount() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.segs)
}

// pairCompare orders two pairs by (key bit string, value), returning -1, 0
// or +1. For the bit strings the engine stores, plain string order already
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
