package replication

// The disk-backed storage engine: an LSM-lite of one in-memory memtable over
// immutable sorted segment files (segment.go). Writes land in the memtable
// (they are already WAL-durable — the Store logs every mutation before the
// engine sees it); a checkpoint freezes the memtable, flushes it to a new
// segment and, past a segment-count threshold, compacts all segments into
// one. Reads consult the memtable, the frozen memtable being flushed, then
// segments newest-first; range scans k-way merge all of them.
//
// Crash consistency is manifest-gated: a segment file only becomes part of
// the store when a committed snapshot lists it (snapshot.go), which happens
// after the file and the directory entry are fsynced. Recovery therefore
// opens exactly the manifest's segments — whose content is exactly the
// engine state at the snapshot's WAL boundary — deletes unreferenced
// segment files (flushes whose snapshot never committed; their records are
// still recovered from the surviving WAL segments), and replays the WAL
// tail into the memtable. No pair scan is needed to serve: the segments'
// sparse indexes are the only thing loaded.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// diskCompactThreshold is the number of segments above which a checkpoint
// merges all segments into one.
const diskCompactThreshold = 4

// memtable is the disk engine's in-memory index of pair records. An
// entry's flag marks a delete marker shadowing older segments.
type memtable = orderedIndex[bool]

// memRec returns a memtable entry as a segment record.
func memRec(ent *indexEntry[bool]) segRec {
	return segRec{Del: ent.aux, PairRecord: ent.PairRecord}
}

// diskEngine implements Engine over a memtable plus sorted segments.
type diskEngine struct {
	dir       string
	ephemeral bool // remove dir on Close (throwaway engine without persistence)

	// mu guards the memtables and the segment list. Mutating Engine calls are
	// additionally serialised by the owning Store's lock; flushes and
	// compactions run outside that lock (only checkpoint-serialised), which
	// is why readers must hold mu too.
	mu      sync.RWMutex
	mem     *memtable
	frozen  *memtable  // pending flush; nil when none
	segs    []*segment // oldest first
	n       int        // live pair count
	nextSeq uint64     // next segment file sequence (checkpoint-serialised)

	errMu sync.Mutex
	err   error // sticky segment I/O failure
}

// openDiskEngine opens the engine over dir: it opens the manifest's
// segments (in manifest order, oldest first), deletes unreferenced segment
// files — flushes of checkpoints that never committed; the WAL still holds
// their records — and starts an empty memtable. count is the live pair
// count at the manifest's snapshot boundary.
func openDiskEngine(dir string, manifest []string, count int) (*diskEngine, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	keep := make(map[string]bool, len(manifest))
	for _, name := range manifest {
		keep[name] = true
	}
	var maxSeq uint64
	for _, e := range entries {
		seq, ok := parseSeq(e.Name(), "seg-", ".seg")
		if !ok {
			continue
		}
		if seq >= maxSeq {
			maxSeq = seq + 1
		}
		if !keep[e.Name()] {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	eng := &diskEngine{
		dir:     dir,
		mem:     newOrderedIndex[bool](),
		n:       count,
		nextSeq: maxSeq,
	}
	for _, name := range manifest {
		seg, err := openSegment(filepath.Join(dir, name), name)
		if err != nil {
			eng.Close()
			return nil, fmt.Errorf("replication: open segment %s: %w", name, err)
		}
		eng.segs = append(eng.segs, seg)
	}
	// The count comes from a snapshot and sizes reads (Store.Items): hold
	// it to what the segments can hold, one index entry per segIndexEvery
	// records.
	bound := 0
	for _, seg := range eng.segs {
		bound += len(seg.index) * segIndexEvery
	}
	if count > bound {
		eng.Close()
		return nil, fmt.Errorf("replication: snapshot counts %d pairs, its segments hold at most %d: %w", count, bound, errSnapshotCorrupt)
	}
	return eng, nil
}

// fail records a sticky segment I/O failure (surfaced through
// Store.PersistenceErr).
func (e *diskEngine) fail(err error) {
	e.errMu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.errMu.Unlock()
}

// Err returns the sticky segment I/O failure, if any.
func (e *diskEngine) Err() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.err
}

// lookupLocked resolves a pair across memtable, frozen memtable and
// segments (newest first). It returns the record and whether the pair is
// live — a delete marker is a definitive miss. Callers must hold mu.
func (e *diskEngine) lookupLocked(key, value string) (segRec, bool) {
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

func (e *diskEngine) Get(key, value string) (PairRecord, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	rec, live := e.lookupLocked(key, value)
	if !live {
		return PairRecord{}, false
	}
	return rec.PairRecord, true
}

func (e *diskEngine) Put(rec PairRecord, isNew bool) {
	e.mu.Lock()
	e.mem.upsert(indexEntry[bool]{PairRecord: rec})
	if isNew {
		e.n++
	}
	e.mu.Unlock()
}

func (e *diskEngine) Delete(key, value string) (PairRecord, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	rec, live := e.lookupLocked(key, value)
	if !live {
		return PairRecord{}, false
	}
	if e.frozen == nil && len(e.segs) == 0 {
		// Nothing beneath the memtable to shadow: drop the entry outright.
		e.mem.remove(key, value)
	} else {
		e.mem.upsert(indexEntry[bool]{aux: true, PairRecord: PairRecord{Key: key, Value: value}})
	}
	e.n--
	return rec.PairRecord, true
}

func (e *diskEngine) ScanKey(key string, fn func(PairRecord) bool) {
	e.ScanPrefix(key, "", func(rec PairRecord) bool {
		if rec.Key != key {
			return false
		}
		return fn(rec)
	})
}

func (e *diskEngine) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.n
}

func (e *diskEngine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	var err error
	for _, g := range e.segs {
		if cerr := g.close(); err == nil {
			err = cerr
		}
	}
	e.segs = nil
	if e.ephemeral {
		if rerr := os.RemoveAll(e.dir); err == nil {
			err = rerr
		}
	}
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

func (e *diskEngine) ScanPrefix(prefix, from string, fn func(PairRecord) bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	// Sources in shadowing order: the memtable, the frozen memtable, then
	// segments newest first, each seeking to the first key that is both
	// under prefix and at least from (a segment through its sparse index).
	start := max(prefix, from)
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
		if rec.Del {
			return true
		}
		return fn(rec.PairRecord)
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

// freeze moves the active memtable aside for flushing. Called with the
// owning Store's lock held, at the WAL rotation point of a checkpoint, so
// the frozen set is exactly the un-flushed state at the snapshot boundary.
// If an earlier flush failed, its frozen set is merged under the new one:
// the memtable's entries replace the frozen ones of the same pair.
func (e *diskEngine) freeze() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.mem.len() == 0 {
		return
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
}

// flushFrozen writes the frozen memtable to a new segment, compacts when
// the segment count passes the threshold, fsyncs the directory, and returns
// the manifest (current segment file names) plus a cleanup that deletes
// segments replaced by compaction — to be invoked only after the snapshot
// referencing the new manifest is durable. Runs outside the store lock;
// serialised by the checkpoint mutex.
func (e *diskEngine) flushFrozen() (manifest []string, cleanup func(), err error) {
	e.mu.RLock()
	frozen := e.frozen
	e.mu.RUnlock()
	if frozen != nil && frozen.len() > 0 {
		name := segmentFileName(e.nextSeq)
		e.nextSeq++
		w, err := newSegWriter(filepath.Join(e.dir, name))
		if err != nil {
			return nil, nil, err
		}
		frozen.ascend("", func(ent *indexEntry[bool]) bool {
			err = w.add(memRec(ent))
			return err == nil
		})
		if err != nil {
			w.abort()
			return nil, nil, err
		}
		if err := w.finish(); err != nil {
			return nil, nil, err
		}
		seg, err := openSegment(filepath.Join(e.dir, name), name)
		if err != nil {
			os.Remove(filepath.Join(e.dir, name))
			return nil, nil, err
		}
		e.mu.Lock()
		e.segs = append(e.segs, seg)
		e.frozen = nil
		e.mu.Unlock()
	}
	if len(e.segs) > diskCompactThreshold {
		cleanup, err = e.compact()
		if err != nil {
			return nil, nil, err
		}
	}
	if err := syncDir(e.dir); err != nil {
		return nil, cleanup, err
	}
	e.mu.RLock()
	manifest = make([]string, 0, len(e.segs))
	for _, g := range e.segs {
		manifest = append(manifest, g.name)
	}
	e.mu.RUnlock()
	return manifest, cleanup, nil
}

// compact streams a merge of every segment into one new segment, dropping
// delete markers and shadowed records. The replaced files are closed and
// removed by the returned cleanup, which callers invoke once the manifest
// naming the merged segment is durable.
func (e *diskEngine) compact() (func(), error) {
	e.mu.RLock()
	old := append([]*segment(nil), e.segs...)
	e.mu.RUnlock()
	name := segmentFileName(e.nextSeq)
	e.nextSeq++
	w, err := newSegWriter(filepath.Join(e.dir, name))
	if err != nil {
		return nil, err
	}
	sources := make([]pairSource, 0, len(old))
	for i := len(old) - 1; i >= 0; i-- { // newest first: merge keeps the newest state
		it, err := old[i].iter("", "")
		if err != nil {
			w.abort()
			return nil, err
		}
		sources = append(sources, it)
	}
	mergeErr := mergeSources(sources, "", func(rec segRec) bool {
		if rec.Del {
			return true // compacting the full set: markers shadow nothing older
		}
		err = w.add(rec)
		return err == nil
	})
	if mergeErr == nil {
		mergeErr = err
	}
	if mergeErr != nil {
		w.abort()
		return nil, mergeErr
	}
	if w.records == 0 {
		w.abort()
		e.mu.Lock()
		e.segs = nil
		e.mu.Unlock()
		return func() { removeSegments(old) }, nil
	}
	if err := w.finish(); err != nil {
		return nil, err
	}
	seg, err := openSegment(filepath.Join(e.dir, name), name)
	if err != nil {
		os.Remove(filepath.Join(e.dir, name))
		return nil, err
	}
	e.mu.Lock()
	e.segs = []*segment{seg}
	e.mu.Unlock()
	return func() { removeSegments(old) }, nil
}

// removeSegments closes and deletes replaced segment files (best effort —
// leftovers are cleaned at the next open).
func removeSegments(segs []*segment) {
	for _, g := range segs {
		path := g.f.Name()
		g.close()
		os.Remove(path)
	}
}

// segmentCount reports the number of on-disk segments (tests and stats).
func (e *diskEngine) segmentCount() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.segs)
}
