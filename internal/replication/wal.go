package replication

// This file implements the append-only write-ahead log beneath a persistent
// Store. Every logical mutation the store applies is first encoded as one
// CRC-framed record and appended here, so a crashed process can replay the
// exact mutation sequence on restart (see persist.go for the recovery
// protocol and snapshot.go for the compaction that bounds replay length).
//
// Frame format, little-endian:
//
//	uint32 payload length | uint32 CRC-32 (IEEE) of payload | payload
//
// The payload's first byte is the operation tag (op*); the rest is the wire
// encoding (internal/wire) of the operation's record struct, declared
// below, so each struct's field order is its on-disk format. A frame is
// valid only when it is fully present and the checksum matches, which is
// what makes a torn final record — the expected crash artifact of an
// append-only file — detectable: replay stops at the first invalid frame
// and the writer truncates the tail before appending again. A valid frame
// whose payload is not exactly one record of its operation is corruption.
//
// Appends are fsync-batched: every record is written to the file (the OS
// page cache) before the append returns, but the file is fsynced at most
// once per SyncInterval (or on every append with SyncAlways). A killed
// process therefore loses nothing once an append returned; only a machine
// crash can lose the records inside the current fsync window. A bulk apply
// frames its records one by one and writes them all with one write call
// (frame, then flush): the frames are the ones single appends would write,
// so a batch cut short by a crash replays as its complete leading frames.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"

	"pgrid/internal/wire"
)

// WAL record operation tags. The numeric values are part of the on-disk
// format and must never be reused for a different operation.
const (
	// opAdd records a live pair upsert (Store.Add / Store.Insert) with its
	// final generation stamp.
	opAdd byte = 1
	// opTomb records a tombstone upsert (Store.Delete / Store.AddTombstones)
	// with its final generation stamp.
	opTomb byte = 2
	// opPrune records one tombstone-GC compaction: the pruned pairs plus
	// the resulting GC floor.
	opPrune byte = 3
	// opRemovePrefix and opRetainPrefix record the partition handovers of a
	// split (Store.RemovePrefix / Store.RetainPrefix).
	opRemovePrefix byte = 4
	opRetainPrefix byte = 5
	// opReplace records a wholesale partition rebuild
	// (Store.ReplaceWithin).
	opReplace byte = 6
	// opBaseline records a per-replica anti-entropy sync baseline.
	opBaseline byte = 7
	// opMeta records one small key/value metadata pair (the overlay stores
	// its partition path here).
	opMeta byte = 8
	// opMutSeen records one coordinated-mutation ID entering the dedup ring
	// (Store.MarkMutation), so exactly-once coordination survives restarts.
	opMutSeen byte = 9
)

// walPair is the record of opAdd and opTomb: a pair and its generation.
type walPair struct {
	K   string `wire:"bits"`
	V   string
	Gen uint64
}

// prunedPair is one tombstone removed by GC.
type prunedPair struct {
	K string `wire:"bits"`
	V string
}

// walPrune is the record of opPrune.
type walPrune struct {
	Pairs []prunedPair
	Floor uint64
}

// walPrefix is the record of opRemovePrefix and opRetainPrefix.
type walPrefix struct{ P string }

// walReplace is the record of opReplace: the rebuilt partition and the
// pairs installed in it.
type walReplace struct {
	P     string
	Items []walPair
	Tombs []walPair
}

// baselineRecord is the record of opBaseline and of a snapshot's
// snapTagBaseline. The zero Baseline deletes the replica's entry.
type baselineRecord struct {
	Replica string
	Baseline
}

// metaRecord is the record of opMeta and of a snapshot's snapTagMeta.
type metaRecord struct{ Key, Value string }

// walMutation is the record of opMutSeen.
type walMutation struct{ ID uint64 }

// walRecords is the codec table of the WAL payloads.
var walRecords = wire.NewRecords(map[byte]any{
	opAdd:          walPair{},
	opTomb:         walPair{},
	opPrune:        walPrune{},
	opRemovePrefix: walPrefix{},
	opRetainPrefix: walPrefix{},
	opReplace:      walReplace{},
	opBaseline:     baselineRecord{},
	opMeta:         metaRecord{},
	opMutSeen:      walMutation{},
})

// walFrameHeader is the fixed per-record framing overhead.
const walFrameHeader = 8 // uint32 length + uint32 CRC

// maxWALRecord bounds a single record's payload; longer frames are treated
// as corruption during replay (a length word from a torn write can read as
// garbage).
const maxWALRecord = 64 << 20

// errWALCorrupt reports real corruption rather than a torn tail: an invalid
// frame before the final record of the final segment, or a valid frame whose
// payload is not exactly one well-formed record.
var errWALCorrupt = errors.New("replication: WAL corrupt")

// walScratchKeep caps the frame buffer a wal keeps between writes: a bulk
// apply's batch can run to megabytes, and holding that per store after
// construction would be pure heap.
const walScratchKeep = 64 << 10

// wal is an append-only, CRC-framed, fsync-batched log file.
type wal struct {
	mu       sync.Mutex
	f        *os.File
	scratch  []byte // frames not yet written; one flush writes them all
	pending  int    // records framed in scratch
	size     int64  // bytes appended (including frames)
	records  int    // records appended since open
	writes   int    // write calls made since open (what batching saves)
	dirty    bool   // written data not yet fsynced
	lastSync time.Time
	interval time.Duration // fsync at most this often; <=0 means every append
	now      func() time.Time
}

// openWAL opens (creating if needed) the segment file at path for
// appending at the given offset — the end of the last valid record, as
// previously established by scanWAL — truncating any torn tail beyond it.
func openWAL(path string, interval time.Duration, valid int64) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &wal{
		f:        f,
		size:     valid,
		interval: interval,
		now:      time.Now,
	}, nil
}

// frame encodes one record — the op tag and the op's record struct — into
// a frame behind the ones not yet written; flush writes them. Callers
// serialise appends through the owning store's lock, but the wal keeps its
// own mutex so Sync/Close are independently safe.
func (w *wal) frame(op byte, rec any) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	// Encode behind room for the frame header, then fill the header in.
	start := len(w.scratch)
	w.scratch = walRecords.Append(append(w.scratch, make([]byte, walFrameHeader)...), op, rec)
	payload := w.scratch[start+walFrameHeader:]
	if len(payload) > maxWALRecord {
		w.scratch = w.scratch[:start]
		return fmt.Errorf("replication: WAL record of %d bytes exceeds limit", len(payload))
	}
	binary.LittleEndian.PutUint32(w.scratch[start:start+4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.scratch[start+4:start+8], crc32.ChecksumIEEE(payload))
	w.pending++
	return nil
}

// flush writes every framed record to the file in a single write call,
// fsyncing when the batching interval elapsed.
func (w *wal) flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.pending == 0 {
		return nil
	}
	buf, n := w.scratch, w.pending
	w.scratch, w.pending = w.scratch[:0], 0
	if cap(w.scratch) > walScratchKeep {
		w.scratch = nil
	}
	w.writes++
	if _, err := w.f.Write(buf); err != nil {
		return err
	}
	w.size += int64(len(buf))
	w.records += n
	w.dirty = true
	if w.interval <= 0 || w.now().Sub(w.lastSync) >= w.interval {
		return w.syncLocked()
	}
	return nil
}

// syncLocked fsyncs pending writes (callers must hold w.mu).
func (w *wal) syncLocked() error {
	if !w.dirty {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.dirty = false
	w.lastSync = w.now()
	return nil
}

// sync makes every appended record durable.
func (w *wal) sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

// close syncs and closes the segment file.
func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.syncLocked()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// scanWAL reads the segment at path, invoking apply for every valid record
// payload in order, and returns the byte offset of the end of the last
// valid record plus the number of valid records. A torn or corrupt frame
// ends the scan cleanly (the offset points just before it) — that is the
// expected crash artifact. A genuine read error aborts with that error
// instead: truncating at a transiently unreadable position would destroy
// committed records. apply may be nil to only measure.
func scanWAL(path string, apply func(payload []byte) error) (valid int64, records int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 256<<10)
	var hdr [walFrameHeader]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return valid, records, nil // clean end or torn header
			}
			return valid, records, fmt.Errorf("replication: read WAL header: %w", err)
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n > maxWALRecord {
			return valid, records, nil // garbage length word: torn tail
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return valid, records, nil // torn payload
			}
			return valid, records, fmt.Errorf("replication: read WAL record: %w", err)
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return valid, records, nil // bit rot or torn rewrite
		}
		if apply != nil {
			if err := apply(payload); err != nil {
				return valid, records, err
			}
		}
		valid += int64(walFrameHeader) + int64(n)
		records++
	}
}
