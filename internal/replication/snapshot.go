package replication

// This file implements the compacted snapshots that bound WAL replay: a
// snapshot is a complete, self-contained image of a store's durable state —
// live items, tombstones (with their age metadata), per-pair last-modified
// versions, the logical clock, the GC floor, the per-replica sync baselines
// and the small metadata map — taken at a WAL segment boundary. Recovery
// loads the newest valid snapshot and replays only the WAL segments that
// follow it (persist.go); once a snapshot is durably on disk, the segments
// it covers are deleted.
//
// A snapshot (snap-<seq>.bin) is a CRC-trailed stream of records — one
// small record per pair, encoded and written through a buffered writer, so
// writing a checkpoint never materialises the store as one contiguous
// image. The byte layout is: "PGSN", the header (snapHeader), tagged
// records (a tag byte followed by the record struct, snapRecords), an end
// tag, and a little-endian CRC-32 (IEEE) over everything before it. Every
// record is the wire encoding (internal/wire) of a struct declared below,
// so each struct's field order is its on-disk format.
//
// The retired version-1 format (snap-<seq>.json) is not read. A data
// directory whose state still lives in one is refused rather than opened
// without it (loadLatestSnapshot).
//
// Snapshots are written atomically (temp file + fsync + rename + directory
// fsync) and carry the sequence number of the first WAL segment *not*
// covered, so a crash at any point leaves either the previous snapshot with
// all its segments, or the new snapshot with the new segment — never a
// state that replays mutations twice or skips them.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"pgrid/internal/wire"
)

// snapshotVersion is the format version written after snapMagic. Version 1
// was the retired JSON document.
const snapshotVersion = 2

// snapMagic opens every binary snapshot file.
const snapMagic = "PGSN"

// Binary snapshot record tags. The numeric values are part of the on-disk
// format and must never be reused for a different record kind.
const (
	snapTagEnd      byte = 0
	snapTagItem     byte = 1
	snapTagTomb     byte = 2
	snapTagBaseline byte = 3
	snapTagMeta     byte = 4
	// snapTagEngine marks an external-pairs snapshot, the only kind a
	// checkpoint writes: the live pairs are not inlined as snapTagItem
	// records but live in the segment files the record's manifest names.
	// Carries the live pair count.
	snapTagEngine byte = 5
	// snapTagDigest is one dense digest-tree cell. Only written in external
	// mode, where recovery does not rebuild the tree from the pairs; the
	// dense tree is bounded (prefixes up to digestDenseDepth), so this keeps
	// recovery free of any pair scan.
	snapTagDigest byte = 6
	// snapTagMutation is the mutation dedup ring (oldest ID first).
	snapTagMutation byte = 7
)

// snapHeader follows snapMagic.
type snapHeader struct{ Version, Clock, GCFloor uint64 }

// snapItem is the record of snapTagItem: one live pair.
type snapItem struct {
	K   string `wire:"bits"`
	V   string
	Gen uint64
	Ver uint64 // last-modified store clock
}

// snapTomb is the record of snapTagTomb: one tombstoned pair.
type snapTomb struct {
	K    string `wire:"bits"`
	V    string
	Gen  uint64
	Born uint64 // store clock at recording
	At   int64  // wall clock at recording, unix nanos
	Ver  uint64
}

// snapEngine is the record of snapTagEngine.
type snapEngine struct {
	Count    uint64
	Manifest []string
}

// snapDigest is the record of snapTagDigest: one dense digest-tree cell.
type snapDigest struct {
	P string
	H uint64 `wire:"fixed64"`
	N uint64
}

// snapMutations is the record of snapTagMutation.
type snapMutations struct{ IDs []uint64 }

// snapHeaderCodec and snapRecords encode the header and the tagged records.
var (
	snapHeaderCodec = wire.MustCompile(snapHeader{})
	snapRecords     = wire.NewRecords(map[byte]any{
		snapTagItem:     snapItem{},
		snapTagTomb:     snapTomb{},
		snapTagBaseline: baselineRecord{},
		snapTagMeta:     metaRecord{},
		snapTagEngine:   snapEngine{},
		snapTagDigest:   snapDigest{},
		snapTagMutation: snapMutations{},
	})
)

// snapshotState is the in-memory form of a store's durable state, captured
// at a WAL segment boundary and streamed to disk record by record.
type snapshotState struct {
	Seq       uint64 // first WAL segment not covered
	Clock     uint64
	GCFloor   uint64
	Items     []snapItem
	Tombs     []snapTomb
	Baselines map[string]Baseline
	Meta      map[string]string

	// External-pairs mode (every checkpoint; Items is read only from older
	// directories): the live pairs are in the segment files named by
	// Manifest rather than inlined in Items, Count is the live pair count
	// at the boundary, and Digests carries the dense digest tree so
	// recovery does not rehash the pairs.
	External bool
	Count    int
	Manifest []string
	Digests  []snapDigest
	// MutLog is the mutation dedup ring, oldest first.
	MutLog []uint64
}

// snapshotName renders the file name of the snapshot covering everything
// before WAL segment seq.
func snapshotName(seq uint64) string { return fmt.Sprintf("snap-%016d.bin", seq) }

// segmentName renders the file name of WAL segment seq.
func segmentName(seq uint64) string { return fmt.Sprintf("wal-%016d.log", seq) }

// parseSeq extracts the sequence number from a snapshot or segment file
// name.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// crcWriter folds everything written through it into a running CRC-32.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
	return c.w.Write(p)
}

// encodeSnapshotTo streams the snapshot's records through a buffered writer
// in the binary format. Each record is encoded into a small reused scratch
// buffer, so the memory high-water mark of writing a checkpoint is one
// record plus the writer's buffer — not an image of the store. Tombstones
// (sorted in place by pair), baselines and metadata (by key) are written
// in order, so one state always encodes to the same bytes; the sort runs
// here, on the captured state, outside the store lock.
func encodeSnapshotTo(w io.Writer, st *snapshotState) error {
	slices.SortFunc(st.Tombs, func(a, b snapTomb) int { return pairCompare(a.K, a.V, b.K, b.V) })
	bw := bufio.NewWriterSize(w, 64<<10)
	cw := &crcWriter{w: bw}
	scratch := append(make([]byte, 0, 256), snapMagic...) // reused for every record
	scratch = snapHeaderCodec.Append(scratch, snapHeader{Version: snapshotVersion, Clock: st.Clock, GCFloor: st.GCFloor})
	_, err := cw.Write(scratch)
	emit := func(tag byte, rec any) {
		if err == nil {
			scratch = snapRecords.Append(scratch[:0], tag, rec)
			_, err = cw.Write(scratch)
		}
	}
	for _, it := range st.Items {
		emit(snapTagItem, it)
	}
	for _, tb := range st.Tombs {
		emit(snapTagTomb, tb)
	}
	for _, addr := range sortedKeys(st.Baselines) {
		emit(snapTagBaseline, baselineRecord{Replica: addr, Baseline: st.Baselines[addr]})
	}
	for _, k := range sortedKeys(st.Meta) {
		emit(snapTagMeta, metaRecord{Key: k, Value: st.Meta[k]})
	}
	if st.External {
		emit(snapTagEngine, snapEngine{Count: uint64(st.Count), Manifest: st.Manifest})
		for _, dc := range st.Digests {
			emit(snapTagDigest, dc)
		}
	}
	if len(st.MutLog) > 0 {
		emit(snapTagMutation, snapMutations{IDs: st.MutLog})
	}
	if err == nil {
		_, err = cw.Write([]byte{snapTagEnd})
	}
	if err != nil {
		return err
	}
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], cw.crc)
	if _, err := bw.Write(crcBuf[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// errSnapshotCorrupt reports an unreadable snapshot; recovery skips it in
// favour of an older one.
var errSnapshotCorrupt = errors.New("replication: snapshot corrupt")

// decodeBinarySnapshot parses a version-2 snapshot file. Counts that do not
// fit an int, and digest cells before the engine record, are corruption.
func decodeBinarySnapshot(data []byte) (*snapshotState, error) {
	if len(data) < len(snapMagic)+5 || string(data[:len(snapMagic)]) != snapMagic {
		return nil, errSnapshotCorrupt
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, errSnapshotCorrupt
	}
	d := wire.NewDecoder(body[len(snapMagic):])
	var h snapHeader
	snapHeaderCodec.Read(d, &h)
	if d.Err() != nil || h.Version != snapshotVersion {
		return nil, errSnapshotCorrupt
	}
	st := &snapshotState{Clock: h.Clock, GCFloor: h.GCFloor}
	for {
		tag := d.Byte()
		if d.Err() != nil {
			return nil, errSnapshotCorrupt
		}
		read := func(rec any) { snapRecords[tag].Read(d, rec) }
		switch tag {
		case snapTagEnd:
			if err := d.Finish(); err != nil {
				return nil, errSnapshotCorrupt
			}
			return st, nil
		case snapTagItem:
			st.Items = append(st.Items, snapItem{})
			read(&st.Items[len(st.Items)-1])
		case snapTagTomb:
			st.Tombs = append(st.Tombs, snapTomb{})
			read(&st.Tombs[len(st.Tombs)-1])
		case snapTagBaseline:
			var rec baselineRecord
			read(&rec)
			if st.Baselines == nil {
				st.Baselines = make(map[string]Baseline)
			}
			st.Baselines[rec.Replica] = rec.Baseline
		case snapTagMeta:
			var rec metaRecord
			read(&rec)
			if st.Meta == nil {
				st.Meta = make(map[string]string)
			}
			st.Meta[rec.Key] = rec.Value
		case snapTagEngine:
			var rec snapEngine
			read(&rec)
			if rec.Count > math.MaxInt {
				return nil, errSnapshotCorrupt
			}
			for _, name := range rec.Manifest {
				// Recovery joins each name to the data directory, opens it
				// and, once compaction replaces it, removes it: only the
				// engine's own names are sure to stay inside.
				if seq, ok := parseSeq(name, "seg-", ".seg"); !ok || name != segmentFileName(seq) {
					return nil, errSnapshotCorrupt
				}
			}
			st.External, st.Count, st.Manifest = true, int(rec.Count), rec.Manifest
		case snapTagDigest:
			if !st.External {
				return nil, errSnapshotCorrupt // cells follow the engine record
			}
			st.Digests = append(st.Digests, snapDigest{})
			read(&st.Digests[len(st.Digests)-1])
			if dc := st.Digests[len(st.Digests)-1]; dc.N > math.MaxInt || len(dc.P) > digestDenseDepth {
				return nil, errSnapshotCorrupt
			}
		case snapTagMutation:
			var rec snapMutations
			read(&rec)
			st.MutLog = append(st.MutLog, rec.IDs...)
		default:
			return nil, errSnapshotCorrupt
		}
		if d.Err() != nil {
			return nil, errSnapshotCorrupt
		}
	}
}

// writeSnapshot atomically persists the snapshot into dir. segmentsDurable,
// when not nil, blocks until the segment files the manifest names are
// fsynced; it is waited for before the rename that commits the snapshot,
// and the directory is synced in between, so a durable snapshot never
// names a segment that is not.
func writeSnapshot(dir string, st *snapshotState, segmentsDurable func() error) error {
	tmp, err := os.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if err := encodeSnapshotTo(tmp, st); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if segmentsDurable != nil {
		err = segmentsDurable()
	}
	if err == nil {
		err = syncDir(dir)
	}
	if err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, filepath.Join(dir, snapshotName(st.Seq))); err != nil {
		os.Remove(tmpName)
		return err
	}
	return syncDir(dir)
}

// listSnapshots returns the sequence numbers of the snapshots in dir, newest
// first: the snap-<seq>.bin files this code reads, and separately the
// snap-<seq>.json files of the retired version-1 format.
func listSnapshots(dir string) (bins, retired []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), "snap-", ".bin"); ok {
			bins = append(bins, seq)
		}
		if seq, ok := parseSeq(e.Name(), "snap-", ".json"); ok {
			retired = append(retired, seq)
		}
	}
	newestFirst := func(s []uint64) { sort.Slice(s, func(i, j int) bool { return s[i] > s[j] }) }
	newestFirst(bins)
	newestFirst(retired)
	return bins, retired, nil
}

// loadLatestSnapshot finds and decodes the newest readable snapshot in dir.
// It returns ok=false (and no error) when dir holds no usable snapshot; a
// snapshot that fails to decode is skipped in favour of an older one, so a
// crash mid-rename can never make recovery fail outright.
//
// It fails when dir holds a snap-<seq>.json (the retired version-1 format)
// newer than the snapshot it could load: the WAL segments that file covers
// were deleted when it was written, so recovering without it would replay
// only the WAL tail and silently lose its content. A .json at or below the
// loaded snapshot is superseded and ignored.
func loadLatestSnapshot(dir string) (*snapshotState, bool, error) {
	bins, retired, err := listSnapshots(dir)
	if err != nil {
		return nil, false, err
	}
	var st *snapshotState
	for _, seq := range bins {
		data, err := os.ReadFile(filepath.Join(dir, snapshotName(seq)))
		if err != nil {
			continue
		}
		if st, err = decodeBinarySnapshot(data); err == nil {
			st.Seq = seq
			break
		}
	}
	if len(retired) > 0 && (st == nil || retired[0] > st.Seq) {
		return nil, false, fmt.Errorf("replication: %s is in the retired JSON snapshot format and no readable snap-*.bin covers it: reopen once with the previous version and checkpoint",
			filepath.Join(dir, fmt.Sprintf("snap-%016d.json", retired[0])))
	}
	return st, st != nil, nil
}

// listSegments returns the WAL segment sequence numbers present in dir, in
// ascending order.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), "wal-", ".log"); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// removeBelow deletes snapshots and WAL segments made obsolete by a durable
// snapshot at seq (segments < seq, snapshots < seq). Best effort: leftover
// files only cost disk space, never correctness.
func removeBelow(dir string, seq uint64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if s, ok := parseSeq(e.Name(), "wal-", ".log"); ok && s < seq {
			os.Remove(filepath.Join(dir, e.Name()))
		}
		if s, ok := parseSeq(e.Name(), "snap-", ".bin"); ok && s < seq {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// syncDir fsyncs a directory so a just-created or just-renamed entry
// survives power loss. Filesystems that do not support directory fsync
// (EINVAL/ENOTSUP) are tolerated — the rename itself is still atomic —
// but genuine I/O failures are reported, so a checkpoint cannot delete
// the WAL segments a non-durable snapshot was meant to replace.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) {
			return nil
		}
		return err
	}
	return nil
}
