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
// A snapshot (snap-<seq>.bin) is a CRC-trailed stream of wire-codec records
// — one small record per pair, encoded and written through a buffered
// writer, so writing a checkpoint never materialises the store as one
// contiguous image. The byte layout is: "PGSN", uvarint version, uvarint
// clock, uvarint GC floor, tagged records (item/tombstone/baseline/meta), an
// end tag, and a little-endian CRC-32 (IEEE) over everything before it.
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
	"os"
	"path/filepath"
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
	// snapTagEngine marks an external-pairs snapshot (disk engine): the live
	// pairs are not inlined as snapTagItem records but live in the segment
	// files the record's manifest names. Carries the live pair count.
	snapTagEngine byte = 5
	// snapTagDigest is one dense digest-tree cell. Only written in external
	// mode, where recovery cannot rebuild the tree from inlined items; the
	// dense tree is bounded (prefixes up to digestDenseDepth), so this keeps
	// recovery free of any pair scan.
	snapTagDigest byte = 6
	// snapTagMutation is the mutation dedup ring (oldest ID first).
	snapTagMutation byte = 7
)

// snapItem is one live pair in a snapshot.
type snapItem struct {
	K   string // key bit string
	V   string
	Gen uint64
	Ver uint64 // last-modified store clock
}

// snapTomb is one tombstoned pair in a snapshot.
type snapTomb struct {
	K    string
	V    string
	Gen  uint64
	Born uint64 // store clock at recording
	At   int64  // wall clock at recording, unix nanos
	Ver  uint64
}

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

	// External-pairs mode (disk engine): the live pairs are in the segment
	// files named by Manifest rather than inlined in Items, Count is the
	// live pair count at the boundary, and Digests carries the dense digest
	// tree so recovery does not scan the pairs.
	External bool
	Count    int
	Manifest []string
	Digests  []snapDigest
	// MutLog is the mutation dedup ring, oldest first (both engines).
	MutLog []uint64
}

// snapDigest is one dense digest-tree cell carried by an external-pairs
// snapshot.
type snapDigest struct {
	P string
	H uint64
	N int
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
// record plus the writer's buffer — not an image of the store.
func encodeSnapshotTo(w io.Writer, st *snapshotState) error {
	bw := bufio.NewWriterSize(w, 256<<10)
	cw := &crcWriter{w: bw}
	var scratch []byte
	emit := func(b []byte) error {
		_, err := cw.Write(b)
		return err
	}
	scratch = append(scratch[:0], snapMagic...)
	scratch = wire.AppendUvarint(scratch, snapshotVersion)
	scratch = wire.AppendUvarint(scratch, st.Clock)
	scratch = wire.AppendUvarint(scratch, st.GCFloor)
	if err := emit(scratch); err != nil {
		return err
	}
	for _, it := range st.Items {
		scratch = append(scratch[:0], snapTagItem)
		scratch = wire.AppendString(scratch, it.K)
		scratch = wire.AppendString(scratch, it.V)
		scratch = wire.AppendUvarint(scratch, it.Gen)
		scratch = wire.AppendUvarint(scratch, it.Ver)
		if err := emit(scratch); err != nil {
			return err
		}
	}
	for _, tb := range st.Tombs {
		scratch = append(scratch[:0], snapTagTomb)
		scratch = wire.AppendString(scratch, tb.K)
		scratch = wire.AppendString(scratch, tb.V)
		scratch = wire.AppendUvarint(scratch, tb.Gen)
		scratch = wire.AppendUvarint(scratch, tb.Born)
		scratch = wire.AppendVarint(scratch, tb.At)
		scratch = wire.AppendUvarint(scratch, tb.Ver)
		if err := emit(scratch); err != nil {
			return err
		}
	}
	for addr, b := range st.Baselines {
		scratch = append(scratch[:0], snapTagBaseline)
		scratch = wire.AppendString(scratch, addr)
		scratch = wire.AppendUvarint(scratch, b.Mine)
		scratch = wire.AppendUvarint(scratch, b.Theirs)
		if err := emit(scratch); err != nil {
			return err
		}
	}
	for k, v := range st.Meta {
		scratch = append(scratch[:0], snapTagMeta)
		scratch = wire.AppendString(scratch, k)
		scratch = wire.AppendString(scratch, v)
		if err := emit(scratch); err != nil {
			return err
		}
	}
	if st.External {
		scratch = append(scratch[:0], snapTagEngine)
		scratch = wire.AppendUvarint(scratch, uint64(st.Count))
		scratch = wire.AppendUvarint(scratch, uint64(len(st.Manifest)))
		for _, name := range st.Manifest {
			scratch = wire.AppendString(scratch, name)
		}
		if err := emit(scratch); err != nil {
			return err
		}
		for _, dc := range st.Digests {
			scratch = append(scratch[:0], snapTagDigest)
			scratch = wire.AppendString(scratch, dc.P)
			scratch = wire.AppendFixed64(scratch, dc.H)
			scratch = wire.AppendUvarint(scratch, uint64(dc.N))
			if err := emit(scratch); err != nil {
				return err
			}
		}
	}
	if len(st.MutLog) > 0 {
		scratch = append(scratch[:0], snapTagMutation)
		scratch = wire.AppendUvarint(scratch, uint64(len(st.MutLog)))
		for _, id := range st.MutLog {
			scratch = wire.AppendUvarint(scratch, id)
		}
		if err := emit(scratch); err != nil {
			return err
		}
	}
	if err := emit([]byte{snapTagEnd}); err != nil {
		return err
	}
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], cw.crc)
	if _, err := bw.Write(crcBuf[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// errSnapshotCorrupt reports an unreadable snapshot; recovery skips it in
// favour of an older one.
var errSnapshotCorrupt = errors.New("replication: snapshot corrupt")

// decodeBinarySnapshot parses a version-2 snapshot file.
func decodeBinarySnapshot(data []byte) (*snapshotState, error) {
	if len(data) < len(snapMagic)+5 || string(data[:len(snapMagic)]) != snapMagic {
		return nil, errSnapshotCorrupt
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, errSnapshotCorrupt
	}
	d := wire.NewDecoder(body[len(snapMagic):])
	if v := d.Uvarint(); d.Err() != nil || v != snapshotVersion {
		return nil, errSnapshotCorrupt
	}
	st := &snapshotState{}
	st.Clock = d.Uvarint()
	st.GCFloor = d.Uvarint()
	for {
		if d.Err() != nil {
			return nil, errSnapshotCorrupt
		}
		tag := d.Byte()
		if d.Err() != nil {
			return nil, errSnapshotCorrupt
		}
		switch tag {
		case snapTagEnd:
			if err := d.Finish(); err != nil {
				return nil, errSnapshotCorrupt
			}
			return st, nil
		case snapTagItem:
			var it snapItem
			it.K = d.String()
			it.V = d.String()
			it.Gen = d.Uvarint()
			it.Ver = d.Uvarint()
			st.Items = append(st.Items, it)
		case snapTagTomb:
			var tb snapTomb
			tb.K = d.String()
			tb.V = d.String()
			tb.Gen = d.Uvarint()
			tb.Born = d.Uvarint()
			tb.At = d.Varint()
			tb.Ver = d.Uvarint()
			st.Tombs = append(st.Tombs, tb)
		case snapTagBaseline:
			addr := d.String()
			b := Baseline{Mine: d.Uvarint(), Theirs: d.Uvarint()}
			if d.Err() == nil {
				if st.Baselines == nil {
					st.Baselines = make(map[string]Baseline)
				}
				st.Baselines[addr] = b
			}
		case snapTagMeta:
			k := d.String()
			v := d.String()
			if d.Err() == nil {
				if st.Meta == nil {
					st.Meta = make(map[string]string)
				}
				st.Meta[k] = v
			}
		case snapTagEngine:
			st.Count = int(d.Uvarint())
			n := d.Uvarint()
			if d.Err() != nil || n > uint64(wire.MaxLen) {
				return nil, errSnapshotCorrupt
			}
			for i := uint64(0); i < n; i++ {
				st.Manifest = append(st.Manifest, d.String())
			}
			st.External = true
		case snapTagDigest:
			var dc snapDigest
			dc.P = d.String()
			dc.H = d.Fixed64()
			dc.N = int(d.Uvarint())
			st.Digests = append(st.Digests, dc)
		case snapTagMutation:
			n := d.Uvarint()
			if d.Err() != nil || n > uint64(wire.MaxLen) {
				return nil, errSnapshotCorrupt
			}
			for i := uint64(0); i < n; i++ {
				st.MutLog = append(st.MutLog, d.Uvarint())
			}
		default:
			return nil, errSnapshotCorrupt
		}
	}
}

// writeSnapshot atomically persists the snapshot into dir.
func writeSnapshot(dir string, st *snapshotState) error {
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
