package replication

// Sorted segment files for the storage engine (engine.go). A segment is an
// immutable run of pair records in (key, value) order — a flushed
// memtable, the merge of every earlier segment produced by compaction, or
// a resident checkpoint's copy of every pair — plus a sparse index for
// point lookups.
//
// File layout; every record and the index block are structs the shared
// derived codec (internal/wire) encodes, so a struct's field order is the
// format:
//
//	header:   "PGSG"  uvarint version (1)
//	records:  one segRec each: bool delete marker (a flags byte, 1 = delete) |
//	          string key | string value | uvarint gen | uvarint ver
//	index:    []segIndexEntry: uvarint entry count, entries of
//	          string key | string value | uvarint record offset
//	footer:   uint64 index offset | uint32 index length |
//	          uint32 CRC-32 (IEEE) of the index block | "GSGP"   (20 bytes, LE)
//
// The index holds every segIndexEvery-th record, and its offsets cut the
// record region into blocks: block i runs from entry i's offset to entry
// i+1's, the last one to the index. A read loads one block with a single
// ReadAt and decodes its records in memory, so a Get costs the block
// holding the nearest preceding indexed record. Records are not
// CRC-protected individually: segments only become reachable through the
// manifest of a committed snapshot, which is CRC-trailed, and the index CRC
// catches a torn or truncated file at open, where the offsets are checked
// to cut the region into non-empty blocks and the index keys to strictly
// increase. A loaded block's first record must be its index entry's pair.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sort"

	"pgrid/internal/wire"
)

// segMagic and segFooterMagic frame a segment file.
const (
	segMagic       = "PGSG"
	segFooterMagic = "GSGP"
	segVersion     = 1
	segHeaderLen   = 5 // segMagic, then version 1 as one uvarint byte
	segFooterLen   = 20
)

// segIndexEvery is the sparse-index stride: one index entry per this many
// records, so one block per this many records.
const segIndexEvery = 64

// errSegmentCorrupt reports an unreadable segment file.
var errSegmentCorrupt = errors.New("replication: segment corrupt")

// segRec is one record of a segment or memtable: a pair state, or a delete
// marker shadowing the pair in older segments.
type segRec struct {
	Del bool
	PairRecord
}

// segIndexEntry locates an indexed record, the first of its block.
type segIndexEntry struct {
	Key, Value string
	Off        uint64 // file offset
}

// segRecCodec and segIndexCodec encode a record and the index block.
var (
	segRecCodec   = wire.MustCompile(segRec{})
	segIndexCodec = wire.MustCompile([]segIndexEntry(nil))
)

// segment is one open, immutable segment file.
type segment struct {
	f       *os.File
	name    string // file name inside the data directory (manifest entry)
	dataEnd int64  // offset where records end and the index begins
	index   []segIndexEntry
}

// segmentFileName renders the file name of segment seq.
func segmentFileName(seq uint64) string { return fmt.Sprintf("seg-%016d.seg", seq) }

// segWriter streams records into a new segment file in one pass, collecting
// the sparse index as it goes. Callers must add records in (key, value)
// order.
type segWriter struct {
	f       *os.File
	bw      *bufio.Writer
	off     uint64
	records int
	index   []segIndexEntry
	scratch []byte
}

// newSegWriter creates the segment file at path and writes the header.
func newSegWriter(path string) (*segWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	w := &segWriter{f: f, bw: bufio.NewWriterSize(f, 64<<10), off: segHeaderLen}
	if _, err := w.bw.Write(append([]byte(segMagic), segVersion)); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// add appends one record.
func (w *segWriter) add(rec segRec) error {
	if w.records%segIndexEvery == 0 {
		w.index = append(w.index, segIndexEntry{Key: rec.Key, Value: rec.Value, Off: w.off})
	}
	w.scratch = segRecCodec.Append(w.scratch[:0], rec)
	if _, err := w.bw.Write(w.scratch); err != nil {
		return err
	}
	w.off += uint64(len(w.scratch))
	w.records++
	return nil
}

// finish writes the index block and footer, fsyncs and closes the file.
func (w *segWriter) finish() error {
	b := segIndexCodec.Append(w.scratch[:0], w.index)
	indexLen := len(b)
	b = binary.LittleEndian.AppendUint64(b, w.off)
	b = binary.LittleEndian.AppendUint32(b, uint32(indexLen))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[:indexLen]))
	b = append(b, segFooterMagic...)
	w.scratch = b
	if _, err := w.bw.Write(b); err != nil {
		w.f.Close()
		return err
	}
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// abort closes and removes a partially written segment.
func (w *segWriter) abort() {
	path := w.f.Name()
	w.f.Close()
	os.Remove(path)
}

// openSegment opens the segment file at path and loads its sparse index.
func openSegment(path, name string) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	seg, err := readSegmentIndex(f, name)
	if err != nil {
		f.Close()
		return nil, err
	}
	return seg, nil
}

// readSegmentIndex checks the header and footer of the segment file f and
// decodes its index.
func readSegmentIndex(f *os.File, name string) (*segment, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Size() < segHeaderLen+segFooterLen {
		return nil, errSegmentCorrupt
	}
	var hdr [segHeaderLen]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, err
	}
	if string(hdr[:4]) != segMagic || hdr[4] != segVersion {
		return nil, errSegmentCorrupt
	}
	var footer [segFooterLen]byte
	if _, err := f.ReadAt(footer[:], fi.Size()-segFooterLen); err != nil {
		return nil, err
	}
	if string(footer[16:20]) != segFooterMagic {
		return nil, errSegmentCorrupt
	}
	dataEnd := int64(binary.LittleEndian.Uint64(footer[0:8]))
	indexLen := int64(binary.LittleEndian.Uint32(footer[8:12]))
	if dataEnd < segHeaderLen || dataEnd+indexLen+segFooterLen != fi.Size() {
		return nil, errSegmentCorrupt
	}
	idxBuf := make([]byte, indexLen)
	if _, err := f.ReadAt(idxBuf, dataEnd); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(idxBuf) != binary.LittleEndian.Uint32(footer[12:16]) {
		return nil, errSegmentCorrupt
	}
	seg := &segment{f: f, name: name, dataEnd: dataEnd}
	d := wire.NewDecoder(idxBuf)
	segIndexCodec.Read(d, &seg.index)
	if d.Finish() != nil {
		return nil, errSegmentCorrupt
	}
	// The offsets must cut the record region into non-empty blocks: the
	// first at the header, each before the next, the last before dataEnd.
	// An empty index means an empty region.
	end := uint64(dataEnd)
	for i := len(seg.index) - 1; i >= 0; i-- {
		if seg.index[i].Off >= end {
			return nil, errSegmentCorrupt
		}
		end = seg.index[i].Off
	}
	if end != segHeaderLen {
		return nil, errSegmentCorrupt
	}
	// The index keys must strictly increase, or a lookup's binary search
	// lands in the wrong block and misses.
	for i := 1; i < len(seg.index); i++ {
		prev, cur := &seg.index[i-1], &seg.index[i]
		if !pairLess(prev.Key, prev.Value, cur.Key, cur.Value) {
			return nil, errSegmentCorrupt
		}
	}
	return seg, nil
}

func (g *segment) close() error { return g.f.Close() }

// get returns the record stored for the pair.
func (g *segment) get(key, value string) (segRec, bool, error) {
	it, err := g.iter(key, value)
	if err != nil {
		return segRec{}, false, err
	}
	rec, ok, err := it.peek()
	if err != nil || !ok || rec.Key != key || rec.Value != value {
		return segRec{}, false, err
	}
	return rec, true, nil
}

// iter returns an iterator positioned at the first record not before the
// (key, value) target ("", "" for the whole segment).
func (g *segment) iter(key, value string) (*segmentIter, error) {
	// The target's block opens with the last index entry not after it.
	i := sort.Search(len(g.index), func(i int) bool {
		return pairLess(key, value, g.index[i].Key, g.index[i].Value)
	})
	it := &segmentIter{g: g, blk: max(i-1, 0)}
	// Skip the block's records before the target.
	for {
		rec, ok, err := it.peek()
		if err != nil {
			return nil, err
		}
		if !ok || !pairLess(rec.Key, rec.Value, key, value) {
			return it, nil
		}
		it.advance()
	}
}

// segmentIter yields a segment's records in order with one record of
// lookahead (the shape the k-way merge in engine.go consumes). It holds
// one block in memory, decoding from it until it is empty and then loading
// the next into the same buffer (decoded strings are copies).
type segmentIter struct {
	g      *segment
	blk    int          // the block to load when d is empty
	buf    []byte       // the current block
	d      wire.Decoder // the current block's undecoded records
	cur    segRec
	loaded bool
	err    error
}

// peek returns the current record without consuming it.
func (it *segmentIter) peek() (segRec, bool, error) {
	if it.err != nil {
		return segRec{}, false, it.err
	}
	if it.loaded {
		return it.cur, true, nil
	}
	var first *segIndexEntry // set when this record opens a block
	if it.d.Len() == 0 {
		if it.blk == len(it.g.index) {
			return segRec{}, false, nil
		}
		block, err := it.g.block(it.blk, it.buf)
		if err != nil {
			it.err = fmt.Errorf("%w: %v", errSegmentCorrupt, err)
			return segRec{}, false, it.err
		}
		it.buf = block
		it.d = *wire.NewDecoder(block)
		it.blk++
		first = &it.g.index[it.blk-1]
	}
	segRecCodec.Read(&it.d, &it.cur)
	if err := it.d.Err(); err != nil {
		it.err = fmt.Errorf("%w: %v", errSegmentCorrupt, err)
		return segRec{}, false, it.err
	}
	// A block opens with the record its index entry names.
	if first != nil && (it.cur.Key != first.Key || it.cur.Value != first.Value) {
		it.err = fmt.Errorf("%w: block %d does not open with its index entry", errSegmentCorrupt, it.blk-1)
		return segRec{}, false, it.err
	}
	it.loaded = true
	return it.cur, true, nil
}

// advance consumes the current record.
func (it *segmentIter) advance() { it.loaded = false }

// block reads block i of the record region into buf, or into a new
// buffer if buf is too small.
func (g *segment) block(i int, buf []byte) ([]byte, error) {
	end := uint64(g.dataEnd)
	if i+1 < len(g.index) {
		end = g.index[i+1].Off
	}
	n := end - g.index[i].Off
	if uint64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := g.f.ReadAt(buf, int64(g.index[i].Off)); err != nil {
		return nil, err
	}
	return buf, nil
}
