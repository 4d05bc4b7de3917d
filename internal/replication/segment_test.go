package replication

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// segmentGolden pins the bytes of a segment file and the records read back
// from it. Change it (regenerate with PGRID_REGEN_GOLDEN=1) only for an
// intended format change: the files it pins must stay readable.
const segmentGolden = "segment.golden"

// goldenSegRecs returns the records of the pinned segment in (key, value)
// order: 167 records, so three index blocks, with delete markers,
// generations and versions past 2³², an empty value, and keys that are
// strict prefixes of the next record's key ("1", "10", "100", …).
func goldenSegRecs() []segRec {
	var recs []segRec
	for i := 0; i < 150; i++ {
		rec := segRec{PairRecord: PairRecord{Key: strconv.FormatInt(int64(i), 2), Value: fmt.Sprintf("v%d", i), Gen: uint64(i), Ver: uint64(i) + 1000}}
		if i == 42 {
			rec.Value = ""
		}
		if i%5 == 0 {
			rec.Gen += 1 << 32
		}
		if i%4 == 1 {
			rec.Ver += 1 << 40
		}
		rec.Del = i%6 == 5
		recs = append(recs, rec)
		if i%9 == 0 {
			recs = append(recs, segRec{PairRecord: PairRecord{Key: rec.Key, Value: "w", Gen: 7, Ver: 1<<33 + uint64(i)}})
		}
	}
	sort.Slice(recs, func(i, j int) bool {
		return pairLess(recs[i].Key, recs[i].Value, recs[j].Key, recs[j].Value)
	})
	return recs
}

// writeTestSegment writes recs, in order, as segment 1 in dir and opens it.
func writeTestSegment(t testing.TB, dir string, recs []segRec) *segment {
	t.Helper()
	name := segmentFileName(1)
	w, err := newSegWriter(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.add(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.finish(); err != nil {
		t.Fatal(err)
	}
	g, err := openSegment(filepath.Join(dir, name), name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.close() })
	return g
}

// segRecords returns every record iter("", "") yields.
func segRecords(g *segment) ([]segRec, error) {
	it, err := g.iter("", "")
	if err != nil {
		return nil, err
	}
	var out []segRec
	for {
		rec, ok, err := it.peek()
		if err != nil || !ok {
			return out, err
		}
		out = append(out, rec)
		it.advance()
	}
}

// TestSegmentGolden pins the bytes of a segment written from goldenSegRecs,
// 64 per line, and the records iterating it yields, against
// testdata/segment.golden. Every record must also be found by get.
func TestSegmentGolden(t *testing.T) {
	recs := goldenSegRecs()
	g := writeTestSegment(t, t.TempDir(), recs)
	data, err := os.ReadFile(g.f.Name())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for off := 0; off < len(data); off += 64 {
		got = append(got, fmt.Sprintf("file %x", data[off:min(off+64, len(data))]))
	}
	back, err := segRecords(g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, recs) {
		t.Errorf("iterating the segment yields %d records, differing from the %d written", len(back), len(recs))
	}
	for _, rec := range back {
		got = append(got, fmt.Sprintf("rec del=%v key=%q value=%q gen=%d ver=%d", rec.Del, rec.Key, rec.Value, rec.Gen, rec.Ver))
	}
	for _, rec := range recs {
		if found, ok, err := g.get(rec.Key, rec.Value); err != nil || !ok || found != rec {
			t.Errorf("get(%q, %q) = %v, %v, %v; want %v", rec.Key, rec.Value, found, ok, err, rec)
		}
	}
	if found, ok, err := g.get("0", "absent"); err != nil || ok {
		t.Errorf("get of an absent pair = %v, %v, %v", found, ok, err)
	}
	checkGolden(t, segmentGolden, got)
}

// goldenSegmentFile returns the segment file pinned by
// testdata/segment.golden.
func goldenSegmentFile(t testing.TB) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", segmentGolden))
	if err != nil {
		t.Fatal(err)
	}
	var data []byte
	for _, line := range strings.Split(string(raw), "\n") {
		if hexPart, ok := strings.CutPrefix(line, "file "); ok {
			b, err := hex.DecodeString(hexPart)
			if err != nil {
				t.Fatal(err)
			}
			data = append(data, b...)
		}
	}
	return data
}

// splitSegment splits a well-formed segment file into its header plus
// record region and its index block.
func splitSegment(file []byte) (data, index []byte) {
	footer := file[len(file)-segFooterLen:]
	dataEnd := binary.LittleEndian.Uint64(footer)
	return file[:dataEnd], file[dataEnd : len(file)-segFooterLen]
}

// sealSegment joins a header plus record region and an index block into a
// segment file, with the footer and its CRC that finish would write.
func sealSegment(data, index []byte) []byte {
	file := append(append([]byte(nil), data...), index...)
	file = binary.LittleEndian.AppendUint64(file, uint64(len(data)))
	file = binary.LittleEndian.AppendUint32(file, uint32(len(index)))
	file = binary.LittleEndian.AppendUint32(file, crc32.ChecksumIEEE(index))
	return append(file, segFooterMagic...)
}

// openSegmentBytes writes file into dir as segment 1 and opens it.
func openSegmentBytes(t testing.TB, dir string, file []byte) (*segment, error) {
	t.Helper()
	name := segmentFileName(1)
	if err := os.WriteFile(filepath.Join(dir, name), file, 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := openSegment(filepath.Join(dir, name), name)
	if err == nil {
		t.Cleanup(func() { g.close() })
	}
	return g, err
}

// TestSegmentIndexOffsetsChecked checks that a CRC-valid index whose
// offsets do not cut the record region into non-empty blocks, in order,
// starting at the header, fails to open as corruption rather than making
// lookups in the misplaced blocks miss.
func TestSegmentIndexOffsetsChecked(t *testing.T) {
	data, indexBlock := splitSegment(goldenSegmentFile(t))
	decoded, err := segIndexCodec.Decode(indexBlock)
	if err != nil {
		t.Fatal(err)
	}
	golden := decoded.([]segIndexEntry)
	if len(golden) != 3 {
		t.Fatalf("the golden segment has %d index entries, want 3", len(golden))
	}
	dataEnd := uint64(len(data))
	for name, edit := range map[string]func(index []segIndexEntry) []segIndexEntry{
		"second offset past dataEnd": func(x []segIndexEntry) []segIndexEntry { x[1].Off = dataEnd + 100; return x },
		"last offset at dataEnd":     func(x []segIndexEntry) []segIndexEntry { x[2].Off = dataEnd; return x },
		"first offset after header":  func(x []segIndexEntry) []segIndexEntry { x[0].Off++; return x },
		"offsets out of order":       func(x []segIndexEntry) []segIndexEntry { x[1].Off, x[2].Off = x[2].Off, x[1].Off; return x },
		"repeated offset":            func(x []segIndexEntry) []segIndexEntry { x[2].Off = x[1].Off; return x },
		"empty index over records":   func([]segIndexEntry) []segIndexEntry { return nil },
	} {
		t.Run(name, func(t *testing.T) {
			index := edit(append([]segIndexEntry(nil), golden...))
			file := sealSegment(data, segIndexCodec.Append(nil, index))
			if _, err := openSegmentBytes(t, t.TempDir(), file); !errors.Is(err, errSegmentCorrupt) {
				t.Errorf("open: err = %v, want errSegmentCorrupt", err)
			}
		})
	}
	if _, err := openSegmentBytes(t, t.TempDir(), sealSegment(data, segIndexCodec.Append(nil, golden))); err != nil {
		t.Errorf("the resealed golden segment does not open: %v", err)
	}
	empty := sealSegment(data[:segHeaderLen], segIndexCodec.Append(nil, []segIndexEntry(nil)))
	if g, err := openSegmentBytes(t, t.TempDir(), empty); err != nil {
		t.Errorf("an empty segment does not open: %v", err)
	} else if recs, err := segRecords(g); err != nil || len(recs) != 0 {
		t.Errorf("an empty segment yields %v, %v", recs, err)
	}
}

// TestSegmentIndexKeysChecked checks that a CRC-valid index whose keys
// disagree with the records fails as corruption, at the open or at the
// read of the block concerned, and never makes a lookup miss silently:
// index keys out of order or repeated fail the open, and an entry that
// does not name its block's first record fails the read of that block.
func TestSegmentIndexKeysChecked(t *testing.T) {
	recs := goldenSegRecs()
	data, indexBlock := splitSegment(goldenSegmentFile(t))
	decoded, err := segIndexCodec.Decode(indexBlock)
	if err != nil {
		t.Fatal(err)
	}
	golden := decoded.([]segIndexEntry)
	if len(golden) != 3 || len(recs) <= 2*segIndexEvery {
		t.Fatalf("the golden segment has %d index entries over %d records, want 3 over more than %d", len(golden), len(recs), 2*segIndexEvery)
	}
	for name, edit := range map[string]func(index []segIndexEntry){
		"keys out of order": func(x []segIndexEntry) {
			x[1].Key, x[1].Value, x[2].Key, x[2].Value = x[2].Key, x[2].Value, x[1].Key, x[1].Value
		},
		"repeated key": func(x []segIndexEntry) { x[2].Key, x[2].Value = x[1].Key, x[1].Value },
		"entry names its block's second record": func(x []segIndexEntry) {
			x[1].Key, x[1].Value = recs[segIndexEvery+1].Key, recs[segIndexEvery+1].Value
		},
		"entry names a pair absent from its block": func(x []segIndexEntry) { x[2].Value += "\x00" },
	} {
		t.Run(name, func(t *testing.T) {
			index := append([]segIndexEntry(nil), golden...)
			edit(index)
			g, err := openSegmentBytes(t, t.TempDir(), sealSegment(data, segIndexCodec.Append(nil, index)))
			if err != nil {
				if !errors.Is(err, errSegmentCorrupt) {
					t.Errorf("open: err = %v, want errSegmentCorrupt", err)
				}
				return
			}
			reported := false
			for _, rec := range recs {
				found, ok, err := g.get(rec.Key, rec.Value)
				switch {
				case err != nil && !errors.Is(err, errSegmentCorrupt):
					t.Fatalf("get(%q, %q): err = %v, want errSegmentCorrupt", rec.Key, rec.Value, err)
				case err != nil:
					reported = true
				case !ok:
					t.Fatalf("get(%q, %q) missed silently", rec.Key, rec.Value)
				case found != rec:
					t.Fatalf("get(%q, %q) = %v, want %v", rec.Key, rec.Value, found, rec)
				}
			}
			if _, err := segRecords(g); !errors.Is(err, errSegmentCorrupt) {
				t.Errorf("iterating: err = %v, want errSegmentCorrupt", err)
			}
			if !reported {
				t.Error("no lookup reported the corrupt block")
			}
		})
	}
}

// FuzzSegmentDecode opens arbitrary segment files: a header plus record
// region and an index block, sealed with the footer and a valid CRC so
// mutations reach the index and record decoders. Opening, iterating and
// looking up must never panic, and iteration must end. The records of a
// file that iterates cleanly, written through segWriter, must iterate back
// the same.
func FuzzSegmentDecode(f *testing.F) {
	data, index := splitSegment(goldenSegmentFile(f))
	f.Add(data, index)
	in, out := f.TempDir(), f.TempDir() // one pair of directories for every input
	f.Fuzz(func(t *testing.T, data, index []byte) {
		g, err := openSegmentBytes(t, in, sealSegment(data, index))
		if err != nil {
			return
		}
		recs, err := segRecords(g)
		for _, rec := range recs {
			g.get(rec.Key, rec.Value)
		}
		if err != nil {
			return
		}
		back, err := segRecords(writeTestSegment(t, out, recs))
		if err != nil {
			t.Fatalf("rewritten segment does not iterate: %v", err)
		}
		if !reflect.DeepEqual(back, recs) {
			t.Fatalf("rewritten segment iterates as\n%+v\nwant\n%+v", back, recs)
		}
	})
}
