package replication

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pgrid/internal/keyspace"
	"pgrid/internal/wire"
)

// writeWALPayloads writes the payloads, each in a valid frame, as the
// store's first WAL segment.
func writeWALPayloads(t *testing.T, dir string, payloads ...[]byte) {
	t.Helper()
	var data []byte
	for _, p := range payloads {
		data = binary.LittleEndian.AppendUint32(data, uint32(len(p)))
		data = binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE(p))
		data = append(data, p...)
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(0)), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// sealSnapshot wraps a snapshot body in the magic and the CRC trailer.
func sealSnapshot(body []byte) []byte {
	data := append([]byte(snapMagic), body...)
	return binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE(data))
}

// snapBody starts a snapshot body: the version-2 header with clock 9.
func snapBody() []byte {
	return wire.AppendUvarint(wire.AppendUvarint(wire.AppendUvarint(nil, snapshotVersion), 9), 0)
}

// appendPair appends a (key bit string, value, gen) triple.
func appendPair(b []byte, ks, value string, gen uint64) []byte {
	return wire.AppendUvarint(wire.AppendString(wire.AppendString(b, ks), value), gen)
}

// TestWALMalformedRecordRefused checks that a CRC-valid WAL record that is
// not exactly one well-formed record of its op fails recovery as
// corruption, instead of panicking or planting a key that a later read
// panics on.
func TestWALMalformedRecordRefused(t *testing.T) {
	for name, payload := range map[string][]byte{
		"opReplace element key 012": wire.AppendUvarint(appendPair(wire.AppendUvarint(
			wire.AppendString([]byte{byte(opReplace)}, ""), 1), "012", "v", 0), 0),
		"opAdd key 01x":         appendPair([]byte{byte(opAdd)}, "01x", "v", 1),
		"opTomb key of 65 bits": appendPair([]byte{byte(opTomb)}, strings.Repeat("0", 65), "v", 1),
		"trailing byte":         append(wire.AppendUvarint([]byte{byte(opMutSeen)}, 5), 0),
		"unknown op":            {42},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			writeWALPayloads(t, dir, appendPair([]byte{byte(opAdd)}, "01", "ok", 1), payload)
			s, err := OpenStore(dir, PersistOptions{Engine: EngineMem})
			if err == nil {
				items := s.Items()
				s.Close()
				t.Fatalf("recovered %v from a malformed record", items)
			}
			if !errors.Is(err, errWALCorrupt) {
				t.Errorf("err = %v, want errWALCorrupt", err)
			}
		})
	}
}

// Hand-encoded snapshot records, each opening with its tag.
func snapItemRec(ks string) []byte {
	return wire.AppendUvarint(appendPair([]byte{snapTagItem}, ks, "v", 0), 0)
}

func snapTombRec(ks string) []byte {
	b := wire.AppendUvarint(appendPair([]byte{snapTagTomb}, ks, "v", 0), 0) // Born
	return wire.AppendUvarint(wire.AppendVarint(b, -1), 0)                  // At, Ver
}

func snapEngineRec(count uint64, manifest ...string) []byte {
	b := wire.AppendUvarint(wire.AppendUvarint([]byte{snapTagEngine}, count), uint64(len(manifest)))
	for _, name := range manifest {
		b = wire.AppendString(b, name)
	}
	return b
}

func snapDigestRec(n uint64) []byte {
	return wire.AppendUvarint(wire.AppendFixed64(wire.AppendString([]byte{snapTagDigest}, "0"), 1), n)
}

// snapBodyOf is a snapshot body holding the records.
func snapBodyOf(recs ...[]byte) []byte {
	return append(bytes.Join(append([][]byte{snapBody()}, recs...), nil), snapTagEnd)
}

// TestSnapshotMalformedRecordSkipped checks that a CRC-valid snapshot
// holding a record its writer never produces — an item or tombstone key
// that is not a bit string, a digest cell without the engine record — is
// skipped as corrupt, so recovery falls back to the older snapshot.
func TestSnapshotMalformedRecordSkipped(t *testing.T) {
	for name, body := range map[string][]byte{
		"item key 01x":          snapBodyOf(snapItemRec("01x")),
		"tombstone of 65 bits":  snapBodyOf(snapTombRec(strings.Repeat("1", 65))),
		"digest without engine": snapBodyOf(snapDigestRec(1)),
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := decodeBinarySnapshot(sealSnapshot(body)); !errors.Is(err, errSnapshotCorrupt) {
				t.Errorf("decode: err = %v, want errSnapshotCorrupt", err)
			}
			dir := t.TempDir()
			writeTestSnapshot(t, dir, 1, "old")
			if err := os.WriteFile(filepath.Join(dir, snapshotName(2)), sealSnapshot(body), 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := OpenStore(dir, PersistOptions{Engine: EngineMem})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if got := s.Items(); len(got) != 1 || got[0].Value != "old" {
				t.Errorf("recovered %v, want the older snapshot's state", got)
			}
		})
	}
}

// TestSnapshotCountOverflowRefused checks that an engine record count or a
// digest cell count past the int range is corruption, not a negative
// store length or cell count.
func TestSnapshotCountOverflowRefused(t *testing.T) {
	for name, body := range map[string][]byte{
		"engine count 2^64-5": snapBodyOf(snapEngineRec(1<<64 - 5)),
		"digest count 2^63":   snapBodyOf(snapEngineRec(5), snapDigestRec(1<<63)),
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := decodeBinarySnapshot(sealSnapshot(body)); !errors.Is(err, errSnapshotCorrupt) {
				t.Errorf("decode: err = %v, want errSnapshotCorrupt", err)
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, snapshotName(1)), sealSnapshot(body), 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := OpenStore(dir, PersistOptions{Engine: EngineDisk})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if n := s.Len(); n != 0 {
				t.Errorf("Len() = %d over a corrupt snapshot, want 0", n)
			}
		})
	}
}

// TestSnapshotManifestNameRefused checks that a snapshot whose manifest
// names a file other than one the engine names a segment — one outside
// the data directory, or in a directory below it — is skipped as corrupt,
// instead of the store adopting that file's pairs (and later removing it
// when a compaction replaces it).
func TestSnapshotManifestNameRefused(t *testing.T) {
	segFile := goldenSegmentFile(t)
	key := keyspace.MustFromString(goldenSegRecs()[0].Key)
	for _, name := range []string{"../outside.seg", "sub/" + segmentFileName(1), "seg-1.seg"} {
		t.Run(name, func(t *testing.T) {
			body := snapBodyOf(snapEngineRec(10, name))
			if _, err := decodeBinarySnapshot(sealSnapshot(body)); !errors.Is(err, errSnapshotCorrupt) {
				t.Errorf("decode: err = %v, want errSnapshotCorrupt", err)
			}
			dir := filepath.Join(t.TempDir(), "data")
			if err := os.MkdirAll(filepath.Join(dir, "sub"), 0o755); err != nil {
				t.Fatal(err)
			}
			named := filepath.Join(dir, name)
			if err := os.WriteFile(named, segFile, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, snapshotName(1)), sealSnapshot(body), 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := OpenStore(dir, PersistOptions{Engine: EngineDisk})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if n, got := s.Len(), s.Lookup(key); n != 0 || len(got) != 0 {
				t.Errorf("Len() = %d and Lookup = %v over a snapshot naming %s, want an empty store", n, got, name)
			}
		})
	}
}

// goldenDiskRecords returns the WAL payloads and snapshot bodies pinned by
// testdata/disk_records.golden, the fuzz targets' seeds.
func goldenDiskRecords(f *testing.F) (payloads, bodies [][]byte) {
	raw, err := os.ReadFile(filepath.Join("testdata", diskRecordsGolden))
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 3 || (fields[0] != "wal" && fields[0] != "snapshot") {
			continue
		}
		data, err := hex.DecodeString(fields[2])
		if err != nil {
			f.Fatal(err)
		}
		if fields[0] == "wal" {
			payloads = append(payloads, data[walFrameHeader:])
		} else {
			bodies = append(bodies, data[len(snapMagic):len(data)-4])
		}
	}
	if len(payloads) == 0 || len(bodies) == 0 {
		f.Fatal("no seeds in the golden")
	}
	return payloads, bodies
}

// FuzzWALRecord applies arbitrary payloads to a fresh store. Replay must
// never panic; an accepted payload must be the exact encoding of the record
// it decodes to, and must leave a store whose reads work.
func FuzzWALRecord(f *testing.F) {
	payloads, _ := goldenDiskRecords(f)
	for _, p := range payloads {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		s, err := NewStoreKind(EngineMem)
		if err != nil {
			t.Fatal(err)
		}
		if s.applyWAL(payload) != nil {
			return
		}
		rec, err := walRecords[payload[0]].Decode(payload[1:])
		if err != nil {
			t.Fatalf("applied payload %x does not decode: %v", payload, err)
		}
		if again := walRecords.Append(nil, payload[0], rec); !bytes.Equal(again, payload) {
			t.Fatalf("payload %x re-encodes as %x", payload, again)
		}
		s.Items()
		s.Tombstones()
	})
}

// FuzzSnapshotDecode decodes arbitrary snapshot bodies (sealed with the
// magic and a valid CRC, so mutations reach the record parser). Decoding
// must never panic; an accepted state must survive a re-encoding, and
// loading it must leave a store with a sane length and working reads.
func FuzzSnapshotDecode(f *testing.F) {
	_, bodies := goldenDiskRecords(f)
	for _, b := range bodies {
		f.Add(b)
	}
	// The pinned external snapshot names .sst segments, which decoding
	// refuses: seed one naming a segment the engine could have written.
	external := goldenSnapshots()["external"]
	external.Manifest = []string{segmentFileName(1)}
	var buf bytes.Buffer
	if err := encodeSnapshotTo(&buf, external); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes()[len(snapMagic) : buf.Len()-4])
	f.Fuzz(func(t *testing.T, body []byte) {
		st, err := decodeBinarySnapshot(sealSnapshot(body))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := encodeSnapshotTo(&buf, st); err != nil {
			t.Fatal(err)
		}
		back, err := decodeBinarySnapshot(buf.Bytes())
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if !reflect.DeepEqual(back, st) {
			t.Fatalf("re-encoded snapshot decodes to\n%+v\nwant\n%+v", back, st)
		}
		eng := newEngine(true)
		if st.External {
			// The manifest's files do not exist here: open no segment and
			// check that the count is refused or bounded by them.
			if eng, err = openEngine(t.TempDir(), nil, st.Count, false); err != nil {
				return
			}
		}
		s := newStoreWithEngine(eng)
		defer s.Close()
		s.loadSnapshot(st)
		if n := s.Len(); n < 0 {
			t.Fatalf("loaded store has Len() = %d", n)
		}
		s.Items()
		s.Tombstones()
		s.Digest(keyspace.Root)
	})
}
