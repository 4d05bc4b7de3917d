package replication

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"pgrid/internal/keyspace"
)

// diskRecordsGolden pins the bytes of every WAL operation and every
// snapshot record tag. Change it (regenerate with PGRID_REGEN_GOLDEN=1)
// only for an intended format change: the files it pins must stay readable.
const diskRecordsGolden = "disk_records.golden"

// walSession drives a persistent mem store through every WAL operation,
// with generations past one varint byte, clocks past 32 bits, a deleted
// baseline and a 2⁴⁰ mutation ID, and returns the directory it wrote.
func walSession(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	s, err := OpenStore(dir, PersistOptions{Engine: EngineMem})
	if err != nil {
		t.Fatal(err)
	}
	s.SetTimeSource(func() time.Time { return time.Unix(1_700_000_000, 0) })
	k := keyspace.MustFromString
	s.Add(Item{Key: k("0110"), Value: "a", Gen: 200})    // opAdd
	s.Insert(Item{Key: k("0111"), Value: "b"})           // opAdd
	s.Insert(Item{Key: k("1100"), Value: "c", Gen: 130}) // opAdd
	s.Delete(k("0110"), "a")                             // opTomb
	s.SetGCPolicy(GCPolicy{MinVersions: 2})
	s.Insert(Item{Key: k("10"), Value: "d", Gen: 140})                    // opAdd
	s.Insert(Item{Key: k("10"), Value: "d2", Gen: 141})                   // opAdd
	s.CompactTombstones()                                                 // opPrune of "0110"/a
	s.AddTombstones([]Item{{Key: k("1"), Value: "t", Gen: 129}})          // opTomb
	s.RemovePrefix("11")                                                  // opRemovePrefix
	s.RetainPrefix("01")                                                  // opRetainPrefix
	s.ReplaceWithin("01", []Item{{Key: k("0101"), Value: "e", Gen: 300}}, // opReplace
		[]Item{{Key: k("0100"), Value: "f", Gen: 301}})
	s.RecordBaseline("peer-a", Baseline{Mine: 1<<32 + 5, Theirs: 1<<33 + 7}) // opBaseline
	s.RecordBaseline("peer-b", Baseline{Mine: 3, Theirs: 4})                 // opBaseline
	s.RecordBaseline("peer-b", Baseline{})                                   // opBaseline (delete)
	s.SetMeta("path", "01")                                                  // opMeta
	s.MarkMutation(1 << 40)                                                  // opMutSeen
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// walFrames returns one line per record frame of the WAL segments in dir:
// the payload's op tag and the frame in hex.
func walFrames(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for len(data) >= walFrameHeader {
			end := walFrameHeader + int(binary.LittleEndian.Uint32(data))
			if end > len(data) || end == walFrameHeader {
				t.Fatalf("%s: malformed frame", name)
			}
			out = append(out, fmt.Sprintf("wal op=%d %x", data[walFrameHeader], data[:end]))
			data = data[end:]
		}
		if len(data) != 0 {
			t.Fatalf("%s: %d trailing bytes", name, len(data))
		}
	}
	return out
}

// goldenSnapshots returns a hand-built inline and external snapshot state:
// every record tag, a negative wall clock, a fixed64 hash with all eight
// bytes non-zero, and one entry per map (map order would make a file with
// more nondeterministic).
func goldenSnapshots() map[string]*snapshotState {
	tombs := []snapTomb{{K: "1", V: "t", Gen: 129, Born: 1<<32 + 2, At: -1_700_000_000_123_456_789, Ver: 1<<32 + 3}}
	base := func() *snapshotState {
		return &snapshotState{
			Clock:     1<<32 + 9,
			GCFloor:   300,
			Tombs:     tombs,
			Baselines: map[string]Baseline{"peer-a": {Mine: 1<<32 + 5, Theirs: 7}},
			Meta:      map[string]string{"path": "0110"},
			MutLog:    []uint64{1 << 40, 3},
		}
	}
	inline := base()
	inline.Items = []snapItem{{K: "0110", V: "a", Gen: 200, Ver: 1<<32 + 1}, {K: "", V: "root", Ver: 2}}
	external := base()
	external.External = true
	external.Count = 70000
	external.Manifest = []string{"seg-0000000000000001.sst", "seg-0000000000000002.sst"}
	external.Digests = []snapDigest{{P: "01", H: 0x8877665544332211, N: 300}, {P: "", H: 0x0102030405060708, N: 1}}
	return map[string]*snapshotState{"inline": inline, "external": external}
}

// diskRecordLines renders everything the golden pins.
func diskRecordLines(t *testing.T) []string {
	dir := walSession(t)
	lines := walFrames(t, dir)
	s, err := OpenStore(dir, PersistOptions{Engine: EngineMem})
	if err != nil {
		t.Fatal(err)
	}
	lines = append(lines, storeState("replayed", s)...)
	lines = append(lines, fmt.Sprintf("replayed baselines %v meta %q dedup %v", s.Baselines(), s.Meta("path"), !s.MarkMutation(1<<40)))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snaps := goldenSnapshots()
	for _, name := range []string{"inline", "external"} {
		st := snaps[name]
		var buf bytes.Buffer
		if err := encodeSnapshotTo(&buf, st); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("snapshot %s %s", name, hex.EncodeToString(buf.Bytes())))
		if st.External {
			// The pinned manifest names .sst files, which the engine never
			// writes, so decoding refuses it; the round trip runs over the
			// engine's own names.
			if _, err := decodeBinarySnapshot(buf.Bytes()); !errors.Is(err, errSnapshotCorrupt) {
				t.Errorf("%s snapshot naming .sst segments: err = %v, want errSnapshotCorrupt", name, err)
			}
			st.Manifest = []string{segmentFileName(1), segmentFileName(2)}
			buf.Reset()
			if err := encodeSnapshotTo(&buf, st); err != nil {
				t.Fatal(err)
			}
		}
		back, err := decodeBinarySnapshot(buf.Bytes())
		if err != nil {
			t.Fatalf("%s snapshot: %v", name, err)
		}
		if !reflect.DeepEqual(back, st) {
			t.Errorf("%s snapshot round trip:\n got  %+v\n want %+v", name, back, st)
		}
	}
	return lines
}

// TestPruneRecordDeterministic checks that a tombstone compaction does not
// depend on map order: two stores built by the same operations return the
// same pruned pairs, in pair order, and log byte-identical prune records.
func TestPruneRecordDeterministic(t *testing.T) {
	const pairs = 64
	compact := func() ([]Item, []string) {
		dir := t.TempDir()
		s, err := OpenStore(dir, PersistOptions{Engine: EngineMem})
		if err != nil {
			t.Fatal(err)
		}
		s.SetTimeSource(func() time.Time { return time.Unix(1_700_000_000, 0) })
		for i := 0; i < pairs; i++ {
			key := keyspace.MustFromFloat(float64(i)/pairs, 12)
			s.Insert(Item{Key: key, Value: fmt.Sprintf("v%d", i%3)})
			s.Delete(key, fmt.Sprintf("v%d", i%3))
		}
		s.SetGCPolicy(GCPolicy{MinVersions: 1})
		s.Insert(Item{Key: keyspace.MustFromString("1"), Value: "tick"})
		pruned := s.CompactTombstonesCollect()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		var records []string
		for _, f := range walFrames(t, dir) {
			if strings.HasPrefix(f, fmt.Sprintf("wal op=%d ", opPrune)) {
				records = append(records, f)
			}
		}
		return pruned, records
	}
	pruned, records := compact()
	if len(pruned) != pairs || len(records) != 1 {
		t.Fatalf("pruned %d tombstones in %d records, want %d in 1", len(pruned), len(records), pairs)
	}
	for i := 1; i < len(pruned); i++ {
		a, b := pruned[i-1], pruned[i]
		if pairCompare(a.Key.String(), a.Value, b.Key.String(), b.Value) >= 0 {
			t.Fatalf("pruned pairs out of order at %d: %v before %v", i, a, b)
		}
	}
	for run := 0; run < 3; run++ {
		again, againRecords := compact()
		if !reflect.DeepEqual(again, pruned) {
			t.Fatalf("two identical stores pruned\n%v\nand\n%v", pruned, again)
		}
		if !reflect.DeepEqual(againRecords, records) {
			t.Fatalf("two identical stores logged different prune records:\n%v\n%v", records, againRecords)
		}
	}
}

// TestDiskRecordsGolden pins the on-disk bytes of every WAL operation and
// snapshot record, and what replaying the WAL restores, against
// testdata/disk_records.golden.
func TestDiskRecordsGolden(t *testing.T) {
	got := diskRecordLines(t)
	ops := map[byte]bool{}
	for _, line := range got {
		var op byte
		if _, err := fmt.Sscanf(line, "wal op=%d", &op); err == nil {
			ops[op] = true
		}
	}
	for op := opAdd; op <= opMutSeen; op++ {
		if !ops[byte(op)] {
			t.Errorf("the WAL session never logs op %d", op)
		}
	}
	checkGolden(t, diskRecordsGolden, got)
}

// checkGolden compares got with the lines of testdata/name outside its
// '#' comments. Under PGRID_REGEN_GOLDEN=1 it first rewrites the file,
// with a header naming the calling test.
func checkGolden(t *testing.T, name string, got []string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("PGRID_REGEN_GOLDEN") != "" {
		header := "# Regenerate with PGRID_REGEN_GOLDEN=1 go test ./internal/replication -run " + t.Name() + "\n"
		if err := os.WriteFile(path, []byte(header+strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with PGRID_REGEN_GOLDEN=1): %v", err)
	}
	var want []string
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d lines, golden has %d", len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("first difference at line %d:\n got %s\nwant %s", i+1, got[i], want[i])
			break
		}
	}
}
