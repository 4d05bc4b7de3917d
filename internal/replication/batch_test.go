package replication

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pgrid/internal/keyspace"
)

// walWrites returns the write calls the store's open WAL segment made.
func walWrites(s *Store) int {
	s.persist.mu.Lock()
	defer s.persist.mu.Unlock()
	s.persist.w.mu.Lock()
	defer s.persist.w.mu.Unlock()
	return s.persist.w.writes
}

// openSegmentPath returns the path of the store directory's newest WAL
// segment.
func openSegmentPath(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("list segments: %v %v", segs, err)
	}
	return filepath.Join(dir, segmentName(segs[len(segs)-1]))
}

// TestAddAllWritesWALOnce pins the bulk apply's durability: a batch is one
// write of one frame per pair, and a crash that cuts the batch anywhere
// recovers exactly the pairs of its complete frames, in batch order.
func TestAddAllWritesWALOnce(t *testing.T) {
	const n = 1000
	dir := t.TempDir()
	opts := PersistOptions{SyncInterval: time.Hour}
	s, err := OpenStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Key: keyspace.MustFromFloat(float64(i)/n, 16), Value: fmt.Sprintf("v%d", i)}
	}
	seg := openSegmentPath(t, dir)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	start := fi.Size()
	writes, records := walWrites(s), s.WALRecords()
	if added := s.AddAll(items); added != n {
		t.Fatalf("AddAll added %d, want %d", added, n)
	}
	if got := walWrites(s) - writes; got != 1 {
		t.Errorf("AddAll of %d items made %d WAL writes, want 1", n, got)
	}
	if got := s.WALRecords() - records; got != n {
		t.Errorf("AddAll of %d items logged %d records, want %d", n, got, n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	// Frame ends inside the batch: ends[k] is where the batch's first k
	// frames end.
	ends := []int64{start}
	for off := start; off < int64(len(data)); {
		off += walFrameHeader + int64(binary.LittleEndian.Uint32(data[off:]))
		ends = append(ends, off)
	}
	if len(ends) != n+1 || ends[n] != int64(len(data)) {
		t.Fatalf("batch holds %d frames ending at %d of %d bytes, want %d frames", len(ends)-1, ends[len(ends)-1], len(data), n)
	}
	cutDir := filepath.Join(t.TempDir(), "cut")
	recovered := func(cut int64) []Item {
		t.Helper()
		if err := os.RemoveAll(cutDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(cutDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cutDir, filepath.Base(seg)), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenStore(cutDir, opts)
		if err != nil {
			t.Fatalf("reopen cut at %d: %v", cut, err)
		}
		defer r.Close()
		return r.Items()
	}
	check := func(cut int64, k int) {
		t.Helper()
		got := recovered(cut)
		if len(got) != k {
			t.Fatalf("cut at byte %d: recovered %d items, want the %d of the complete frames", cut, len(got), k)
		}
		for i, it := range got {
			if !it.Key.Equal(items[i].Key) || it.Value != items[i].Value {
				t.Fatalf("cut at byte %d: item %d is %v, want %v", cut, i, it, items[i])
			}
		}
	}
	for k, end := range ends {
		check(end, k)
	}
	check(ends[n/2]+walFrameHeader+1, n/2)
}

// TestExternalSnapshotDeterministic pins that a snapshot, external like
// every one a checkpoint writes, is a function of the store's state: its
// digest cells are written in index order, its tombstones by pair and its
// baselines and metadata by key, so snapshots of one state are the same
// bytes.
func TestExternalSnapshotDeterministic(t *testing.T) {
	s, err := NewStoreKind(EngineMem)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	items := make([]Item, 300)
	for i := range items {
		items[i] = Item{Key: keyspace.MustFromFloat(float64(i)/300, 16), Value: "v"}
	}
	s.AddAll(items)
	for i := 0; i < 60; i++ {
		s.Delete(items[i*5].Key, "v")
	}
	for i := 0; i < 3; i++ {
		s.RecordBaseline(fmt.Sprintf("peer-%d", i), Baseline{Mine: uint64(i + 1), Theirs: uint64(i + 2)})
		s.SetMeta(fmt.Sprintf("meta-%d", i), fmt.Sprintf("value-%d", i))
	}
	encode := func() ([]byte, *snapshotState) {
		s.mu.Lock()
		st := s.snapshotStateLocked()
		s.mu.Unlock()
		var buf bytes.Buffer
		if err := encodeSnapshotTo(&buf, st); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), st
	}
	first, st := encode()
	if len(st.Digests) < 2 || len(st.Tombs) < 50 || len(st.Baselines) < 2 || len(st.Meta) < 2 {
		t.Fatalf("snapshot carries %d digest cells, %d tombstones, %d baselines and %d metadata entries, want several of each",
			len(st.Digests), len(st.Tombs), len(st.Baselines), len(st.Meta))
	}
	for i := 0; i < 5; i++ {
		if again, _ := encode(); !bytes.Equal(again, first) {
			t.Fatalf("snapshot %d of the same state differs from the first", i+2)
		}
	}
}

// TestMarkAndApplyOneWrite pins the folded replica leg: the mark and the
// pair are one WAL write, mark first; a coordinator's seen ID applies
// nothing, while a replica leg applies whether or not it saw the ID.
func TestMarkAndApplyOneWrite(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, PersistOptions{SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	key := keyspace.MustFromString("0110")
	step := func(name string, once bool, ev Event, wantFresh, wantApplied bool, wantWrites int) {
		t.Helper()
		writes, clock := walWrites(s), s.Clock()
		if _, fresh := s.MarkAndApply(7, key, "v", ev, once); fresh != wantFresh {
			t.Errorf("%s: fresh=%v, want %v", name, fresh, wantFresh)
		}
		if got := walWrites(s) - writes; got != wantWrites {
			t.Errorf("%s: %d WAL writes, want %d", name, got, wantWrites)
		}
		if applied := s.Clock() != clock; applied != wantApplied {
			t.Errorf("%s: clock %d -> %d, want applied=%v", name, clock, s.Clock(), wantApplied)
		}
	}
	step("coordinate", true, Event{Op: Stamp, Kind: Live}, true, true, 1)
	step("coordinate duplicate", true, Event{Op: Stamp, Kind: Live}, false, false, 0)
	step("replica leg, seen ID", false, Event{Op: Replicate, Kind: Live, Gen: 5}, false, true, 1)
	if got := s.PairGen(key, "v"); got != 5 {
		t.Errorf("replica leg left generation %d, want 5", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var ops []byte
	if _, _, err := scanWAL(openSegmentPath(t, dir), func(payload []byte) error {
		ops = append(ops, payload[0])
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := []byte{opMutSeen, opAdd, opAdd}; !bytes.Equal(ops, want) {
		t.Errorf("WAL ops %v, want %v", ops, want)
	}
}
