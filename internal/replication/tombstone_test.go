package replication

import (
	"runtime"
	"strconv"
	"testing"

	"pgrid/internal/keyspace"
)

// maxTombstoneBytes bounds the heap one tombstone of a fresh key costs a
// mem store: its record and key, plus whatever the engine keeps of the
// live pair it replaced.
const maxTombstoneBytes = 300

// TestTombstoneFootprint checks the tombstone records: a tombstone of a
// fresh key costs at most maxTombstoneBytes, and several values under one
// key, some of them tombstoned, are each seen once by every reader.
func TestTombstoneFootprint(t *testing.T) {
	t.Run("fresh keys", testTombstoneHeap)
	t.Run("values of one key", testTombstonesOfOneKey)
}

// testTombstoneHeap inserts and then deletes 20k pairs of distinct keys on
// a mem store, the shape of a write-heavy workload that keeps a tombstone
// for every key it ever wrote, and bounds the heap each tombstone leaves
// behind.
func testTombstoneHeap(t *testing.T) {
	const n = 20000
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Key: keyspace.MustFromFloat((float64(i)+0.5)/n, 32), Value: "v" + strconv.Itoa(i)}
	}
	s, err := NewStoreKind(EngineMem)
	if err != nil {
		t.Fatal(err)
	}
	before := heapInUse()
	for _, it := range items {
		s.Insert(it)
	}
	for _, it := range items {
		s.Delete(it.Key, it.Value)
	}
	after := heapInUse()
	if got := s.TombstoneCount(); got != n {
		t.Fatalf("TombstoneCount = %d, want %d", got, n)
	}
	runtime.KeepAlive(items)
	runtime.KeepAlive(s)
	per := float64(after-before) / n
	t.Logf("%.0f B of heap per tombstone", per)
	if per > maxTombstoneBytes {
		t.Errorf("a tombstone costs %.0f B of heap, want at most %d", per, maxTombstoneBytes)
	}
}

// heapInUse returns the bytes of live heap objects after a collection.
func heapInUse() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// testTombstonesOfOneKey tombstones some of several values under one key
// and checks that every reader of the tombstones sees each of them, and
// only them, once.
func testTombstonesOfOneKey(t *testing.T) {
	s := NewStore()
	for _, v := range []string{"a", "b", "c", "d"} {
		s.Insert(item("0101", v))
	}
	s.Insert(item("0110", "x"))
	s.Insert(item("1", "y"))
	cut := s.Clock()
	s.Delete(keyspace.MustFromString("0101"), "b")
	s.Delete(keyspace.MustFromString("0101"), "d")
	s.Delete(keyspace.MustFromString("0110"), "x")
	s.Delete(keyspace.MustFromString("1"), "z")

	if got := s.TombstoneCount(); got != 4 {
		t.Errorf("TombstoneCount = %d, want 4", got)
	}
	check := func(what string, got []Item, want string) {
		t.Helper()
		if g := fmtItems(got); g != want {
			t.Errorf("%s = %s, want %s", what, g, want)
		}
	}
	check("TombstonesWithPrefix(01)", s.TombstonesWithPrefix("01"), "[0101/b@2 0101/d@2 0110/x@2]")
	check("TombstonesWithPrefix(0101)", s.TombstonesWithPrefix("0101"), "[0101/b@2 0101/d@2]")
	items, tombs, ok := s.DeltaSince(cut)
	if !ok {
		t.Fatal("DeltaSince: incomplete")
	}
	check("DeltaSince items", items, "[]")
	check("DeltaSince tombstones", tombs, "[0101/b@2 0101/d@2 0110/x@2 1/z@1]")
	_, tombs, _ = s.DeltaSince(cut + 2)
	check("DeltaSince(cut+2) tombstones", tombs, "[0110/x@2 1/z@1]")
	items, tombs = s.ContentWithin([]keyspace.Path{"010", "1"})
	check("ContentWithin items", items, "[0101/a@1 0101/c@1 1/y@1]")
	check("ContentWithin tombstones", tombs, "[0101/b@2 0101/d@2 1/z@1]")

	// Rebuild 01 from a replica that tombstoned a and kept d live at a
	// newer generation: the old tombstones under 01 go, the new ones come.
	s.ReplaceWithin("01", []Item{{Key: keyspace.MustFromString("0101"), Value: "d", Gen: 3}},
		[]Item{{Key: keyspace.MustFromString("0101"), Value: "a", Gen: 2}})
	check("Tombstones after ReplaceWithin", s.Tombstones(), "[0101/a@2 1/z@1]")
	check("Items after ReplaceWithin", s.Items(), "[0101/d@3 1/y@1]")
	if got := s.TombstoneCount(); got != 2 {
		t.Errorf("TombstoneCount after ReplaceWithin = %d, want 2", got)
	}
	root, n := s.Digest(keyspace.Root)
	fresh := NewStore()
	fresh.AddAll(s.Items())
	fresh.AddTombstones(s.Tombstones())
	if fr, fn := fresh.Digest(keyspace.Root); fr != root || fn != n {
		t.Errorf("digest after ReplaceWithin = %x/%d, want that of the same content added fresh, %x/%d", root, n, fr, fn)
	}
}
