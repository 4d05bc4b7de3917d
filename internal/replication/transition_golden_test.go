package replication

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pgrid/internal/keyspace"
)

// goldenPairs are the pairs the transition trace mutates: two values under
// one key, a key shorter than the dense digest tree and one longer than it.
var goldenPairs = []Item{
	{Key: keyspace.MustFromString("0110"), Value: "a"},
	{Key: keyspace.MustFromString("0110"), Value: "b"},
	{Key: keyspace.MustFromString("1"), Value: "a"},
	{Key: keyspace.MustFromString("10110011011"), Value: "c"},
}

// goldenPrefixes are the ReplaceWithin scopes the trace draws from.
var goldenPrefixes = []keyspace.Path{"", "0", "1", "011", "1011"}

// transitionTrace runs a seeded sequence of every pair-state mutation on a
// persistent store of the given engine with a frozen time source, and
// returns one line per op plus the final and reopened state.
func transitionTrace(t *testing.T, engine string) []string {
	t.Helper()
	dir := t.TempDir()
	frozen := time.Unix(1_700_000_000, 0)
	open := func() *Store {
		s, err := OpenStore(dir, PersistOptions{Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		s.SetTimeSource(func() time.Time { return frozen })
		s.SetGCPolicy(GCPolicy{MinVersions: 24})
		return s
	}
	s := open()
	r := rand.New(rand.NewSource(31))
	pick := func() Item { return goldenPairs[r.Intn(len(goldenPairs))] }
	withGen := func(it Item, gen uint64) Item { it.Gen = gen; return it }
	someItems := func() []Item {
		var out []Item
		for _, p := range goldenPairs {
			if r.Intn(3) == 0 {
				out = append(out, withGen(p, uint64(r.Intn(8))))
			}
		}
		return out
	}
	var lines []string
	for i := 0; i < 300; i++ {
		var op string
		switch r.Intn(10) {
		case 0:
			it := withGen(pick(), uint64(r.Intn(8)))
			op = fmt.Sprintf("Add(%s) = %v", fmtItem(it), s.Add(it))
		case 1:
			it := pick()
			if r.Intn(2) == 0 {
				it.Gen = uint64(r.Intn(10))
			}
			op = fmt.Sprintf("Insert(%s) = %s", fmtItem(it), fmtItem(s.Insert(it)))
		case 2:
			it := pick()
			op = fmt.Sprintf("Delete(%s) = %v", fmtItem(it), s.Delete(it.Key, it.Value))
		case 3:
			it, floor := pick(), uint64(r.Intn(10))
			op = fmt.Sprintf("DeleteStamped(%s, %d) = %s", fmtItem(it), floor, fmtItem(s.DeleteStamped(it.Key, it.Value, floor)))
		case 4:
			its := someItems()
			op = fmt.Sprintf("AddTombstones(%s) = %d", fmtItems(its), s.AddTombstones(its))
		case 5:
			its := someItems()
			op = fmt.Sprintf("DropTombstones(%s) = %d", fmtItems(its), s.DropTombstones(its))
		case 6:
			op = fmt.Sprintf("CompactTombstones() = %d", s.CompactTombstones())
		case 7:
			p := goldenPrefixes[r.Intn(len(goldenPrefixes))]
			items, tombs := someItems(), someItems()
			// One state per pair, as a replica's ContentWithin returns.
			tombs = pairsNotIn(tombs, items)
			op = fmt.Sprintf("ReplaceWithin(%q, %s, %s) = %d", string(p), fmtItems(items), fmtItems(tombs), s.ReplaceWithin(p, items, tombs))
		case 8:
			id := uint64(r.Intn(12))
			op = fmt.Sprintf("MarkMutation(%d) = %v", id, s.MarkMutation(id))
		default:
			it := withGen(pick(), uint64(r.Intn(8)))
			op = fmt.Sprintf("Add(%s) = %v", fmtItem(it), s.Add(it))
		}
		h, n := s.Digest(keyspace.Root)
		lines = append(lines, fmt.Sprintf("%03d %s | clock=%d floor=%d digest=%016x/%d", i, op, s.Clock(), s.GCFloor(), h, n))
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	lines = append(lines, storeState("final", s)...)
	lines = append(lines, "wal "+walHash(t, dir))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = open()
	defer s.Close()
	lines = append(lines, storeState("reopened", s)...)
	return lines
}

// pairsNotIn drops from its the pairs that also appear in other.
func pairsNotIn(its, other []Item) []Item {
	var out []Item
	for _, it := range its {
		dup := false
		for _, o := range other {
			dup = dup || (o.Key.Equal(it.Key) && o.Value == it.Value)
		}
		if !dup {
			out = append(out, it)
		}
	}
	return out
}

func storeState(label string, s *Store) []string {
	h, n := s.Digest(keyspace.Root)
	out := []string{
		fmt.Sprintf("%s clock=%d floor=%d digest=%016x/%d", label, s.Clock(), s.GCFloor(), h, n),
		fmt.Sprintf("%s items %s", label, fmtItems(s.Items())),
		fmt.Sprintf("%s tombstones %s", label, fmtItems(s.Tombstones())),
	}
	// DeltaSince(0) is refused once anything was pruned; the delta from the
	// GC floor is the oldest complete one.
	for _, since := range []uint64{0, s.GCFloor()} {
		items, tombs, ok := s.DeltaSince(since)
		out = append(out, fmt.Sprintf("%s delta(%d) %v items %s tombs %s", label, since, ok, fmtItems(items), fmtItems(tombs)))
	}
	return out
}

// walHash digests the bytes of every WAL segment in dir, in name order.
func walHash(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	size := 0
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
		size += len(b)
	}
	return fmt.Sprintf("segments=%d bytes=%d fnv=%016x", len(names), size, h.Sum64())
}

func fmtItem(it Item) string { return fmt.Sprintf("%s/%s@%d", it.Key.String(), it.Value, it.Gen) }

func fmtItems(its []Item) string {
	parts := make([]string, len(its))
	for i, it := range its {
		parts[i] = fmtItem(it)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// TestStoreTransitionGolden pins every observable effect of the pair-state
// mutations — return values, clock, GC floor, root digest after each op,
// the final content, the WAL bytes and the state after a reopen — against
// testdata/store_transitions.golden, on both storage engines.
func TestStoreTransitionGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "store_transitions.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	for _, engine := range []string{EngineMem, EngineDisk} {
		got := transitionTrace(t, engine)
		if len(got) != len(want) {
			t.Errorf("%s: %d trace lines, golden has %d", engine, len(got), len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				t.Errorf("%s: first difference at line %d:\n got %s\nwant %s", engine, i+1, got[i], want[i])
				break
			}
		}
	}
}

// storeMutationAllocCeiling is the allocation count of one Insert,
// DeleteStamped, Add and AddTombstones round on an existing key (the
// mutation hot path). It may only go down.
const storeMutationAllocCeiling = 4

// TestStoreMutationAllocCeiling holds the store's mutation path to its
// allocation ceiling.
func TestStoreMutationAllocCeiling(t *testing.T) {
	s, err := NewStoreKind(EngineMem)
	if err != nil {
		t.Fatal(err)
	}
	key := keyspace.MustFromString("0110")
	s.Insert(Item{Key: key, Value: "v"})
	tomb := []Item{{Key: key, Value: "v"}}
	got := testing.AllocsPerRun(200, func() {
		it := s.Insert(Item{Key: key, Value: "v"})
		d := s.DeleteStamped(key, "v", 0)
		s.Add(Item{Key: key, Value: "v", Gen: d.Gen + 1})
		tomb[0].Gen = it.Gen + 2
		s.AddTombstones(tomb)
	})
	t.Logf("mutation round allocates %.1f times", got)
	if got > storeMutationAllocCeiling {
		t.Errorf("mutation round allocates %.1f times, ceiling %d", got, storeMutationAllocCeiling)
	}
}

// walMutationAllocCeiling is the allocation count of the same round plus a
// MarkMutation on a persistent store, which encodes and appends five WAL
// records (fsync batched out of the measurement). It may only go down.
const walMutationAllocCeiling = 4

// TestWALMutationAllocCeiling holds the WAL-logged mutation path to its
// allocation ceiling.
func TestWALMutationAllocCeiling(t *testing.T) {
	s, err := OpenStore(t.TempDir(), PersistOptions{Engine: EngineMem, SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	key := keyspace.MustFromString("0110")
	s.Insert(Item{Key: key, Value: "v"})
	tomb := []Item{{Key: key, Value: "v"}}
	id := uint64(1)
	// Fill the dedup ring, so the measured marks evict rather than grow it.
	for ; id <= mutationDedupWindow; id++ {
		s.MarkMutation(id)
	}
	got := testing.AllocsPerRun(200, func() {
		it := s.Insert(Item{Key: key, Value: "v"})
		d := s.DeleteStamped(key, "v", 0)
		s.Add(Item{Key: key, Value: "v", Gen: d.Gen + 1})
		tomb[0].Gen = it.Gen + 2
		s.AddTombstones(tomb)
		s.MarkMutation(id)
		id++
	})
	t.Logf("logged mutation round allocates %.1f times", got)
	if got > walMutationAllocCeiling {
		t.Errorf("logged mutation round allocates %.1f times, ceiling %d", got, walMutationAllocCeiling)
	}
}
