package routing

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"pgrid/internal/keyspace"
	"pgrid/internal/network"

	"pgrid/internal/testutil"
)

func TestSetPathAndLevels(t *testing.T) {
	tab := New(2, 1)
	if tab.Path() != keyspace.Root || tab.Levels() != 0 {
		t.Error("new table should be at the root")
	}
	tab.SetPath("010")
	if tab.Levels() != 3 {
		t.Errorf("levels = %d", tab.Levels())
	}
	tab.Add(0, Ref{Addr: "a", Path: "1"})
	tab.Add(1, Ref{Addr: "b", Path: "00"})
	tab.SetPath("0")
	if tab.Levels() != 1 {
		t.Errorf("levels after shorten = %d", tab.Levels())
	}
	if len(tab.Refs(0)) != 1 || len(tab.Refs(1)) != 0 {
		t.Error("truncation should drop deeper levels only")
	}
}

func TestExtend(t *testing.T) {
	tab := New(2, 2)
	tab.Extend(0, Ref{Addr: "peerB", Path: "1"})
	if tab.Path() != "0" {
		t.Errorf("path = %v", tab.Path())
	}
	refs := tab.Refs(0)
	if len(refs) != 1 || refs[0].Addr != "peerB" {
		t.Errorf("refs = %v", refs)
	}
	tab.Extend(1, Ref{Addr: "peerC", Path: "00"})
	if tab.Path() != "01" {
		t.Errorf("path = %v", tab.Path())
	}
	if len(tab.Refs(1)) != 1 {
		t.Error("level 1 reference missing")
	}
}

func TestAddBoundsAndDuplicates(t *testing.T) {
	tab := New(2, 3)
	tab.SetPath("00")
	// Out-of-range and empty-address adds are ignored.
	tab.Add(-1, Ref{Addr: "x"})
	tab.Add(5, Ref{Addr: "x"})
	tab.Add(0, Ref{Addr: ""})
	if len(tab.Refs(0))+len(tab.Refs(1)) != 0 {
		t.Error("invalid adds should be ignored")
	}
	// Duplicates update the path instead of growing the level.
	tab.Add(0, Ref{Addr: "a", Path: "1"})
	tab.Add(0, Ref{Addr: "a", Path: "10"})
	refs := tab.Refs(0)
	if len(refs) != 1 || refs[0].Path != "10" {
		t.Errorf("duplicate handling wrong: %v", refs)
	}
	// Capacity is bounded by maxRefs.
	tab.Add(0, Ref{Addr: "b"})
	tab.Add(0, Ref{Addr: "c"})
	tab.Add(0, Ref{Addr: "d"})
	if len(tab.Refs(0)) != 2 {
		t.Errorf("level should be capped at 2 refs, got %d", len(tab.Refs(0)))
	}
}

func TestRandomRef(t *testing.T) {
	tab := New(3, 4)
	tab.SetPath("0")
	if _, ok := tab.Random(0); ok {
		t.Error("empty level should have no random ref")
	}
	tab.Add(0, Ref{Addr: "a"})
	tab.Add(0, Ref{Addr: "b"})
	seen := map[network.Addr]bool{}
	for i := 0; i < 100; i++ {
		r, ok := tab.Random(0)
		if !ok {
			t.Fatal("random ref missing")
		}
		seen[r.Addr] = true
	}
	if len(seen) != 2 {
		t.Errorf("random selection should eventually return every ref: %v", seen)
	}
	if _, ok := tab.Random(9); ok {
		t.Error("out-of-range level should have no ref")
	}
}

func TestRemove(t *testing.T) {
	tab := New(3, 5)
	tab.SetPath("01")
	tab.Add(0, Ref{Addr: "a"})
	tab.Add(0, Ref{Addr: "b"})
	tab.Add(1, Ref{Addr: "a"})
	tab.Remove("a")
	for _, r := range append(tab.Refs(0), tab.Refs(1)...) {
		if r.Addr == "a" {
			t.Fatal("reference not removed")
		}
	}
	if len(tab.Refs(0)) != 1 {
		t.Error("unrelated reference should remain")
	}
}

func TestNextHopAndResponsible(t *testing.T) {
	tab := New(3, 6)
	tab.SetPath("01")
	tab.Add(0, Ref{Addr: "peer1", Path: "1"})
	tab.Add(1, Ref{Addr: "peer00", Path: "00"})

	// Key within the partition: responsible, no next hop.
	k := keyspace.MustFromString("0110")
	if !tab.Responsible(k) {
		t.Error("should be responsible for 0110")
	}
	if _, _, ok := tab.NextHop(k); ok {
		t.Error("no hop needed for own partition")
	}
	// Key diverging at level 0.
	k = keyspace.MustFromString("10")
	ref, level, ok := tab.NextHop(k)
	if !ok || level != 0 || ref.Addr != "peer1" {
		t.Errorf("NextHop = %v %d %v", ref, level, ok)
	}
	// Key diverging at level 1.
	k = keyspace.MustFromString("001")
	ref, level, ok = tab.NextHop(k)
	if !ok || level != 1 || ref.Addr != "peer00" {
		t.Errorf("NextHop = %v %d %v", ref, level, ok)
	}
	// Key shorter than the divergence point counts as matching.
	if !tab.Responsible(keyspace.MustFromString("0")) {
		t.Error("prefix key should be considered covered")
	}
}

func TestNextHopMissingReference(t *testing.T) {
	tab := New(3, 7)
	tab.SetPath("01")
	// No references at all: NextHop reports the level but no reference.
	_, level, ok := tab.NextHop(keyspace.MustFromString("11"))
	if ok || level != 0 {
		t.Errorf("expected no hop, level 0; got level %d ok %v", level, ok)
	}
}

func TestMergeFrom(t *testing.T) {
	a := New(3, 8)
	a.SetPath("010")
	b := New(3, 9)
	b.SetPath("011")
	b.Add(0, Ref{Addr: "x", Path: "1"})
	b.Add(1, Ref{Addr: "y", Path: "00"})
	b.Add(2, Ref{Addr: "z", Path: "010"}) // beyond the common prefix

	otherPath, otherRefs := b.Snapshot()
	a.MergeFrom(otherPath, otherRefs)
	if len(a.Refs(0)) != 1 || len(a.Refs(1)) != 1 {
		t.Errorf("shared levels should be merged: %v %v", a.Refs(0), a.Refs(1))
	}
	if len(a.Refs(2)) != 0 {
		t.Error("levels beyond the common prefix must not be merged")
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	tab := New(3, 10)
	tab.SetPath("0")
	tab.Add(0, Ref{Addr: "a"})
	_, levels := tab.Snapshot()
	levels[0][0].Addr = "mutated"
	if tab.Refs(0)[0].Addr != "a" {
		t.Error("snapshot must not alias internal state")
	}
}

func TestStringRendering(t *testing.T) {
	tab := New(3, 11)
	tab.SetPath("01")
	tab.Add(0, Ref{Addr: "a"})
	s := tab.String()
	if !strings.Contains(s, "path=01") || !strings.Contains(s, "L0:[a]") {
		t.Errorf("String = %q", s)
	}
}

func TestDefaultMaxRefs(t *testing.T) {
	tab := New(0, 12)
	tab.SetPath("0")
	for i := 0; i < 10; i++ {
		tab.Add(0, Ref{Addr: network.Addr(fmt.Sprintf("p%d", i))})
	}
	if len(tab.Refs(0)) != DefaultMaxRefs {
		t.Errorf("default cap = %d", len(tab.Refs(0)))
	}
}

func TestRoutingInvariantProperty(t *testing.T) {
	// Property: for any random key and any table whose levels all hold at
	// least one reference, either the owner is responsible or NextHop
	// returns a reference whose recorded path agrees with the key on
	// strictly more bits than the owner's path does.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		depth := 1 + r.Intn(6)
		pathBits := make([]byte, depth)
		for i := range pathBits {
			pathBits[i] = byte('0' + r.Intn(2))
		}
		path := keyspace.Path(pathBits)
		tab := New(2, seed)
		tab.SetPath(path)
		for l := 0; l < depth; l++ {
			tab.Add(l, Ref{Addr: network.Addr(fmt.Sprintf("p%d", l)), Path: path[:l].Child(1 - path.Bit(l))})
		}
		key := keyspace.MustFromFloat(r.Float64(), 32)
		if tab.Responsible(key) {
			return true
		}
		ref, level, ok := tab.NextHop(key)
		if !ok {
			return false
		}
		// The referenced peer's path must match the key at least up to and
		// including the divergence level.
		return key.HasPrefix(ref.Path) && level >= 0
	}
	if err := quick.Check(f, testutil.QuickConfig(t, 500, 501)); err != nil {
		t.Error(err)
	}
}

// forwardAllocCeiling is the allocation ceiling of one forward's routing
// work: a Table.NextHop for the key plus the Table.Refs copy of the level
// it names. It may only go down.
const forwardAllocCeiling = 1

// TestForwardAllocCeiling holds the routing calls every forward makes to
// their allocation ceiling.
func TestForwardAllocCeiling(t *testing.T) {
	tab := New(DefaultMaxRefs, 3)
	tab.SetPath("0101")
	for level, comp := range []keyspace.Path{"1", "00", "011", "0100"} {
		for i := 0; i < DefaultMaxRefs; i++ {
			tab.Add(level, Ref{Addr: network.Addr(fmt.Sprintf("p%d-%d", level, i)), Path: comp})
		}
	}
	key := keyspace.MustFromString("01001101")
	got := testing.AllocsPerRun(200, func() {
		_, level, ok := tab.NextHop(key)
		if !ok || len(tab.Refs(level)) != DefaultMaxRefs {
			t.Fatalf("no next hop at level %d", level)
		}
	})
	if got > forwardAllocCeiling {
		t.Errorf("NextHop plus Refs allocates %.1f times, ceiling %d", got, forwardAllocCeiling)
	}
}
