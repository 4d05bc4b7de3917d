package replication

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"pgrid/internal/keyspace"
)

func fkey(x float64) keyspace.Key { return keyspace.MustFromFloat(x, 32) }

// contentEqual compares the logical content (live items and tombstones with
// generations) of two stores.
func contentEqual(t *testing.T, a, b *Store) bool {
	t.Helper()
	ai, bi := a.Items(), b.Items()
	if len(ai) != len(bi) {
		return false
	}
	for i := range ai {
		if ai[i] != bi[i] {
			return false
		}
	}
	at, bt := a.Tombstones(), b.Tombstones()
	if len(at) != len(bt) {
		return false
	}
	for i := range at {
		if at[i] != bt[i] {
			return false
		}
	}
	return true
}

// TestDigestEqualIffSameContent checks the digest's core contract: two
// stores hash equal at the root exactly when their logical content matches,
// and a single differing pair flips the digest of every bucket on its key's
// prefix chain.
func TestDigestEqualIffSameContent(t *testing.T) {
	a, b := NewStore(), NewStore()
	for i := 0; i < 64; i++ {
		it := Item{Key: fkey(float64(i) / 64), Value: fmt.Sprintf("v%d", i)}
		a.Add(it)
		b.Add(it)
	}
	ha, _ := a.Digest(keyspace.Root)
	hb, _ := b.Digest(keyspace.Root)
	if ha != hb {
		t.Fatalf("identical stores digest differently: %x vs %x", ha, hb)
	}

	extra := Item{Key: fkey(0.7001), Value: "extra"}
	b.Add(extra)
	hb2, _ := b.Digest(keyspace.Root)
	if ha == hb2 {
		t.Fatal("digest unchanged after adding a pair")
	}
	ks := extra.Key.String()
	for d := 0; d <= DigestDepth; d += 4 {
		pa, _ := a.Digest(keyspace.Path(ks[:d]))
		pb, _ := b.Digest(keyspace.Path(ks[:d]))
		if pa == pb {
			t.Errorf("prefix %q digest should differ after divergence", ks[:d])
		}
	}
	// A bucket off the divergent key's prefix chain must still agree.
	off := keyspace.Path(ks[:4]).Sibling()
	pa, _ := a.Digest(off)
	pb, _ := b.Digest(off)
	if pa != pb {
		t.Errorf("unrelated bucket %q digest diverged", off)
	}

	// Deleting the extra pair leaves a tombstone, which must still show up
	// as a digest mismatch against a store that never saw the pair.
	b.Delete(extra.Key, extra.Value)
	hb3, _ := b.Digest(keyspace.Root)
	if hb3 == ha {
		t.Fatal("tombstone invisible to digest: delete must not restore the old hash")
	}
}

// TestDigestIncrementalMatchesRebuild drives a random mutation workload and
// checks after every step that the incrementally maintained digest equals
// the digest of a store rebuilt from scratch out of the same logical
// content.
func TestDigestIncrementalMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewStore()
	var pool []Item
	for step := 0; step < 400; step++ {
		switch op := rng.Intn(10); {
		case op < 5 || len(pool) == 0:
			it := Item{Key: fkey(rng.Float64()), Value: fmt.Sprintf("v%d", step)}
			s.Insert(it)
			pool = append(pool, it)
		case op < 7:
			it := pool[rng.Intn(len(pool))]
			s.Add(it)
		case op < 9:
			i := rng.Intn(len(pool))
			s.Delete(pool[i].Key, pool[i].Value)
			pool = append(pool[:i], pool[i+1:]...)
		default:
			s.AddTombstones([]Item{{Key: fkey(rng.Float64()), Value: "remote-del", Gen: uint64(step)}})
		}
		if step%37 != 0 {
			continue
		}
		rebuilt := s.Clone()
		for d := 0; d <= 8; d += 2 {
			prefix := fkey(rng.Float64()).Path(d)
			hs, ns := s.Digest(prefix)
			hr, nr := rebuilt.Digest(prefix)
			if hs != hr || ns != nr {
				t.Fatalf("step %d prefix %q: incremental digest (%x,%d) != rebuilt (%x,%d)",
					step, prefix, hs, ns, hr, nr)
			}
		}
	}
}

// TestDigestChildrenPartitionParent checks that the child buckets exactly
// partition the parent: XOR of child hashes equals the parent hash and the
// counts add up.
func TestDigestChildrenPartitionParent(t *testing.T) {
	s := NewStore()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		s.Insert(Item{Key: fkey(rng.Float64()), Value: fmt.Sprintf("v%d", i)})
		if i%5 == 0 {
			s.Delete(fkey(rng.Float64()), "nope") // sprinkle tombstones
		}
	}
	for _, prefix := range []keyspace.Path{"", "0", "10", "110"} {
		ph, pn := s.Digest(prefix)
		var ch uint64
		cn := 0
		kids := s.DigestChildren(prefix, 4)
		if len(kids) != 16 {
			t.Fatalf("DigestChildren(%q, 4) returned %d buckets, want 16", prefix, len(kids))
		}
		for _, k := range kids {
			ch ^= k.Hash
			cn += k.Count
		}
		if ch != ph || cn != pn {
			t.Errorf("prefix %q: children fold to (%x,%d), parent is (%x,%d)", prefix, ch, cn, ph, pn)
		}
	}
}

// TestDeltaSinceExactness checks that DeltaSince returns exactly the pairs
// modified after the cut and that applying the delta to a snapshot
// reproduces the source content.
func TestDeltaSinceExactness(t *testing.T) {
	s := NewStore()
	for i := 0; i < 32; i++ {
		s.Insert(Item{Key: fkey(float64(i) / 32), Value: fmt.Sprintf("v%d", i)})
	}
	snapshot := s.Clone()
	cut := s.Clock()

	s.Insert(Item{Key: fkey(0.015), Value: "new"})
	s.Delete(fkey(3.0/32), "v3")
	s.Insert(Item{Key: fkey(5.0 / 32), Value: "v5"}) // re-stamp of an existing pair

	items, tombs, ok := s.DeltaSince(cut)
	if !ok {
		t.Fatal("delta reported incomparable without GC")
	}
	if len(items) != 2 || len(tombs) != 1 {
		t.Fatalf("delta = %d items, %d tombstones; want 2 and 1 (%v %v)", len(items), len(tombs), items, tombs)
	}
	snapshot.AddTombstones(tombs)
	snapshot.AddAll(items)
	if !contentEqual(t, s, snapshot) {
		t.Error("snapshot + delta does not reproduce the source store")
	}
	hs, _ := s.Digest(keyspace.Root)
	hr, _ := snapshot.Digest(keyspace.Root)
	if hs != hr {
		t.Errorf("digests diverge after delta application: %x vs %x", hs, hr)
	}

	// An empty delta for a fresh cut.
	items, tombs, ok = s.DeltaSince(s.Clock())
	if !ok || len(items) != 0 || len(tombs) != 0 {
		t.Errorf("delta since current clock should be empty, got %v %v", items, tombs)
	}
}

// TestDeltaIncomparableAfterGC checks the comparability contract: once a
// tombstone has been pruned, deltas reaching back before the prune must be
// refused so a stale replica cannot silently miss the delete.
func TestDeltaIncomparableAfterGC(t *testing.T) {
	s := NewStore()
	s.SetGCPolicy(GCPolicy{MinVersions: 4})
	it := Item{Key: fkey(0.5), Value: "doomed"}
	s.Insert(it)
	cut := s.Clock()
	s.Delete(it.Key, it.Value)
	for i := 0; i < 8; i++ { // advance the clock past the horizon
		s.Insert(Item{Key: fkey(0.1 + float64(i)/100), Value: fmt.Sprintf("f%d", i)})
	}
	if n := s.CompactTombstones(); n != 1 {
		t.Fatalf("pruned %d tombstones, want 1", n)
	}
	if s.TombstoneCount() != 0 {
		t.Fatal("tombstone survived GC")
	}
	if s.GCFloor() == 0 {
		t.Fatal("GC floor not advanced by prune")
	}
	if _, _, ok := s.DeltaSince(cut); ok {
		t.Error("delta from before the GC floor must be incomparable")
	}
	if _, _, ok := s.DeltaSince(s.Clock()); !ok {
		t.Error("delta from after the GC floor must stay available")
	}
}

// TestCompactTombstonesAge exercises the wall-clock criterion with a frozen,
// steerable time source.
func TestCompactTombstonesAge(t *testing.T) {
	now := time.Unix(1000, 0)
	s := NewStore()
	s.SetTimeSource(func() time.Time { return now })
	s.SetGCPolicy(GCPolicy{MinAge: time.Hour})
	s.Insert(Item{Key: fkey(0.25), Value: "a"})
	s.Delete(fkey(0.25), "a")
	if n := s.CompactTombstones(); n != 0 {
		t.Fatalf("young tombstone pruned (%d)", n)
	}
	now = now.Add(2 * time.Hour)
	if n := s.CompactTombstones(); n != 1 {
		t.Fatalf("aged tombstone not pruned (%d)", n)
	}
}

// TestGCDoesNotPruneFreshTombstones checks that a tombstone younger than the
// horizon survives a compaction that prunes an older one, and that the floor
// still advances.
func TestGCDoesNotPruneFreshTombstones(t *testing.T) {
	s := NewStore()
	s.SetGCPolicy(GCPolicy{MinVersions: 6})
	s.Insert(Item{Key: fkey(0.1), Value: "old"})
	s.Delete(fkey(0.1), "old")
	for i := 0; i < 10; i++ {
		s.Insert(Item{Key: fkey(0.5 + float64(i)/100), Value: fmt.Sprintf("f%d", i)})
	}
	s.Insert(Item{Key: fkey(0.9), Value: "fresh"})
	s.Delete(fkey(0.9), "fresh")
	if n := s.CompactTombstones(); n != 1 {
		t.Fatalf("pruned %d tombstones, want exactly the old one", n)
	}
	if !s.Deleted(fkey(0.9), "fresh") {
		t.Error("fresh tombstone was pruned")
	}
}

// TestReinsertRacingGCHorizon reproduces the re-insert-vs-GC race across two
// replicas: replica A pruned the pair's tombstone, replica B still holds it.
// A coordinates a fresh insert (stamped without tombstone memory), B refuses
// the stale stamp, and the coordinator's re-stamp retry — the same recovery
// the routed write path uses — must win everywhere without resurrecting the
// delete.
func TestReinsertRacingGCHorizon(t *testing.T) {
	a, b := NewStore(), NewStore()
	a.SetGCPolicy(GCPolicy{MinVersions: 1})
	key := fkey(0.375)

	// The delete reached both replicas with the same stamp.
	stamp := a.DeleteStamped(key, "x", 0)
	b.AddTombstones([]Item{stamp})

	// A prunes the tombstone, B keeps it.
	a.Insert(Item{Key: fkey(0.8), Value: "filler"})
	if a.CompactTombstones() != 1 {
		t.Fatal("setup: tombstone not pruned at A")
	}

	// A coordinates a re-insert: without tombstone memory the stamp starts
	// at generation 1 and B must refuse it.
	stamped := a.Insert(Item{Key: key, Value: "x"})
	if b.Add(stamped) {
		t.Fatal("B accepted a stamp below its tombstone generation")
	}
	if got := b.PairGen(key, "x"); got != stamp.Gen {
		t.Fatalf("B reports generation %d, want tombstone generation %d", got, stamp.Gen)
	}

	// The coordinator re-stamps above the refusing replica's generation
	// (mirroring the coordinator's Restamp retry) and both replicas converge
	// live.
	restamped := a.Insert(Item{Key: key, Value: "x", Gen: b.PairGen(key, "x") + 1})
	if !b.Add(restamped) {
		t.Fatal("B refused the re-stamped insert")
	}
	if !a.Live(key, "x") || !b.Live(key, "x") {
		t.Fatal("re-insert did not end up live on both replicas")
	}
	// The old tombstone, arriving late from B's pre-retry state, must lose.
	if a.AddTombstones([]Item{stamp}) != 0 || !a.Live(key, "x") {
		t.Error("stale tombstone resurrected the delete over the re-insert")
	}
}

// TestReplaceWithinRebuild checks the rebuild path a stale replica takes
// after missing a GC window: its content under the partition is replaced
// wholesale, so a live pair whose tombstone was deleted-and-pruned elsewhere
// does not survive.
func TestReplaceWithinRebuild(t *testing.T) {
	stale := NewStore()
	stale.Add(Item{Key: fkey(0.125), Value: "zombie"}) // deleted+pruned elsewhere
	stale.Add(Item{Key: fkey(0.25), Value: "shared"})
	stale.Add(Item{Key: fkey(0.75), Value: "other-partition"})

	authoritative := NewStore()
	authoritative.Add(Item{Key: fkey(0.25), Value: "shared"})
	authoritative.Insert(Item{Key: fkey(0.3), Value: "newer"})
	authoritative.Delete(fkey(0.31), "recently-deleted")

	items := authoritative.ItemsWithPrefix("0")
	tombs := authoritative.TombstonesWithPrefix("0")
	stale.ReplaceWithin("0", items, tombs)

	if stale.Live(fkey(0.125), "zombie") {
		t.Error("rebuild kept a pair the authoritative replica no longer has")
	}
	if !stale.Live(fkey(0.25), "shared") || !stale.Live(fkey(0.3), "newer") {
		t.Error("rebuild lost authoritative content")
	}
	if !stale.Deleted(fkey(0.31), "recently-deleted") {
		t.Error("rebuild dropped the authoritative tombstone")
	}
	if !stale.Live(fkey(0.75), "other-partition") {
		t.Error("rebuild touched content outside the partition")
	}
	hs, _ := stale.Digest("0")
	ha, _ := authoritative.Digest("0")
	if hs != ha {
		t.Errorf("digests differ after rebuild: %x vs %x", hs, ha)
	}
}

// TestDeltaRoundTripConvergence is the protocol-level property at store
// granularity: two replicas that exchange deltas since their last common
// clock end up with identical content and digests.
func TestDeltaRoundTripConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a, b := NewStore(), NewStore()
	for i := 0; i < 50; i++ {
		it := Item{Key: fkey(rng.Float64()), Value: fmt.Sprintf("base%d", i)}
		a.Add(it)
		b.Add(it)
	}
	cutA, cutB := a.Clock(), b.Clock()
	// Independent divergence on both sides.
	for i := 0; i < 20; i++ {
		a.Insert(Item{Key: fkey(rng.Float64()), Value: fmt.Sprintf("a%d", i)})
		b.Insert(Item{Key: fkey(rng.Float64()), Value: fmt.Sprintf("b%d", i)})
	}
	a.Delete(fkey(0.5), "base25")
	b.Delete(fkey(0.25), "base12")

	ai, at, ok := a.DeltaSince(cutA)
	if !ok {
		t.Fatal("a delta incomparable")
	}
	bi, bt, ok := b.DeltaSince(cutB)
	if !ok {
		t.Fatal("b delta incomparable")
	}
	b.AddTombstones(at)
	b.AddAll(ai)
	a.AddTombstones(bt)
	a.AddAll(bi)

	if !contentEqual(t, a, b) {
		t.Fatal("replicas did not converge after delta exchange")
	}
	ha, _ := a.Digest(keyspace.Root)
	hb, _ := b.Digest(keyspace.Root)
	if ha != hb {
		t.Errorf("digests differ after convergence: %x vs %x", ha, hb)
	}
}
