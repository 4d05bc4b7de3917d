package replication

// Tests of the lower-bounded engine scan and the range reads built on it:
// ScanPrefix(prefix, from) against a sorted-slice oracle on both engines,
// through the disk engine's memtable, frozen memtable and segments with
// delete markers; Store.ScanRange against Items() filtered with
// Key.Compare; a count of the records a range read makes the engine visit;
// and the store reads that rely on the engines' scan order (Items,
// KeysWithPrefix) without sorting.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"pgrid/internal/keyspace"
)

// TestScanRangeVisitsOnlyRange: a range read makes the engine yield the
// records it returns plus at most the one that ends it, even when the
// bounds share no prefix, so nothing below Lo is walked. The count is the
// one ScanRange's own body (scanRangeLocked) takes of the engine scan.
func TestScanRangeVisitsOnlyRange(t *testing.T) {
	const pairs = 4096
	for _, kind := range storeKinds {
		t.Run(kind, func(t *testing.T) {
			s, keys := checkpointedStore(t, kind, pairs)
			for _, c := range []struct {
				r    keyspace.Range
				want int
			}{
				{keyspace.NewRange(keys[pairs/2-8], keys[pairs/2+8]), 16}, // straddles 1/2
				{keyspace.RangeFrom(keys[pairs-96]), 96},
			} {
				returned := 0
				s.mu.RLock()
				yielded := s.scanRangeLocked(c.r, func(Item) bool { returned++; return true })
				s.mu.RUnlock()
				if returned != c.want {
					t.Fatalf("range %v returned %d items, want %d", c.r, returned, c.want)
				}
				if yielded > returned+1 {
					t.Errorf("range %v returned %d items but the engine yielded %d records",
						c.r, returned, yielded)
				}
			}
		})
	}
}

// TestEngineConformanceScanFrom checks ScanPrefix(prefix, from) on both
// engines against a sorted slice of the live pairs, for every prefix and
// lower bound up to five bits: bounds below the prefix, inside it, past its
// end, and equal to a key that holds several values. The disk engine is
// checked with its memtable alone, with a frozen memtable beneath it, and
// over segments holding delete markers.
func TestEngineConformanceScanFrom(t *testing.T) {
	var bounds []string
	for n := 0; n <= 5; n++ {
		for b := 0; b < 1<<n; b++ {
			bounds = append(bounds, fmt.Sprintf("%0*b", n, b)[:n])
		}
	}
	for kind, mk := range conformanceEngines() {
		t.Run(kind, func(t *testing.T) {
			eng := mk(t)
			disk := eng
			if eng.resident {
				disk = nil
			}
			rng := rand.New(rand.NewSource(23))
			live := map[pairKey]PairRecord{}
			ver := uint64(0)
			put := func(k, v string) {
				ver++
				rec := PairRecord{Key: k, Value: v, Gen: ver % 3, Ver: ver}
				_, had := live[pairKey{k, v}]
				live[pairKey{k, v}] = rec
				eng.Put(rec, !had)
			}
			putRandom := func(n int) {
				for i := 0; i < n; i++ {
					put(fmt.Sprintf("%05b", rng.Intn(32))[:1+rng.Intn(5)], fmt.Sprintf("v%d", rng.Intn(3)))
				}
			}
			deleteRandom := func(n int) {
				ks := make([]pairKey, 0, len(live))
				for k := range live {
					ks = append(ks, k)
				}
				sort.Slice(ks, func(i, j int) bool { return pairLess(ks[i].k, ks[i].v, ks[j].k, ks[j].v) })
				rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
				for _, k := range ks[:min(n, len(ks))] {
					delete(live, k)
					eng.Delete(k.k, k.v)
				}
			}
			flush := func() {
				if disk != nil {
					flushEngine(t, disk)
				}
			}
			check := func(phase string) {
				want := make([]PairRecord, 0, len(live))
				for _, rec := range live {
					want = append(want, rec)
				}
				sort.Slice(want, func(i, j int) bool {
					return pairLess(want[i].Key, want[i].Value, want[j].Key, want[j].Value)
				})
				for _, prefix := range []string{"", "0", "01", "011", "1", "0110"} {
					for _, from := range bounds {
						var got []PairRecord
						eng.ScanPrefix(prefix, from, func(rec PairRecord) bool {
							got = append(got, rec)
							return true
						})
						i := 0
						for _, rec := range want {
							if !hasPrefix(rec.Key, prefix) || rec.Key < from {
								continue
							}
							if i >= len(got) || got[i] != rec {
								t.Fatalf("%s: ScanPrefix(%q, %q) record %d = %v, want %+v", phase, prefix, from, i, got[i:min(i+1, len(got))], rec)
							}
							i++
						}
						if i != len(got) {
							t.Fatalf("%s: ScanPrefix(%q, %q) yielded %d records, want %d", phase, prefix, from, len(got), i)
						}
					}
				}
			}
			// A key holding several values, which bounds and prefixes above
			// both name.
			for _, v := range []string{"a", "b", "c"} {
				put("0110", v)
			}
			putRandom(60)
			check("memtable")
			if disk != nil {
				disk.freeze()
			}
			putRandom(40)
			check("frozen memtable and memtable")
			flush()
			deleteRandom(25)
			putRandom(20)
			check("segment with memtable delete markers")
			flush()
			deleteRandom(10)
			check("segments with delete markers")
			if disk != nil && disk.segmentCount() < 2 {
				t.Fatalf("only %d segments", disk.segmentCount())
			}
		})
	}
}

// checkScanRange compares s.ScanRange(r) with s.Items() filtered by
// Key.Compare, the definition of range membership.
func checkScanRange(t *testing.T, s *Store, r keyspace.Range) {
	t.Helper()
	var want []Item
	for _, it := range s.Items() {
		if it.Key.Compare(r.Lo) >= 0 && (r.HiUnbounded || it.Key.Compare(r.Hi) < 0) {
			want = append(want, it)
		}
	}
	var got []Item
	s.ScanRange(r, func(it Item) bool {
		got = append(got, it)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("ScanRange(%v) returned %d items, want %d", r, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("ScanRange(%v) item %d = %+v, want %+v", r, i, got[i], want[i])
		}
	}
}

// randomKey returns a key of 0 to maxLen bits.
func randomKey(rng *rand.Rand, maxLen int) keyspace.Key {
	k, _ := keyspace.FromBits(rng.Uint64(), rng.Intn(maxLen+1))
	return k
}

// TestScanRangeMatchesItems: on both engines, with part of the pairs in
// segments, ScanRange returns exactly the items Key.Compare puts in the
// range. Keys and bounds are 0 to 8 bits long, so bounds are longer and
// shorter than the stored keys, stored keys are proper prefixes of Lo, and
// many bounded ranges are empty.
func TestScanRangeMatchesItems(t *testing.T) {
	for _, kind := range storeKinds {
		t.Run(kind, func(t *testing.T) {
			s, err := OpenStore(t.TempDir(), PersistOptions{Engine: kind})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			rng := rand.New(rand.NewSource(29))
			var stored []keyspace.Key
			mutate := func(n int) {
				for i := 0; i < n; i++ {
					k, v := randomKey(rng, 8), fmt.Sprintf("v%d", rng.Intn(3))
					if rng.Intn(4) == 0 {
						s.Delete(k, v)
						continue
					}
					s.Insert(Item{Key: k, Value: v})
					stored = append(stored, k)
				}
			}
			mutate(300)
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			mutate(100)
			var prefixOfLo, unbounded, empty int
			for i := 0; i < 2000; i++ {
				r := keyspace.NewRange(randomKey(rng, 8), randomKey(rng, 8))
				if i%3 == 0 {
					// Lo extends a stored key, which then sorts below it.
					k := stored[rng.Intn(len(stored))]
					r.Lo, _ = keyspace.FromBits(k.Bits|rng.Uint64()>>k.Len, min(64, k.Len+1+rng.Intn(3)))
					prefixOfLo++
				}
				if i%5 == 0 {
					r.HiUnbounded = true
					unbounded++
				} else if r.Hi.Compare(r.Lo) <= 0 {
					empty++
				}
				checkScanRange(t, s, r)
			}
			if prefixOfLo == 0 || unbounded == 0 || empty == 0 {
				t.Fatalf("cases not covered: %d prefix-of-Lo, %d unbounded, %d empty", prefixOfLo, unbounded, empty)
			}
		})
	}
}

// FuzzScanRange builds a store on each engine from the fuzz bytes, two
// bytes an operation, and checks one range read against Items() filtered
// with Key.Compare. In an operation's first byte, the low four bits are
// the key length (up to 8 bits, taken from the second byte), the next two
// pick the value, 0x40 deletes instead of inserting, and 0x80 checkpoints
// after the operation, so part of the pairs and delete markers reach
// segments.
func FuzzScanRange(f *testing.F) {
	f.Add([]byte{0x08, 0x80, 0x07, 0x7f, 0x88, 0x81, 0x48, 0x80, 0x03, 0x60}, uint64(1)<<63, uint64(0), uint8(1), uint8(0), true)
	f.Add([]byte{0x02, 0x40, 0x14, 0x70, 0x26, 0x7c, 0x81, 0x80, 0x05, 0x88}, uint64(0x7)<<60, uint64(0x9)<<60, uint8(4), uint8(4), false)
	f.Add([]byte{0x00, 0x00, 0x11, 0x80, 0x88, 0xff}, uint64(0), uint64(0), uint8(0), uint8(0), false)
	f.Fuzz(func(t *testing.T, ops []byte, lo, hi uint64, loLen, hiLen uint8, hiUnbounded bool) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		var r keyspace.Range
		r.Lo, _ = keyspace.FromBits(lo, int(loLen%11))
		r.Hi, _ = keyspace.FromBits(hi, int(hiLen%11))
		r.HiUnbounded = hiUnbounded
		var items [][]Item
		for _, kind := range storeKinds {
			s, err := OpenStore(t.TempDir(), PersistOptions{Engine: kind})
			if err != nil {
				t.Fatal(err)
			}
			checkpoints := 0
			for i := 0; i+1 < len(ops); i += 2 {
				op := ops[i]
				k, _ := keyspace.FromBits(uint64(ops[i+1])<<56, min(int(op&0x0f), 8))
				v := fmt.Sprintf("v%d", op>>4&3)
				if op&0x40 != 0 {
					s.Delete(k, v)
				} else {
					s.Insert(Item{Key: k, Value: v})
				}
				if op&0x80 != 0 && checkpoints < 3 {
					checkpoints++
					if err := s.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			checkScanRange(t, s, r)
			items = append(items, s.Items())
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if fmt.Sprint(items[0]) != fmt.Sprint(items[1]) {
			t.Fatalf("engines disagree: %v against %v", items[0], items[1])
		}
	})
}

// TestDiskScanMemtableShadowsFrozen: a pair live in the memtable and
// deleted in the frozen memtable, and one deleted in the memtable and live
// in the frozen memtable, both resolve to the memtable's state in every
// scan and point read, over a segment holding older states of both.
func TestDiskScanMemtableShadowsFrozen(t *testing.T) {
	eng, err := openEngine(t.TempDir(), nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	checkpoint := func(flush bool) {
		if flush {
			flushEngine(t, eng)
		} else {
			eng.freeze()
		}
	}
	reborn := PairRecord{Key: "0110", Value: "a", Gen: 3, Ver: 4}
	kept := PairRecord{Key: "0111", Value: "b", Gen: 1, Ver: 2}
	// The segment holds both pairs live.
	eng.Put(PairRecord{Key: reborn.Key, Value: reborn.Value, Gen: 1, Ver: 1}, true)
	eng.Put(kept, true)
	eng.Put(PairRecord{Key: "01110", Value: "c", Gen: 1, Ver: 3}, true)
	checkpoint(true)
	// The frozen memtable deletes reborn and holds a live "01110"/"c" state.
	eng.Delete(reborn.Key, reborn.Value)
	eng.Put(PairRecord{Key: "01110", Value: "c", Gen: 2, Ver: 5}, false)
	checkpoint(false)
	// The memtable brings reborn back and deletes "01110"/"c".
	eng.Put(reborn, true)
	eng.Delete("01110", "c")
	want := []PairRecord{reborn, kept}
	if eng.Len() != len(want) {
		t.Fatalf("len = %d, want %d", eng.Len(), len(want))
	}
	for _, prefix := range []string{"", "0", "011", "0110", "0111", "01110"} {
		for _, from := range indexBounds(5) {
			var got []PairRecord
			eng.ScanPrefix(prefix, from, func(rec PairRecord) bool {
				got = append(got, rec)
				return true
			})
			var exp []PairRecord
			for _, rec := range want {
				if hasPrefix(rec.Key, prefix) && rec.Key >= from {
					exp = append(exp, rec)
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(exp) {
				t.Fatalf("ScanPrefix(%q, %q) = %v, want %v", prefix, from, got, exp)
			}
		}
	}
	if rec, ok := eng.Get(reborn.Key, reborn.Value); !ok || rec != reborn {
		t.Fatalf("Get(reborn) = %+v, %v", rec, ok)
	}
	if _, ok := eng.Get("01110", "c"); ok {
		t.Fatal("Get found the pair the memtable deleted")
	}
}

// randomOrderedStore returns a persistent store of the engine kind holding
// random pairs: keys of 0 to 8 bits with up to four values each, a key that
// is a proper prefix of another, and, on the disk engine, part of the pairs
// and delete markers in a segment beneath the memtable.
func randomOrderedStore(t *testing.T, kind string, seed int64) *Store {
	t.Helper()
	s, err := OpenStore(t.TempDir(), PersistOptions{Engine: kind})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	rng := rand.New(rand.NewSource(seed))
	mutate := func(n int) {
		for i := 0; i < n; i++ {
			k, v := randomKey(rng, 8), fmt.Sprintf("v%d", rng.Intn(4))
			if rng.Intn(5) == 0 {
				s.Delete(k, v)
			} else {
				s.Insert(Item{Key: k, Value: v})
			}
		}
	}
	for _, ks := range []string{"0110", "01101", "011010"} {
		s.Insert(Item{Key: keyspace.MustFromString(ks), Value: "v0"})
		s.Insert(Item{Key: keyspace.MustFromString(ks), Value: "v1"})
	}
	mutate(200)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mutate(100)
	return s
}

// TestItemsInScanOrder: on both engines, Items(), which no longer sorts,
// is already in the (Key.Compare, value) order sortItems gives.
func TestItemsInScanOrder(t *testing.T) {
	for _, kind := range storeKinds {
		t.Run(kind, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				items := randomOrderedStore(t, kind, seed).Items()
				sorted := append([]Item(nil), items...)
				sortItems(sorted)
				if fmt.Sprint(items) != fmt.Sprint(sorted) {
					t.Fatalf("seed %d: Items() = %v, sorted %v", seed, items, sorted)
				}
			}
		})
	}
}

// TestKeysWithPrefixMatchesFilter: on both engines, KeysWithPrefix(p) is
// Keys().FilterPrefix(p) for every path of depth 0 to 4, the identity that
// keeps construction's split estimates, and so the trie, unchanged.
func TestKeysWithPrefixMatchesFilter(t *testing.T) {
	var paths []keyspace.Path
	for _, b := range indexBounds(4) {
		paths = append(paths, keyspace.Path(b))
	}
	for _, kind := range storeKinds {
		t.Run(kind, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				s := randomOrderedStore(t, kind, seed)
				all := s.Keys()
				for _, p := range paths {
					got, want := s.KeysWithPrefix(p), all.FilterPrefix(p)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("seed %d: KeysWithPrefix(%q) = %v, Keys().FilterPrefix = %v", seed, p, got, want)
					}
				}
			}
		})
	}
}
