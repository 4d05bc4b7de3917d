package replication

import (
	"fmt"
	"testing"

	"pgrid/internal/keyspace"
)

// These regression tests pin down that every accessor returning a slice
// hands out freshly allocated memory: callers routinely mutate query results
// (dedupe, sort, re-stamp) and a shared backing array would corrupt the
// store silently — the same class of bug as the DedupeItems aliasing fixed
// in PR 1. Each test clobbers the returned slice and verifies the store
// still serves the original content.

// populatedStore builds a store with live items across both halves of the
// key space plus a few tombstones.
func populatedStore() *Store {
	s := NewStore()
	for i := 0; i < 16; i++ {
		s.Insert(Item{Key: fkey(float64(i) / 16), Value: fmt.Sprintf("v%d", i)})
	}
	s.Delete(fkey(1.0/16), "v1")
	s.Delete(fkey(9.0/16), "v9")
	return s
}

// clobber overwrites every item of the slice with garbage.
func clobber(items []Item) {
	for i := range items {
		items[i] = Item{Key: fkey(0.999), Value: "clobbered", Gen: 1 << 40}
	}
}

func TestAccessorAliasing(t *testing.T) {
	type access struct {
		name string
		get  func(s *Store) []Item
	}
	accessors := []access{
		{"Items", func(s *Store) []Item { return s.Items() }},
		{"Lookup", func(s *Store) []Item { return s.Lookup(fkey(2.0 / 16)) }},
		{"ItemsWithPrefix", func(s *Store) []Item { return s.ItemsWithPrefix("0") }},
		{"ItemsInRange", func(s *Store) []Item {
			return s.ItemsInRange(keyspace.NewRange(fkey(0), fkey(0.75)))
		}},
		{"Tombstones", func(s *Store) []Item { return s.Tombstones() }},
		{"TombstonesWithPrefix", func(s *Store) []Item { return s.TombstonesWithPrefix("0") }},
		{"DeltaItems", func(s *Store) []Item { items, _, _ := s.DeltaSince(0); return items }},
		{"DeltaTombs", func(s *Store) []Item { _, tombs, _ := s.DeltaSince(0); return tombs }},
		{"ContentWithinItems", func(s *Store) []Item {
			items, _ := s.ContentWithin([]keyspace.Path{"0", "1"})
			return items
		}},
		{"ContentWithinTombs", func(s *Store) []Item {
			_, tombs := s.ContentWithin([]keyspace.Path{"0", "1"})
			return tombs
		}},
	}
	for _, a := range accessors {
		t.Run(a.name, func(t *testing.T) {
			s := populatedStore()
			before := a.get(s)
			if len(before) == 0 {
				t.Fatalf("%s returned nothing; test is vacuous", a.name)
			}
			hBefore, nBefore := s.Digest(keyspace.Root)
			clobber(a.get(s))
			after := a.get(s)
			if len(after) != len(before) {
				t.Fatalf("%s length changed after clobbering the returned slice", a.name)
			}
			for i := range after {
				if after[i] != before[i] {
					t.Fatalf("%s[%d] changed after clobbering the returned slice: %v -> %v",
						a.name, i, before[i], after[i])
				}
			}
			hAfter, nAfter := s.Digest(keyspace.Root)
			if hBefore != hAfter || nBefore != nAfter {
				t.Fatalf("%s: store digest changed after clobbering the returned slice", a.name)
			}
		})
	}
}

// TestRemovePrefixReturnsDetachedSlice checks the hand-over paths: the items
// returned by RemovePrefix/RetainPrefix no longer belong to the store, so
// mutating them must not affect what the store still holds.
func TestRemovePrefixReturnsDetachedSlice(t *testing.T) {
	s := populatedStore()
	removed := s.RemovePrefix("0")
	if len(removed) == 0 {
		t.Fatal("nothing removed; test is vacuous")
	}
	clobber(removed)
	for _, it := range s.Items() {
		if it.Value == "clobbered" {
			t.Fatal("clobbering RemovePrefix result corrupted remaining items")
		}
	}
	rest := s.RetainPrefix("11")
	clobber(rest)
	for _, it := range s.Items() {
		if it.Value == "clobbered" {
			t.Fatal("clobbering RetainPrefix result corrupted remaining items")
		}
	}
}

// TestKeysDetached pins the same guarantee for the key listing.
func TestKeysDetached(t *testing.T) {
	s := populatedStore()
	keys := s.Keys()
	if len(keys) == 0 {
		t.Fatal("no keys; test is vacuous")
	}
	for i := range keys {
		keys[i] = fkey(0.42)
	}
	fresh := s.Keys()
	seen := map[string]bool{}
	for _, k := range fresh {
		seen[k.String()] = true
	}
	if len(seen) != len(fresh) {
		t.Fatal("clobbering Keys result corrupted the store's key set")
	}
}
