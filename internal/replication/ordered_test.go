package replication

// Tests of the ordered index (ordered.go) against a sorted-slice oracle, at
// small degrees so that node splits, rotations, merges and root collapses
// all happen on a few dozen pairs.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// indexOracle is the sorted slice the index must agree with.
type indexOracle []indexEntry[int]

func (o *indexOracle) search(key, value string) (int, bool) {
	return slices.BinarySearchFunc(*o, indexEntry[int]{PairRecord: PairRecord{Key: key, Value: value}}, func(a, b indexEntry[int]) int {
		switch {
		case pairLess(a.Key, a.Value, b.Key, b.Value):
			return -1
		case pairLess(b.Key, b.Value, a.Key, a.Value):
			return 1
		}
		return 0
	})
}

func (o *indexOracle) upsert(e indexEntry[int]) bool {
	i, found := o.search(e.Key, e.Value)
	if found {
		(*o)[i] = e
		return false
	}
	*o = slices.Insert(*o, i, e)
	return true
}

func (o *indexOracle) remove(key, value string) (indexEntry[int], bool) {
	i, found := o.search(key, value)
	if !found {
		return indexEntry[int]{}, false
	}
	e := (*o)[i]
	*o = slices.Delete(*o, i, i+1)
	return e, true
}

// indexBounds returns every bit string of up to maxLen bits: the lower
// bounds an index is checked from.
func indexBounds(maxLen int) []string {
	var out []string
	for n := 0; n <= maxLen; n++ {
		for b := 0; b < 1<<n; b++ {
			out = append(out, fmt.Sprintf("%0*b", n, b)[:n])
		}
	}
	return out
}

// checkIndexShape verifies the B-tree invariants: records in order, every
// node but the root holding degree-1 to 2·degree-1 records, one more child
// than records in inner nodes, all leaves at one depth. It returns the
// tree's height and node count.
func checkIndexShape(t *testing.T, idx *orderedIndex[int]) (height, nodes int) {
	t.Helper()
	leafDepth := -1
	var prev *indexEntry[int]
	var walk func(n *indexNode[int], depth int)
	walk = func(n *indexNode[int], depth int) {
		nodes++
		if n != idx.root && (len(n.items) < idx.degree-1 || len(n.items) > 2*idx.degree-1) {
			t.Fatalf("node at depth %d holds %d records, degree %d", depth, len(n.items), idx.degree)
		}
		if n.children == nil {
			if leafDepth == -1 {
				leafDepth = depth
			} else if depth != leafDepth {
				t.Fatalf("leaves at depths %d and %d", leafDepth, depth)
			}
		} else if len(n.children) != len(n.items)+1 {
			t.Fatalf("inner node with %d records has %d children", len(n.items), len(n.children))
		}
		for i := range n.items {
			if n.children != nil {
				walk(n.children[i], depth+1)
			}
			if prev != nil && !pairLess(prev.Key, prev.Value, n.items[i].Key, n.items[i].Value) {
				t.Fatalf("records out of order: (%q,%q) then (%q,%q)", prev.Key, prev.Value, n.items[i].Key, n.items[i].Value)
			}
			prev = &n.items[i]
		}
		if n.children != nil {
			walk(n.children[len(n.items)], depth+1)
		}
	}
	if idx.root == nil {
		return 0, 0
	}
	if len(idx.root.items) == 0 && idx.root.children != nil {
		t.Fatal("empty inner root left in place")
	}
	walk(idx.root, 1)
	return leafDepth, nodes
}

// checkIndex compares the index with the oracle: its length, and both an
// ascend and a cursor from every bound, entry for entry.
func checkIndex(t *testing.T, idx *orderedIndex[int], o indexOracle, bounds []string) {
	t.Helper()
	if idx.len() != len(o) {
		t.Fatalf("len = %d, oracle holds %d", idx.len(), len(o))
	}
	for _, from := range bounds {
		i, _ := o.search(from, "")
		want := o[i:]
		var got []indexEntry[int]
		idx.ascend(from, func(e *indexEntry[int]) bool {
			got = append(got, *e)
			return true
		})
		if !slices.Equal(got, want) {
			t.Fatalf("ascend(%q) = %v, want %v", from, got, want)
		}
		got = got[:0]
		for c := idx.seek(from); ; c.advance() {
			e, ok := c.peek()
			if !ok {
				break
			}
			got = append(got, *e)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("cursor from %q = %v, want %v", from, got, want)
		}
		if stop := len(want)/2 + 1; stop < len(want) {
			n := 0
			idx.ascend(from, func(*indexEntry[int]) bool { n++; return n < stop })
			if n != stop {
				t.Fatalf("ascend(%q) visited %d entries, fn returned false at %d", from, n, stop)
			}
		}
	}
}

// TestOrderedIndexMatchesOracle drives indexes of degree 2 and 3 through
// seeded random upserts, removes and gets of keys up to four bits long with
// three values each, growing them, deleting them down to empty and filling
// them again. After every step the index must match the oracle and keep its
// shape; along the way it must grow to three levels and fall again, and merges
// must shrink its node count.
func TestOrderedIndexMatchesOracle(t *testing.T) {
	bounds := indexBounds(5)
	for _, degree := range []int{2, 3} {
		t.Run(fmt.Sprintf("degree%d", degree), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(31 + degree)))
			idx := &orderedIndex[int]{degree: degree}
			var o indexOracle
			var maxHeight, collapses, merges, emptied int
			step := 0
			randomPair := func() (string, string) {
				return fmt.Sprintf("%04b", rng.Intn(16))[:rng.Intn(5)], fmt.Sprintf("v%d", rng.Intn(3))
			}
			// apply runs one random operation. Draining removes only pairs the
			// oracle holds, so the index empties.
			apply := func(upsertPct int, drain bool) {
				step++
				k, v := randomPair()
				if drain {
					e := o[rng.Intn(len(o))]
					k, v = e.Key, e.Value
				}
				height, nodes := checkIndexShape(t, idx)
				switch r := rng.Intn(100); {
				case r < upsertPct:
					e := indexEntry[int]{aux: step, PairRecord: PairRecord{Key: k, Value: v, Ver: uint64(step)}}
					if got, want := idx.upsert(e), o.upsert(e); got != want {
						t.Fatalf("step %d: upsert(%q,%q) reported new=%v, oracle %v", step, k, v, got, want)
					}
				case r < 90:
					got, gotOK := idx.remove(k, v)
					want, wantOK := o.remove(k, v)
					if gotOK != wantOK || got != want {
						t.Fatalf("step %d: remove(%q,%q) = %v %v, oracle %v %v", step, k, v, got, gotOK, want, wantOK)
					}
				default:
					got, gotOK := idx.get(k, v)
					i, wantOK := o.search(k, v)
					if gotOK != wantOK || (gotOK && *got != o[i]) {
						t.Fatalf("step %d: get(%q,%q) = %v, oracle has it: %v", step, k, v, gotOK, wantOK)
					}
				}
				newHeight, newNodes := checkIndexShape(t, idx)
				maxHeight = max(maxHeight, newHeight)
				if newHeight < height {
					collapses++
				}
				if newNodes < nodes {
					merges++
				}
				checkIndex(t, idx, o, bounds)
			}
			for cycle := 0; cycle < 3; cycle++ {
				for len(o) < 60 {
					apply(75, false)
				}
				for i := 0; i < 150; i++ {
					apply(50, false)
				}
				for len(o) > 0 {
					apply(0, true)
				}
				if idx.root.children != nil {
					t.Fatal("emptied index keeps inner nodes")
				}
				if _, ok := idx.remove("", "v0"); ok || idx.len() != 0 {
					t.Fatal("remove from the emptied index found a pair")
				}
				emptied++
			}
			t.Logf("%d steps, height up to %d, %d root collapses, %d node-count drops", step, maxHeight, collapses, merges)
			if maxHeight < 3 || collapses == 0 || merges == 0 || emptied != 3 {
				t.Fatalf("cases not covered: height %d, %d collapses, %d node-count drops", maxHeight, collapses, merges)
			}
		})
	}
}

// TestOrderedIndexFill: an index filled from sorted entries keeps the
// B-tree shape at degrees 2 to 5 and every size up to 250, holds exactly
// the entries, and stays right under the upserts and removes that follow:
// the pairs filled are every other one, and the ones between them go into
// the filled nodes. The filled array is cleared after the fill, so a node
// that kept a part of it instead of a copy fails the first check.
func TestOrderedIndexFill(t *testing.T) {
	bounds := indexBounds(5)
	rng := rand.New(rand.NewSource(37))
	var all indexOracle
	for b := 0; b < 1<<9; b++ {
		k := fmt.Sprintf("%09b", b)
		all.upsert(indexEntry[int]{aux: b, PairRecord: PairRecord{Key: k[:rng.Intn(10)], Value: k}})
	}
	for degree := 2; degree <= 5; degree++ {
		for n := 0; n <= 250; n += 1 + n/8 {
			var o indexOracle
			for i := 0; i < 2*n; i += 2 {
				o = append(o, all[i])
			}
			idx := &orderedIndex[int]{degree: degree}
			in := slices.Clone(o)
			idx.fill(in)
			clear(in)
			checkIndexShape(t, idx)
			checkIndex(t, idx, o, bounds)
			for _, i := range rng.Perm(2 * n) {
				e := all[i]
				e.aux = -i
				if i%5 == 4 {
					got, gotOK := idx.remove(e.Key, e.Value)
					want, wantOK := o.remove(e.Key, e.Value)
					if gotOK != wantOK || got != want {
						t.Fatalf("degree %d, %d filled: remove(%q,%q) = %v %v, oracle %v %v", degree, n, e.Key, e.Value, got, gotOK, want, wantOK)
					}
				} else if got, want := idx.upsert(e), o.upsert(e); got != want {
					t.Fatalf("degree %d, %d filled: upsert(%q,%q) reported new=%v, oracle %v", degree, n, e.Key, e.Value, got, want)
				}
			}
			checkIndexShape(t, idx)
			checkIndex(t, idx, o, bounds)
		}
	}
}

// FuzzOrderedIndex runs the oracle comparison on operations read from the
// fuzz bytes, two bytes an operation. The first byte picks the degree (2 to
// 5). In an operation's first byte, the low two bits choose upsert (0, 1),
// remove (2) or get (3), the next three the key length (up to 4 bits, taken
// from the second byte) and the next two the value.
func FuzzOrderedIndex(f *testing.F) {
	f.Add([]byte{0, 0x04, 0x00, 0x08, 0x40, 0x0c, 0x80, 0x10, 0xc0, 0x02, 0x40, 0x06, 0x00})
	f.Add([]byte{1, 0x10, 0x10, 0x30, 0x20, 0x50, 0x30, 0x70, 0x40, 0x12, 0x10, 0x32, 0x20, 0x52, 0x30})
	f.Add([]byte{3, 0x01, 0xff, 0x11, 0xf0, 0x21, 0x0f, 0x13, 0xf0, 0x22, 0x0f})
	bounds := indexBounds(5)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		if len(ops) > 401 {
			ops = ops[:401]
		}
		idx := &orderedIndex[int]{degree: 2 + int(ops[0]%4)}
		var o indexOracle
		for i := 1; i+1 < len(ops); i += 2 {
			op := ops[i]
			k := fmt.Sprintf("%08b", ops[i+1])[:min(int(op>>2&7), 4)]
			v := fmt.Sprintf("v%d", op>>5&3)
			switch op & 3 {
			case 0, 1:
				e := indexEntry[int]{aux: i, PairRecord: PairRecord{Key: k, Value: v}}
				if got, want := idx.upsert(e), o.upsert(e); got != want {
					t.Fatalf("op %d: upsert(%q,%q) reported new=%v, oracle %v", i, k, v, got, want)
				}
			case 2:
				got, gotOK := idx.remove(k, v)
				want, wantOK := o.remove(k, v)
				if gotOK != wantOK || got != want {
					t.Fatalf("op %d: remove(%q,%q) = %v %v, oracle %v %v", i, k, v, got, gotOK, want, wantOK)
				}
			case 3:
				_, gotOK := idx.get(k, v)
				if _, wantOK := o.search(k, v); gotOK != wantOK {
					t.Fatalf("op %d: get(%q,%q) = %v, oracle %v", i, k, v, gotOK, wantOK)
				}
			}
			checkIndexShape(t, idx)
		}
		checkIndex(t, idx, o, bounds)
	})
}
