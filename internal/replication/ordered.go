package replication

// The ordered in-memory index of the storage engine: a B-tree of pair
// records keyed by (key bit string, value), holding the records inline, 15
// to 31 to a node. The engine's memtable is one — every live pair on the
// resident policy — and a frozen memtable awaiting its flush another. A
// scan seeks to its lower bound and walks in order, so the engine never
// sorts on a read and a prefix scan costs O(log n) plus the records it
// yields; a sorted run, such as the segments a resident store reads back
// at open, is loaded bottom-up (fill).

import "slices"

// indexDegree is the minimum degree of the engines' indexes: a node other
// than the root holds indexDegree-1 to 2·indexDegree-1 records.
const indexDegree = 16

// indexEntry is one record of an index: the pair, plus a payload A kept
// beside it. The engine's memtables store their delete-marker flag there.
type indexEntry[A any] struct {
	aux A
	PairRecord
}

// orderedIndex is a B-tree of entries ordered by pairLess. It is not safe
// for concurrent mutation; concurrent readers are fine.
type orderedIndex[A any] struct {
	root   *indexNode[A] // nil until the first upsert
	degree int           // minimum degree (>= 2)
	n      int
}

// indexNode holds its records in order; an inner node holds one more
// subtree than records, children[i] sorting before items[i].
type indexNode[A any] struct {
	items    []indexEntry[A]
	children []*indexNode[A] // nil in a leaf
}

// newOrderedIndex returns an empty index of the engines' degree.
func newOrderedIndex[A any]() *orderedIndex[A] {
	return &orderedIndex[A]{degree: indexDegree}
}

// len returns the number of entries.
func (t *orderedIndex[A]) len() int { return t.n }

// search returns the position of the first record not before (key, value)
// and whether that record is the pair. The binary search is written out,
// not sort.Search with a closure, because it runs in every descent, and it
// compares each probed record once, three ways.
func (n *indexNode[A]) search(key, value string) (int, bool) {
	lo, hi := 0, len(n.items)
	found := false
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		c := pairCompare(n.items[m].Key, n.items[m].Value, key, value)
		if c < 0 {
			lo = m + 1
		} else {
			hi, found = m, c == 0
		}
	}
	return lo, found
}

// get returns the entry stored for the pair. The pointer is valid until the
// next mutation.
func (t *orderedIndex[A]) get(key, value string) (*indexEntry[A], bool) {
	for n := t.root; n != nil; {
		i, found := n.search(key, value)
		if found {
			return &n.items[i], true
		}
		if n.children == nil {
			break
		}
		n = n.children[i]
	}
	return nil, false
}

// upsert stores the entry, replacing the one of the same pair, and reports
// whether the pair is new. Full nodes are split on the way down, so the
// insertion never has to climb back up.
func (t *orderedIndex[A]) upsert(e indexEntry[A]) bool {
	maxItems := 2*t.degree - 1
	if t.root == nil {
		t.root = &indexNode[A]{}
	} else if len(t.root.items) == maxItems {
		mid, right := t.root.split(t.degree)
		t.root = &indexNode[A]{items: []indexEntry[A]{mid}, children: []*indexNode[A]{t.root, right}}
	}
	n := t.root
	for {
		i, found := n.search(e.Key, e.Value)
		if found {
			n.items[i] = e
			return false
		}
		if n.children == nil {
			n.items = slices.Insert(n.items, i, e)
			t.n++
			return true
		}
		if len(n.children[i].items) == maxItems {
			mid, right := n.children[i].split(t.degree)
			n.items = slices.Insert(n.items, i, mid)
			n.children = slices.Insert(n.children, i+1, right)
			continue // the pair may now be the raised record or belong right of it
		}
		n = n.children[i]
	}
}

// fill loads entries, distinct and in pair order, into the empty index,
// building it bottom-up: each level is cut into as few nodes as hold its
// records, one record between two nodes rising to the level above, so the
// nodes come out nearly full where ordered upserts would leave them half
// full. Each node gets its own copy of its part, so no node keeps entries'
// array, or a neighbour's, alive once it grows.
func (t *orderedIndex[A]) fill(entries []indexEntry[A]) {
	t.n = len(entries)
	items, children := entries, []*indexNode[A](nil) // this level's records and, above the leaves, its subtrees
	for len(items) > 0 {
		maxItems := 2*t.degree - 1
		m := (len(items) + maxItems + 1) / (maxItems + 1) // nodes: ceil((records+1)/(maxItems+1))
		kept := len(items) - (m - 1)
		nodes := make([]*indexNode[A], m)
		raised := make([]indexEntry[A], 0, m-1)
		for j, pos, child := 0, 0, 0; j < m; j++ {
			k := kept / m
			if j < kept%m {
				k++
			}
			n := &indexNode[A]{items: slices.Clone(items[pos : pos+k])}
			if children != nil {
				n.children = slices.Clone(children[child : child+k+1])
				child += k + 1
			}
			nodes[j] = n
			pos += k
			if j < m-1 {
				raised = append(raised, items[pos])
				pos++
			}
		}
		if m == 1 {
			t.root = nodes[0]
			return
		}
		items, children = raised, nodes
	}
}

// split moves the upper half of a full node into a new right sibling and
// returns the middle record, which the caller raises into the parent.
func (n *indexNode[A]) split(degree int) (indexEntry[A], *indexNode[A]) {
	mid := n.items[degree-1]
	right := &indexNode[A]{items: slices.Clone(n.items[degree:])}
	clear(n.items[degree-1:])
	n.items = n.items[:degree-1]
	if n.children != nil {
		right.children = slices.Clone(n.children[degree:])
		clear(n.children[degree:])
		n.children = n.children[:degree]
	}
	return mid, right
}

// remove deletes the pair and returns its entry. Every node the descent
// enters first gets at least degree records, so taking one out never leaves
// a node short and the deletion never has to climb back up.
func (t *orderedIndex[A]) remove(key, value string) (indexEntry[A], bool) {
	if t.root == nil {
		return indexEntry[A]{}, false
	}
	out, ok := t.root.remove(key, value, t.degree)
	if ok {
		t.n--
	}
	// A root emptied by a merge hands over to its only child. An empty leaf
	// root stays, so a store that churns one pair keeps reusing it.
	if len(t.root.items) == 0 && t.root.children != nil {
		t.root = t.root.children[0]
	}
	return out, ok
}

func (n *indexNode[A]) remove(key, value string, degree int) (indexEntry[A], bool) {
	for {
		i, found := n.search(key, value)
		if n.children == nil {
			if !found {
				return indexEntry[A]{}, false
			}
			out := n.items[i]
			n.items = slices.Delete(n.items, i, i+1)
			return out, true
		}
		if len(n.children[i].items) < degree {
			n.grow(i, degree)
			continue // records moved between n and its children: search again
		}
		if found {
			out := n.items[i]
			n.items[i] = n.children[i].removeMax(degree)
			return out, true
		}
		n = n.children[i]
	}
}

// removeMax deletes and returns the last record of the subtree, which holds
// at least degree records.
func (n *indexNode[A]) removeMax(degree int) indexEntry[A] {
	for n.children != nil {
		i := len(n.children) - 1
		if len(n.children[i].items) < degree {
			n.grow(i, degree)
			continue
		}
		n = n.children[i]
	}
	out := n.items[len(n.items)-1]
	n.items = slices.Delete(n.items, len(n.items)-1, len(n.items))
	return out
}

// grow gives child i at least degree records: it rotates one in through n
// from a sibling that can spare one, or merges the child with a sibling and
// the record of n between them.
func (n *indexNode[A]) grow(i, degree int) {
	child := n.children[i]
	if i > 0 && len(n.children[i-1].items) >= degree {
		left := n.children[i-1]
		last := len(left.items) - 1
		child.items = slices.Insert(child.items, 0, n.items[i-1])
		n.items[i-1] = left.items[last]
		left.items = slices.Delete(left.items, last, last+1)
		if left.children != nil {
			child.children = slices.Insert(child.children, 0, left.children[last+1])
			left.children = slices.Delete(left.children, last+1, last+2)
		}
		return
	}
	if i < len(n.items) && len(n.children[i+1].items) >= degree {
		right := n.children[i+1]
		child.items = append(child.items, n.items[i])
		n.items[i] = right.items[0]
		right.items = slices.Delete(right.items, 0, 1)
		if right.children != nil {
			child.children = append(child.children, right.children[0])
			right.children = slices.Delete(right.children, 0, 1)
		}
		return
	}
	if i == len(n.items) {
		i--
		child = n.children[i]
	}
	right := n.children[i+1]
	child.items = append(append(child.items, n.items[i]), right.items...)
	child.children = append(child.children, right.children...)
	n.items = slices.Delete(n.items, i, i+1)
	n.children = slices.Delete(n.children, i+1, i+2)
}

// ascend calls fn on every entry whose key is >= from, in order, until fn
// returns false. fn must not mutate the index.
func (t *orderedIndex[A]) ascend(from string, fn func(*indexEntry[A]) bool) {
	if t.root != nil {
		t.root.ascend(from, fn)
	}
}

func (n *indexNode[A]) ascend(from string, fn func(*indexEntry[A]) bool) bool {
	i, _ := n.search(from, "")
	// Only the subtree the bound falls in needs it; those right of it lie
	// wholly above the bound.
	if n.children != nil && !n.children[i].ascend(from, fn) {
		return false
	}
	for ; i < len(n.items); i++ {
		if !fn(&n.items[i]) {
			return false
		}
		if n.children != nil && !n.children[i+1].ascend("", fn) {
			return false
		}
	}
	return true
}

// indexCursor walks an index in order with one entry of lookahead, the
// shape the engine's k-way merge consumes. The index must not be
// mutated while a cursor is in use.
type indexCursor[A any] struct {
	stack []indexFrame[A] // root to current node; the top frame names the current entry
}

type indexFrame[A any] struct {
	n *indexNode[A]
	i int
}

// seek returns a cursor at the first entry whose key is >= from.
func (t *orderedIndex[A]) seek(from string) *indexCursor[A] {
	c := &indexCursor[A]{}
	c.descend(t.root, from)
	return c
}

// descend pushes the path from n down to the first entry of n's subtree
// whose key is >= from, then settles.
func (c *indexCursor[A]) descend(n *indexNode[A], from string) {
	for n != nil {
		i, _ := n.search(from, "")
		c.stack = append(c.stack, indexFrame[A]{n, i})
		if n.children == nil {
			break
		}
		n = n.children[i]
	}
	c.settle()
}

// settle pops the frames whose nodes are used up, so that the top frame, if
// any, names the next entry.
func (c *indexCursor[A]) settle() {
	for len(c.stack) > 0 {
		top := c.stack[len(c.stack)-1]
		if top.i < len(top.n.items) {
			return
		}
		c.stack = c.stack[:len(c.stack)-1]
	}
}

// peek returns the current entry without consuming it.
func (c *indexCursor[A]) peek() (*indexEntry[A], bool) {
	if len(c.stack) == 0 {
		return nil, false
	}
	top := c.stack[len(c.stack)-1]
	return &top.n.items[top.i], true
}

// advance consumes the current entry: the next one is the first of the
// subtree right of it, or, in a leaf, its right neighbour or an ancestor's.
func (c *indexCursor[A]) advance() {
	top := &c.stack[len(c.stack)-1]
	top.i++
	if top.n.children != nil {
		c.descend(top.n.children[top.i], "")
	} else {
		c.settle()
	}
}
