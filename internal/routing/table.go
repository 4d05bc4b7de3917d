// Package routing implements the P-Grid routing table and prefix routing
// (Section 2.1): a peer with path π keeps, for every bit position i of its
// path, one or more randomly selected references to peers whose paths agree
// with π on the first i bits and have the complementary bit at position i.
// The routing tables of all peers together represent the partition trie in a
// distributed fashion; a query for a key is resolved bit by bit, forwarding
// to a referenced peer as soon as the key diverges from the local path.
package routing

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"pgrid/internal/intern"
	"pgrid/internal/keyspace"
	"pgrid/internal/network"
	"pgrid/internal/xrand"
)

// DefaultMaxRefs is the default number of references kept per level;
// multiple references provide alternative access paths when peers fail
// (the paper's first use of replication).
const DefaultMaxRefs = 3

// Ref is a routing reference: the address of a peer known (at insertion
// time) to be responsible for the complementary sub-tree at some level.
type Ref struct {
	Addr network.Addr
	// Path is the referenced peer's path as last observed; it may be stale.
	Path keyspace.Path
}

// Table is a peer's routing table. It is safe for concurrent use: the
// overlay protocol reads it from query handlers while construction and
// maintenance update it.
type Table struct {
	mu sync.RWMutex
	// owner is the owning peer's own address; references to it are ignored
	// so queries never loop back to their origin.
	owner network.Addr
	// path is the owner's current path.
	path keyspace.Path
	// levels[i] holds references into the complementary sub-tree at bit i.
	levels [][]Ref
	// maxRefs bounds the number of references per level.
	maxRefs int
	// rng drives random reference selection and eviction.
	rng *rand.Rand
}

// New creates an empty routing table for a peer currently at the root path.
func New(maxRefs int, seed int64) *Table {
	if maxRefs <= 0 {
		maxRefs = DefaultMaxRefs
	}
	return &Table{maxRefs: maxRefs, rng: xrand.New(seed)}
}

// SetOwner records the owning peer's address so that references to it are
// silently dropped (a peer never needs to route to itself).
func (t *Table) SetOwner(a network.Addr) {
	t.mu.Lock()
	t.owner = a
	t.mu.Unlock()
}

// Path returns the owner's current path.
func (t *Table) Path() keyspace.Path {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.path
}

// SetPath updates the owner's path. Extending the path keeps existing
// levels; shortening it truncates the table accordingly.
func (t *Table) SetPath(p keyspace.Path) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.path = keyspace.Path(intern.String(string(p)))
	if len(t.levels) > len(p) {
		t.levels = t.levels[:len(p)]
	}
	for len(t.levels) < len(p) {
		t.levels = append(t.levels, nil)
	}
}

// Extend appends one bit to the owner's path and records the given
// reference (typically the peer encountered in the split) at the new level.
func (t *Table) Extend(bit int, ref Ref) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.path = keyspace.Path(intern.String(string(t.path.Child(bit))))
	t.levels = append(t.levels, nil)
	t.addLocked(len(t.path)-1, ref)
}

// Add records a reference at the given level (0-based bit position of the
// owner's path). References beyond the owner's current path depth are
// ignored; duplicates update the stored path.
func (t *Table) Add(level int, ref Ref) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addLocked(level, ref)
}

func (t *Table) addLocked(level int, ref Ref) {
	if level < 0 || level >= len(t.path) || ref.Addr == "" || ref.Addr == t.owner {
		return
	}
	// Addresses and paths are drawn from a small shared population (the
	// cluster's peers and trie partitions) but arrive as per-message copies;
	// interning collapses every table's refs onto one canonical allocation
	// per distinct value, which is most of the per-peer routing footprint
	// in large in-process simulations.
	ref.Addr = network.Addr(intern.String(string(ref.Addr)))
	ref.Path = keyspace.Path(intern.String(string(ref.Path)))
	for len(t.levels) <= level {
		t.levels = append(t.levels, nil)
	}
	refs := t.levels[level]
	for i := range refs {
		if refs[i].Addr == ref.Addr {
			refs[i].Path = ref.Path
			return
		}
	}
	if len(refs) < t.maxRefs {
		t.levels[level] = append(refs, ref)
		return
	}
	// Table full at this level: replace a random existing entry, which both
	// bounds the table size and randomizes references over time as the
	// paper's maintenance does.
	refs[t.rng.Intn(len(refs))] = ref
}

// Refs returns a copy of the references at the given level.
func (t *Table) Refs(level int) []Ref {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if level < 0 || level >= len(t.levels) {
		return nil
	}
	return append([]Ref(nil), t.levels[level]...)
}

// Levels returns the owner's path depth, i.e. the number of levels.
func (t *Table) Levels() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.path)
}

// Random returns a uniformly random reference at the given level, or false
// if the level is empty.
func (t *Table) Random(level int) (Ref, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if level < 0 || level >= len(t.levels) || len(t.levels[level]) == 0 {
		return Ref{}, false
	}
	refs := t.levels[level]
	return refs[t.rng.Intn(len(refs))], true
}

// Remove drops a (stale) reference from every level it appears on.
func (t *Table) Remove(addr network.Addr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for l, refs := range t.levels {
		keep := refs[:0]
		for _, r := range refs {
			if r.Addr != addr {
				keep = append(keep, r)
			}
		}
		t.levels[l] = keep
	}
}

// NextHop returns a reference to forward a query for the given key to,
// together with the level at which the key diverges from the owner's path.
// If the key does not diverge (the owner is responsible) ok is false.
func (t *Table) NextHop(key keyspace.Key) (ref Ref, level int, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	level = divergenceLevel(t.path, key)
	if level < 0 {
		return Ref{}, -1, false
	}
	// Prefer the divergence level; fall back to any earlier level that has
	// references (the routing invariant guarantees progress as long as some
	// reference towards the complementary sub-tree exists).
	if level < len(t.levels) && len(t.levels[level]) > 0 {
		refs := t.levels[level]
		return refs[t.rng.Intn(len(refs))], level, true
	}
	return Ref{}, level, false
}

// divergenceLevel returns the first bit position where key differs from
// path, or -1 when the key matches the whole path (the owner is
// responsible for it).
func divergenceLevel(path keyspace.Path, key keyspace.Key) int {
	for i := 0; i < len(path); i++ {
		if i >= key.Len {
			return -1
		}
		if key.Bit(i) != path.Bit(i) {
			return i
		}
	}
	return -1
}

// Responsible reports whether the owner's partition covers the key.
func (t *Table) Responsible(key keyspace.Key) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return divergenceLevel(t.path, key) < 0
}

// MergeFrom copies the other peer's references for all levels both peers
// share (i.e. up to the length of their common prefix), which is how peers
// exchange routing information during encounters to add redundancy and
// randomization (Figure 2, possibility 3).
func (t *Table) MergeFrom(otherPath keyspace.Path, otherRefs [][]Ref) {
	t.mu.Lock()
	defer t.mu.Unlock()
	common := t.path.CommonPrefixLen(otherPath)
	for l := 0; l < common && l < len(otherRefs); l++ {
		for _, r := range otherRefs[l] {
			t.addLocked(l, r)
		}
	}
}

// Snapshot returns the owner's path and a deep copy of all levels, for
// exchanging routing state with another peer.
func (t *Table) Snapshot() (keyspace.Path, [][]Ref) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	levels := make([][]Ref, len(t.levels))
	for i, refs := range t.levels {
		levels[i] = append([]Ref(nil), refs...)
	}
	return t.path, levels
}

// String renders the table compactly.
func (t *Table) String() string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var b strings.Builder
	fmt.Fprintf(&b, "path=%s", t.path.String())
	for l, refs := range t.levels {
		addrs := make([]string, len(refs))
		for i, r := range refs {
			addrs[i] = string(r.Addr)
		}
		sort.Strings(addrs)
		fmt.Fprintf(&b, " L%d:[%s]", l, strings.Join(addrs, ","))
	}
	return b.String()
}
