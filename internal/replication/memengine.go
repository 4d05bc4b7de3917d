package replication

// The in-memory storage engine: every live pair in one ordered index
// (ordered.go), keyed by (key bit string, value). A scan seeks to its lower
// bound and walks in order, so a prefix scan costs O(log n) plus the records
// it yields, and the exact-key scan (the query hot path) stops at the first
// longer key.

// memEngine implements Engine over an ordered index. It relies on the
// Store's lock for mutual exclusion: concurrent calls are only ever reads.
type memEngine struct {
	idx *orderedIndex[struct{}]
}

// newMemEngine returns an empty in-memory engine.
func newMemEngine() *memEngine {
	return &memEngine{idx: newOrderedIndex[struct{}]()}
}

func (e *memEngine) Get(key, value string) (PairRecord, bool) {
	if ent, ok := e.idx.get(key, value); ok {
		return ent.PairRecord, true
	}
	return PairRecord{}, false
}

// Put upserts the record; the index finds out itself whether it is new.
func (e *memEngine) Put(rec PairRecord, _ bool) {
	e.idx.upsert(indexEntry[struct{}]{PairRecord: rec})
}

func (e *memEngine) Delete(key, value string) (PairRecord, bool) {
	ent, ok := e.idx.remove(key, value)
	return ent.PairRecord, ok
}

func (e *memEngine) ScanPrefix(prefix, from string, fn func(PairRecord) bool) {
	// The keys under prefix are the ones from prefix up to the first key
	// without it.
	e.idx.ascend(max(prefix, from), func(ent *indexEntry[struct{}]) bool {
		return hasPrefix(ent.Key, prefix) && fn(ent.PairRecord)
	})
}

func (e *memEngine) ScanKey(key string, fn func(PairRecord) bool) {
	e.idx.ascend(key, func(ent *indexEntry[struct{}]) bool {
		return ent.Key == key && fn(ent.PairRecord)
	})
}

func (e *memEngine) Len() int { return e.idx.len() }

func (e *memEngine) Close() error { return nil }
