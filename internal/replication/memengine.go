package replication

// The in-memory storage engine: the flat map the Store grew up with, now
// isolated behind the Engine interface. Buckets are keyed by key bit string
// and hold the (typically very few) values of that key in insertion order;
// scans sort on demand, which keeps Put/Delete allocation-free and the exact
//-key prefix scan (the query hot path) a single bucket copy.

import "sort"

// memEngine implements Engine over a map of per-key buckets. It relies on
// the Store's lock for mutual exclusion: concurrent calls are only ever
// reads.
type memEngine struct {
	buckets map[string][]PairRecord
	n       int
}

// newMemEngine returns an empty in-memory engine.
func newMemEngine() *memEngine {
	return &memEngine{buckets: make(map[string][]PairRecord)}
}

func (e *memEngine) Get(key, value string) (PairRecord, bool) {
	for _, rec := range e.buckets[key] {
		if rec.Value == value {
			return rec, true
		}
	}
	return PairRecord{}, false
}

func (e *memEngine) Put(rec PairRecord, isNew bool) {
	if !isNew {
		b := e.buckets[rec.Key]
		for i := range b {
			if b[i].Value == rec.Value {
				b[i] = rec
				return
			}
		}
	}
	e.buckets[rec.Key] = append(e.buckets[rec.Key], rec)
	e.n++
}

func (e *memEngine) Delete(key, value string) (PairRecord, bool) {
	b := e.buckets[key]
	for i, rec := range b {
		if rec.Value == value {
			b[i] = b[len(b)-1]
			b = b[:len(b)-1]
			if len(b) == 0 {
				delete(e.buckets, key)
			} else {
				e.buckets[key] = b
			}
			e.n--
			return rec, true
		}
	}
	return PairRecord{}, false
}

func (e *memEngine) ScanPrefix(prefix, from string, fn func(PairRecord) bool) {
	// The exact key sorts before every strict extension, so its bucket is
	// emitted first — and an exact-key consumer that stops early (Lookup)
	// never pays for collecting the longer keys.
	if prefix >= from && !e.emitBucket(prefix, fn) {
		return
	}
	// Keys below from are dropped before the sort, so a range read sorts
	// only the keys it may return.
	var keys []string
	for ks := range e.buckets {
		if len(ks) > len(prefix) && ks >= from && hasPrefix(ks, prefix) {
			keys = append(keys, ks)
		}
	}
	sort.Strings(keys)
	for _, ks := range keys {
		if !e.emitBucket(ks, fn) {
			return
		}
	}
}

// emitBucket streams one key's records in value order; it reports whether
// the scan should continue.
func (e *memEngine) emitBucket(ks string, fn func(PairRecord) bool) bool {
	b := e.buckets[ks]
	switch len(b) {
	case 0:
		return true
	case 1:
		return fn(b[0])
	}
	recs := append([]PairRecord(nil), b...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].Value < recs[j].Value })
	for _, rec := range recs {
		if !fn(rec) {
			return false
		}
	}
	return true
}

func (e *memEngine) ScanKey(key string, fn func(PairRecord) bool) {
	e.emitBucket(key, fn)
}

func (e *memEngine) Len() int { return e.n }

func (e *memEngine) Close() error { return nil }
