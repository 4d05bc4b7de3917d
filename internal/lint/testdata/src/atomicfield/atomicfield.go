// Package atomicfield is the atomicfield analyzer fixture: fields of
// atomic types may only be used through their accessor methods.
package atomicfield

import "sync/atomic"

type metrics struct {
	hits   atomic.Uint64
	inward atomic.Int64
	counts [2]atomic.Uint64
	plain  int64 // not atomic: raw access is fine
}

func accessors(m *metrics) (uint64, int64) {
	m.hits.Add(1)      // accessor call: fine
	m.inward.Add(1)    // accessor call: fine
	m.counts[1].Add(1) // accessor call on an element: fine
	p := &m.hits       // address taken: passing the atomic by pointer is fine
	p.Add(1)
	q := &m.counts[0] // address of an element: fine
	q.Add(1)
	m.plain = 7 // non-atomic field: fine
	return m.hits.Load() + m.counts[0].Load(), m.inward.Load()
}

func violations(m *metrics, other *metrics) {
	v := m.hits // want `raw read of atomic field atomicfield.metrics.hits copies it non-atomically`
	_ = v
	n := m.inward.Load() + 1
	m.inward = atomic.Int64{} // want `raw assignment to atomic field atomicfield.metrics.inward`
	_ = n
	if m.inward == other.inward { // want `raw read of atomic field` `raw read of atomic field`
		return
	}
	c := m.counts[0] // want `raw read of atomic field atomicfield.metrics.counts`
	_ = c
	m.counts[1] = atomic.Uint64{} // want `raw assignment to atomic field atomicfield.metrics.counts`
	all := m.counts               // want `raw read of atomic field atomicfield.metrics.counts`
	_ = all
}

func allowed(m *metrics) {
	//pgridvet:allow atomicfield snapshot taken under the registry's own lock
	v := m.hits
	_ = v
}
