package main

import (
	"fmt"
	"time"

	"pgrid/internal/keyspace"
	"pgrid/internal/replication"
)

// durability is the outcome of reopening every data dir after a run.
type durability struct {
	lost      int     // acked puts not live, or acked deletes live, on a quorum of replicas
	recoverMS float64 // median time to reopen one data dir
}

// maxLogged bounds the failures a run describes on standard error.
const maxLogged = 5

// checkDurability closes the cluster, reopens each peer's data dir with
// replication.OpenStore and requires what the gate acked: every put that was
// not deleted again is live, and every deleted pair is absent, on at least
// the write quorum of the responsible partition's replicas.
func checkDurability(c *cluster, orc *oracle) (durability, error) {
	paths := make([]keyspace.Path, len(c.peers))
	for i, p := range c.peers {
		paths[i] = p.Path()
	}
	spec := c.spec
	c.close()

	var d durability
	var reopen []float64
	stores := make([]*replication.Store, len(c.dataDirs))
	for i, dir := range c.dataDirs {
		t0 := time.Now()
		st, err := replication.OpenStore(dir, replication.PersistOptions{Engine: spec.engine})
		if err != nil {
			return d, fmt.Errorf("reopen %s: %w", dir, err)
		}
		reopen = append(reopen, float64(time.Since(t0))/1e6)
		stores[i] = st
		defer st.Close()
	}
	d.recoverMS = median(reopen)

	quorum := spec.writeQuorum
	if quorum < 1 {
		quorum = 1
	}
	holding := func(p pair, live bool) int {
		key := keyspace.Key{Bits: p.key, Len: keyDepth}
		n := 0
		for i, st := range stores {
			if key.HasPrefix(paths[i]) && st.Live(key, p.value) == live {
				n++
			}
		}
		return n
	}
	for _, p := range orc.livePuts() {
		if holding(p, true) < quorum {
			if d.lost++; d.lost <= maxLogged {
				logf("%s: acked put %s=%q is live on %d replicas after reopen, want %d", spec.name, keyString(p.key), p.value, holding(p, true), quorum)
			}
		}
	}
	for _, p := range orc.ackedDeletes() {
		if holding(p, false) < quorum {
			if d.lost++; d.lost <= maxLogged {
				logf("%s: acked delete %s=%q is absent on %d replicas after reopen, want %d", spec.name, keyString(p.key), p.value, holding(p, false), quorum)
			}
		}
	}
	return d, nil
}
