package harness

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestCrashRecoveryDeltaSync is the process-level crash regression: a
// disk-engine node is SIGKILLed while checkpoint and WAL writes are in
// flight, falls behind while the rest of the fleet keeps mutating, and on
// restart must rejoin through the exact-delta sync path — pinned via the
// pgrid_peer_syncs_total counters (delta observed, never a full rebuild)
// — without resurrecting a key that was deleted while it was down.
func TestCrashRecoveryDeltaSync(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	c, err := New(Options{
		Nodes:     4,
		Engine:    "disk",
		HTTPNodes: 4,
		Seed:      11,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		t.Fatalf("start: %v\n%s", err, c.LogTails(20))
	}
	// The gateway's entry rotation skips a dead entry peer within the
	// request, so the crash victim may stay in the entry set.
	if err := c.StartGate(); err != nil {
		t.Fatalf("gate: %v\n%s", err, c.LogTails(20))
	}

	keys, err := c.LoadKeys("crash", 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitConverged(keys, 60*time.Second); err != nil {
		t.Fatalf("%v\n%s", err, c.LogTails(20))
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)

	// The victim must be a node that actually holds data, or it can
	// legitimately rejoin with nothing to sync: pick the non-bootstrap
	// node with the most stored items.
	victim := c.Nodes[1]
	best := -1.0
	for _, n := range c.Nodes[1:] {
		nm, err := n.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		if items := nm.Value("pgrid_store_items", ""); items > best {
			best, victim = items, n
		}
	}
	if best < 1 {
		t.Fatalf("no non-bootstrap node holds items (best %v); cannot stage a catch-up", best)
	}
	t.Logf("victim: %s holding %v items", victim.proc.name, best)

	// SIGKILL the victim while a writer is actively mutating through the
	// gateway: with -maintain 250ms the victim is mid-checkpoint /
	// mid-WAL-append with high probability, which is exactly the torn
	// state the disk engine must recover from.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key := fmt.Sprintf("%c%c-burst-%04d", 'a'+i%26, 'a'+(i/26)%26, i)
			_ = c.Gate.Put(key, "doc-burst")
			time.Sleep(10 * time.Millisecond)
		}
	}()
	time.Sleep(300 * time.Millisecond)
	if err := victim.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	close(stop)
	wg.Wait()

	// While the victim is down: new keys it has never seen (it must catch
	// up via delta on rejoin) and a delete of a key it still holds live
	// (the tombstone must win on rejoin — resurrection would mean the
	// victim pushed its stale live copy back into the overlay). The late
	// keys are siblings of the originals — same leading characters, so
	// the same partition at encoding depth — which guarantees every
	// data-holding partition, the victim's included, receives writes it
	// missed.
	lateKeys := make(map[string]string, len(sorted))
	for _, k := range sorted {
		sib, val := k+"x", "doc-late-"+k
		if err := c.Gate.Put(sib, val); err != nil {
			t.Fatalf("late put %s: %v", sib, err)
		}
		lateKeys[sib] = val
	}
	deleted, deletedVal := sorted[2], keys[sorted[2]]
	if err := c.Gate.Delete(deleted, deletedVal); err != nil {
		t.Fatal(err)
	}
	delete(keys, deleted)
	for k, v := range lateKeys {
		keys[k] = v
	}
	if err := c.WaitConverged(keys, 60*time.Second); err != nil {
		t.Fatalf("pre-restart convergence: %v\n%s", err, c.LogTails(20))
	}

	// Snapshot the surviving peers' sync classification before the victim
	// returns. Counters count initiator-side syncs only, and any live peer
	// may be the one whose maintenance round catches the victim up, so the
	// rejoin is pinned fleet-wide: the catch-up must appear as a rise in
	// the fleet's delta count with the full-rebuild count flat. The
	// victim's own counters restart at zero so they only ever add.
	fleetSyncs := func() (delta, full float64) {
		for _, n := range c.Nodes {
			if n == victim && !n.Running() {
				continue
			}
			nm, err := n.Metrics()
			if err != nil {
				t.Fatal(err)
			}
			delta += nm.Value("pgrid_peer_syncs_total", `{kind="delta"}`)
			full += nm.Value("pgrid_peer_syncs_total", `{kind="full"}`)
		}
		return delta, full
	}
	beforeDelta, beforeFull := fleetSyncs()

	if err := c.RestartRecovered(victim); err != nil {
		t.Fatal(err)
	}
	if err := victim.WaitListening(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := victim.WaitHTTPReady(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !victim.LogContains("recovered durable state") {
		t.Errorf("victim did not recover durable state:\n%s", victim.logTail(20))
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		delta, full := fleetSyncs()
		if full > beforeFull {
			t.Fatalf("crash rejoin triggered a full rebuild (fleet full syncs %v -> %v), want exact-delta path", beforeFull, full)
		}
		if delta > beforeDelta {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no delta sync observed after rejoin (fleet delta %v -> %v, full %v -> %v)",
				beforeDelta, delta, beforeFull, full)
		}
		time.Sleep(250 * time.Millisecond)
	}

	// The overlay converges with the victim back in, and the key deleted
	// during the outage stays dead.
	if err := c.WaitConverged(keys, 60*time.Second); err != nil {
		t.Fatalf("post-restart convergence: %v\n%s", err, c.LogTails(20))
	}
	if err := c.WaitAbsent(map[string]string{deleted: deletedVal}, 60*time.Second); err != nil {
		t.Errorf("tombstone resurrection after crash rejoin: %v\n%s", err, victim.logTail(30))
	}
}
