package harness

import (
	"os"
	"sort"
	"testing"
	"time"
)

// TestChurnCrash50Proc is the flagship process-level suite: 52 real
// pgridnode processes (50+ per the roadmap target, plus headroom for the
// spared gateway entry peers) bootstrapped over the pooled TCP transport,
// loaded with keys spread across partitions, then put through rolling
// SIGKILL waves that crash a third of the fleet per wave and rejoin each
// victim with its original address and data dir. After the churn the
// overlay must reconverge on every surviving key and every pre-churn
// delete must stay dead — on both storage engines.
//
// The suite spawns >100 process starts and runs for minutes, so it is
// opt-in: set PGRID_PROC=1 (the nightly churn job does).
func TestChurnCrash50Proc(t *testing.T) {
	if os.Getenv("PGRID_PROC") == "" {
		t.Skip("set PGRID_PROC=1 to run the 50-process churn suite")
	}
	for _, engine := range []string{"mem", "disk"} {
		t.Run(engine, func(t *testing.T) {
			runChurnCrash(t, engine)
		})
	}
}

func runChurnCrash(t *testing.T, engine string) {
	c, err := New(Options{
		Nodes:     52,
		Engine:    engine,
		Durable:   true,
		HTTPNodes: 1,
		Seed:      31,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		t.Fatalf("start: %v\n%s", err, c.LogTails(20))
	}
	// Entry peers 0-2 are spared from churn so reads keep flowing
	// mid-wave; everything behind them is fair game.
	spare := []int{0, 1, 2}
	if err := c.StartGate(spare...); err != nil {
		t.Fatalf("gate: %v\n%s", err, c.LogTails(20))
	}

	keys, err := c.LoadKeys("churn", 60)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitConverged(keys, 120*time.Second); err != nil {
		t.Fatalf("pre-churn convergence: %v\n%s", err, c.LogTails(20))
	}

	// Delete a slice of the keys before the churn; their tombstones must
	// survive every crash/rejoin wave.
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	deleted := make(map[string]string, 6)
	for i := 0; i < len(sorted); i += 10 {
		k := sorted[i]
		if err := c.Gate.Delete(k, keys[k]); err != nil {
			t.Fatalf("delete %s: %v", k, err)
		}
		deleted[k] = keys[k]
		delete(keys, k)
	}
	if err := c.WaitAbsent(deleted, 60*time.Second); err != nil {
		t.Fatalf("pre-churn deletes: %v\n%s", err, c.LogTails(20))
	}

	rep, err := c.Churn(ChurnOptions{
		Rounds:   3,
		Fraction: 1.0 / 3,
		DownFor:  1 * time.Second,
		Spare:    spare,
	})
	if err != nil {
		t.Fatalf("churn (%d killed, %d restarted so far): %v\n%s", rep.Killed, rep.Restarts, err, c.LogTails(20))
	}
	t.Logf("churn: %d waves, %d SIGKILLs, %d rejoins across %d nodes", rep.Waves, rep.Killed, rep.Restarts, len(c.Nodes))
	if rep.Killed < 16*3 {
		t.Errorf("churn killed only %d processes, want a third of the fleet per wave", rep.Killed)
	}
	if got := c.Running(); got != len(c.Nodes) {
		t.Fatalf("%d/%d nodes running after churn", got, len(c.Nodes))
	}

	if err := c.WaitConverged(keys, 240*time.Second); err != nil {
		t.Fatalf("post-churn convergence: %v\n%s", err, c.LogTails(30))
	}
	if err := c.WaitAbsent(deleted, 120*time.Second); err != nil {
		t.Errorf("post-churn resurrection: %v\n%s", err, c.LogTails(30))
	}

	// The fleet-wide metrics view stays scrapeable after the churn.
	nm, err := c.Nodes[0].Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if v := nm.Value("pgrid_store_clock", ""); v < 1 {
		t.Errorf("node 0 store clock %v after churn workload", v)
	}
}
