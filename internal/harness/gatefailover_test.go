package harness

import (
	"fmt"
	"net/http"
	"testing"
	"time"
)

// TestGateFailoverRealProcessDeath pins the gateway's behaviour when its
// RemoteBackend loses every entry peer to real process death: requests
// answer 503 with a Retry-After hint while the peers are down, and the
// gateway recovers on its own — same process, no restart — once the
// peers come back.
func TestGateFailoverRealProcessDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	c, err := New(Options{
		Nodes:     5,
		Durable:   true,
		HTTPNodes: 1,
		Seed:      23,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		t.Fatalf("start: %v\n%s", err, c.LogTails(20))
	}
	// Entry peers are nodes 1 and 2 only, so killing exactly those two
	// severs the gateway from the overlay while nodes 0, 3, 4 keep it
	// alive and holding data.
	if err := c.StartGate(1, 2); err != nil {
		t.Fatalf("gate: %v\n%s", err, c.LogTails(20))
	}

	keys, err := c.LoadKeys("failover", 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitConverged(keys, 60*time.Second); err != nil {
		t.Fatalf("%v\n%s", err, c.LogTails(20))
	}

	for _, idx := range []int{1, 2} {
		if err := c.Nodes[idx].Kill(); err != nil {
			t.Fatalf("kill node %d: %v", idx, err)
		}
	}

	// Fresh keys per probe so no cache layer can answer for the dead
	// overlay. The gateway must shed with 503 + Retry-After, not hang or
	// crash.
	saw503 := false
	for i := 0; i < 20 && !saw503; i++ {
		res, err := c.Gate.Search(fmt.Sprintf("zz-down-probe-%02d", i))
		if err != nil {
			t.Fatalf("gate transport error while peers down: %v", err)
		}
		switch res.Status {
		case http.StatusServiceUnavailable:
			saw503 = true
			if res.RetryAfter == "" {
				t.Error("503 during entry-peer outage carries no Retry-After header")
			}
		case http.StatusGatewayTimeout:
			// A probe that raced an in-flight connection can time out
			// instead; keep sampling.
		default:
			t.Fatalf("search with all entry peers dead: status %d, want 503", res.Status)
		}
		time.Sleep(200 * time.Millisecond)
	}
	if !saw503 {
		t.Fatal("gateway never answered 503 while all entry peers were dead")
	}
	gm, err := c.Gate.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if v := gm.Sum("pgrid_gate_requests_total", `route="search"`, `code="503"`); v < 1 {
		t.Errorf("gate 503 counter %v, want >= 1", v)
	}

	// Bring the entry peers back; the same gateway process must recover
	// by itself.
	for _, idx := range []int{1, 2} {
		if err := c.Nodes[idx].Restart(); err != nil {
			t.Fatalf("restart node %d: %v", idx, err)
		}
		if err := c.Nodes[idx].WaitListening(20 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitConverged(keys, 60*time.Second); err != nil {
		t.Fatalf("gateway did not recover after entry peers returned: %v\n%s", err, c.LogTails(20))
	}
	if got := c.Gate.starts; got != 1 {
		t.Errorf("gateway was started %d times, recovery must not involve a gate restart", got)
	}
}
