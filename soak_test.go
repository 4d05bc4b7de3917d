package pgrid

import (
	"context"
	"fmt"
	"os"
	"testing"
)

// TestSoakMaintenanceBandwidthFlat is the write+delete soak behind the
// digest/delta anti-entropy work: as lifetime deletes grow 10×, the digest
// protocol's maintenance bytes-per-tick stay approximately flat, and the
// tombstone GC bounds the metadata itself against a cluster that keeps
// tombstones forever.
//
// The nightly workflow runs the long variant (PGRID_SOAK=1) with another 10×
// of lifetime deletes on top.
func TestSoakMaintenanceBandwidthFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	ctx := context.Background()
	peers, items := 24, 100
	epochs := []int{30, 300}
	if os.Getenv("PGRID_SOAK") != "" {
		peers, items = 48, 240
		epochs = []int{30, 300, 3000}
	}

	build := func(opts ...Option) *Cluster {
		base := []Option{
			WithPeers(peers),
			WithMaxKeys(20),
			WithMinReplicas(2),
			WithRoutingRedundancy(4),
			WithSeed(42),
		}
		c, err := NewCluster(append(base, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < items; j++ {
			if err := c.Index(FloatKey(float64(j)/float64(items)), fmt.Sprintf("v%d", j)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Build(ctx); err != nil {
			t.Fatal(err)
		}
		return c
	}
	// The version horizon is sized to the soak's write volume: long enough
	// that every replica syncs within it, short enough that the bulk of the
	// lifetime tombstones is pruned by the end of the run.
	keep := build()
	digest := build(WithTombstoneGC(0, 24))

	maintBytes := func(c *Cluster) float64 { return c.MetricsSnapshot().MaintenanceBytes }
	tombstones := func(c *Cluster) int {
		n := 0
		for i := 0; i < c.Peers(); i++ {
			n += c.Peer(i).Store().TombstoneCount()
		}
		return n
	}
	bytesPerTick := func(c *Cluster) float64 {
		const measure = 8
		for i := 0; i < 4; i++ {
			c.MaintenanceRound(ctx) // converge before measuring steady state
		}
		start := maintBytes(c)
		for i := 0; i < measure; i++ {
			c.MaintenanceRound(ctx)
		}
		return (maintBytes(c) - start) / measure
	}

	done := 0
	type sample struct {
		deletes   int
		dig       float64
		keepTombs int
		gcTombs   int
	}
	var samples []sample
	for _, target := range epochs {
		for ; done < target; done++ {
			key := FloatKey((float64(done%items) + 0.37) / float64(items))
			val := fmt.Sprintf("churn-%d", done)
			for _, c := range []*Cluster{keep, digest} {
				_, _ = c.Insert(ctx, key, val)
				_, _ = c.Delete(ctx, key, val)
				if done%50 == 49 {
					c.MaintenanceRound(ctx)
				}
			}
		}
		samples = append(samples, sample{
			deletes:   done,
			dig:       bytesPerTick(digest),
			keepTombs: tombstones(keep), gcTombs: tombstones(digest),
		})
	}
	for _, s := range samples {
		t.Logf("deletes=%d digest=%.0f B/tick tombstones no-gc=%d gc=%d",
			s.deletes, s.dig, s.keepTombs, s.gcTombs)
	}

	first, last := samples[0], samples[len(samples)-1]
	digestGrowth := last.dig / first.dig
	// The digest protocol must stay ~flat across a 10× delete growth; the
	// margins are generous so scheduler noise cannot flake the build.
	if digestGrowth > 1.75 {
		t.Errorf("digest maintenance grew %.2fx across a 10x delete growth; want ~flat", digestGrowth)
	}
	// The GC horizon must bound tombstone metadata well below the
	// keep-forever baseline.
	if last.gcTombs*2 >= last.keepTombs {
		t.Errorf("GC held %d tombstones vs %d without GC; want less than half", last.gcTombs, last.keepTombs)
	}
}
