package sim

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pgrid/internal/workload"
)

const constructionGoldenPath = "testdata/experiment_construction.golden"

// constructionTrace runs the construction pipeline (New, Replicate,
// Construct) for Uniform and Pareto keys on seeds 1 and 2, and renders for
// each run its round count and measured result, and for each peer its
// path, convergence flag, counters and replica count.
func constructionTrace(t *testing.T) []string {
	t.Helper()
	ctx := context.Background()
	var lines []string
	for _, dist := range []workload.Distribution{workload.Uniform{}, workload.NewPareto(1.0)} {
		for _, seed := range []int64{1, 2} {
			cfg := smallConfig(seed)
			cfg.Queries = 0
			cfg.Distribution = dist
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Replicate(ctx); err != nil {
				t.Fatal(err)
			}
			rounds := e.Construct(ctx)
			res, err := e.Measure(rounds)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("run %s seed=%d rounds=%d %s", dist.Name(), seed, rounds, res))
			for i, p := range e.Peers {
				lines = append(lines, fmt.Sprintf("peer %d path=%q done=%t counts=%v replicas=%d",
					i, p.Path(), p.Done(), p.Counts(), len(p.Replicas())))
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return lines
}

// TestExperimentConstructionGolden pins the outcome of the construction
// driver peer by peer, so a refactor of the driver that changes which
// peers meet, in which order, or with which seeds fails here. Regenerate
// with PGRID_REGEN_GOLDEN=1 only for an intended change of the outcome.
func TestExperimentConstructionGolden(t *testing.T) {
	got := constructionTrace(t)
	if os.Getenv("PGRID_REGEN_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(constructionGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(constructionGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", constructionGoldenPath)
		return
	}
	raw, err := os.ReadFile(constructionGoldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with PGRID_REGEN_GOLDEN=1): %v", err)
	}
	want := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Errorf("%d trace lines, golden has %d", len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("first difference at line %d:\n got %s\nwant %s", i+1, got[i], want[i])
			break
		}
	}
}
