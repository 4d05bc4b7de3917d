package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"pgrid/internal/keyspace"
	"pgrid/internal/replication"
)

// benchmarkJSON is the part of ../BENCHMARK.json the test reads.
type benchmarkJSON struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestDeclarationsMatch keeps BENCHMARK.json and the tables in the code in
// step: same workloads, same metrics, same units, directions and bounds.
func TestDeclarationsMatch(t *testing.T) {
	bj := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, w.Name, workloads[i].name)
		}
	}
	if len(bj.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(bj.EndToEnd), len(e2eMetrics))
	}
	better := map[bool]string{true: "lower", false: "higher"}
	for i, m := range bj.EndToEnd {
		want := e2eMetrics[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != better[want.lowerBetter] || m.Bound != want.bound || !nameRE.MatchString(m.Name) {
			t.Errorf("end-to-end metric %d is %+v in BENCHMARK.json, %+v in the code", i, m, want)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		want := perLayer[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != better[want.lowerBetter] || !nameRE.MatchString(m.Name) {
			t.Errorf("per-layer metric %d is %+v in BENCHMARK.json, %+v in the code", i, m, want)
		}
	}
}

// small shrinks a workload's cluster to what a test can build: four peers,
// which construction splits into two partitions of two replicas.
func small(spec workloadSpec) workloadSpec {
	spec.peers, spec.keys, spec.topoSeed = 4, 1200, 6
	return spec
}

// TestWorkloadsEndToEnd runs every workload for a second against a 4-peer
// cluster, untraced and traced: no operation may fail, each run reports
// exactly the metrics BENCHMARK.json declares for its mode, each traced run
// leaves a trace file, and two identical sets of results compare clean.
func TestWorkloadsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds TCP clusters and runs for several seconds")
	}
	bj := readBenchmarkJSON(t)
	cfg := runConfig{seed: 7, seconds: 1, outDir: t.TempDir(), warm: 100 * time.Millisecond, probeCount: 500}
	t.Setenv("TMPDIR", cfg.outDir)
	var recs []record
	for _, full := range workloads {
		spec := small(full)
		for trace := 0; trace <= 1; trace++ {
			res, err := runOne(spec, cfg, trace)
			if err != nil {
				t.Fatalf("%s trace %d: %v", spec.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 100 {
				t.Errorf("%s trace %d: correct %v, %d attempted, %d failed", spec.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := make(map[string]string)
			if trace == 0 {
				for _, m := range bj.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bj.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace %d: metric %s missing", spec.name, trace, name)
				case m.Unit != unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace %d: metric %s = %v %s, want a number in %s", spec.name, trace, name, m.Value, m.Unit, unit)
				case trace == 0 && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", spec.name, name, m.Value)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace %d: metric %s is not declared in BENCHMARK.json", spec.name, trace, name)
				}
			}
			if trace == 1 {
				if _, err := os.Stat(filepath.Join(cfg.outDir, spec.name+".trace.json")); err != nil {
					t.Errorf("%s: no trace file: %v", spec.name, err)
				}
				for _, name := range []string{"gate.self_us", "network.wire_us", "overlay.handle_self_us", "network.calls_per_op", "replication.lookup_us"} {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v, want it measured", spec.name, name, res.Metrics[name].Value)
					}
				}
				// A workload measures every per-layer metric but those of
				// the operations it does not send.
				var unmeasured []string
				if spec.readPct == 0 {
					unmeasured = append(unmeasured, "http.read_p50_us", "http.read_p99_us")
				}
				if spec.writePct == 0 {
					unmeasured = append(unmeasured, "http.write_p50_us", "http.write_p99_us")
				}
				if spec.rangePct == 0 {
					unmeasured = append(unmeasured, "http.range_p50_us", "http.range_p99_us")
				}
				if spec.readPct == 0 {
					unmeasured = append(unmeasured, "overlay.cache_hit_ratio")
				}
				if !slices.Equal(res.unmeasured, unmeasured) {
					t.Errorf("%s: not measured: %v, want exactly %v", spec.name, res.unmeasured, unmeasured)
				}
				for _, name := range res.unmeasured {
					if res.Metrics[name].Value != 0 {
						t.Errorf("%s: unmeasured %s = %v, want 0", spec.name, name, res.Metrics[name].Value)
					}
				}
			}
			recs = append(recs, record{spec.name, cfg.seed, cfg.seconds, trace, res, res.unmeasured})
		}
	}
	var out bytes.Buffer
	if code := compareRecords(&out, recs, recs); code != 0 || strings.Contains(out.String(), "unresolved") {
		t.Errorf("a set of results compared with itself: exit code %d\n%s", code, out.String())
	}
}

// TestOracleRejectsWrongAnswers makes sure the answer check is not vacuous.
func TestOracleRejectsWrongAnswers(t *testing.T) {
	key := func(x float64) keyspace.Key { return keyspace.MustFromFloat(x, keyDepth) }
	data := []replication.Item{{Key: key(0.1), Value: "v0"}, {Key: key(0.2), Value: "v1"}, {Key: key(0.3), Value: "v2"}}
	orc := newOracle(data)
	k1 := bitsOf(key(0.2))
	read := op{kind: opRead, key: k1}
	if err := orc.checkRead(orc.beginRead(read), []pair{{k1, "v1"}}); err != nil {
		t.Errorf("right answer rejected: %v", err)
	}
	if err := orc.checkRead(orc.beginRead(read), nil); err == nil {
		t.Error("missing item accepted")
	}
	if err := orc.checkRead(orc.beginRead(read), []pair{{k1, "v1"}, {k1, "x"}}); err == nil {
		t.Error("extra item accepted")
	}
	put := op{kind: opPut, key: k1, value: "c0-0"}
	orc.beginWrite(k1)
	if err := orc.checkRead(orc.beginRead(read), []pair{{k1, "v1"}, {k1, "c0-0"}}); err != nil {
		t.Errorf("read overlapping a put rejected either outcome: %v", err)
	}
	if err := orc.checkRead(orc.beginRead(read), []pair{{k1, "c0-0"}}); err == nil {
		t.Error("read overlapping a put accepted a missing loaded item")
	}
	orc.endWrite(put, true)
	if err := orc.checkRead(orc.beginRead(read), []pair{{k1, "v1"}}); err == nil {
		t.Error("acked put missing from a later read accepted")
	}
	rng := op{kind: opRange, key: bitsOf(key(0.15)), hi: bitsOf(key(0.35))}
	if err := orc.checkRead(orc.beginRead(rng), []pair{{k1, "v1"}, {k1, "c0-0"}, {bitsOf(key(0.3)), "v2"}}); err != nil {
		t.Errorf("right range answer rejected: %v", err)
	}
	if err := orc.checkRead(orc.beginRead(rng), []pair{{k1, "v1"}, {k1, "c0-0"}}); err == nil {
		t.Error("short range answer accepted")
	}
}

// TestQuartilesMatchPython pins the spread to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{4, 1, 3, 2})
	if q1 != 1.25 || q3 != 3.75 {
		t.Errorf("quartiles of 1..4 = %v, %v; Python gives 1.25, 3.75", q1, q3)
	}
}
