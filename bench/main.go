// Command bench is the repository benchmark: it assembles an in-process
// cluster of real loopback TCP peers behind a real HTTP gate, drives it with
// closed-loop HTTP clients, checks every answer against an oracle and prints
// the metrics BENCHMARK.json names. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pgrid/internal/replication"
	"pgrid/internal/workload"
)

// warmUp is the unmeasured start of every closed-loop phase: connection
// pools dial and the answer caches fill.
const warmUp = 1500 * time.Millisecond

// probeCount is the iteration count of the fastest probes; slower ones run a
// fixed fraction of it.
const probeCount = 20000

// setUps is how often a measured run builds its cluster; setup_s is the
// median.
const setUps = 3

// clients is the number of closed-loop clients, the sandbox's CPU count. It
// is part of every workload's definition, not a setting: results made with
// different counts cannot be compared.
const clients = 2

// outDir holds data dirs and trace files, relative to the directory the
// program runs in (bench/).
const outDir = "out"

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// unmeasured names the per-layer metrics in Metrics that the workload
	// has no sample for and that therefore read 0; see runTraced.
	unmeasured []string
}

// record is a result with the run it came from, the line format of the
// files -compare reads.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	result
	Unmeasured []string `json:"unmeasured,omitempty"`
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all four, untraced then traced)")
		seed    = flag.Int64("seed", 1, "seed of the generated request streams")
		seconds = flag.Int("seconds", 12, "length of the measured window")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
		compare = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			logf("usage: bench -compare A.json B.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		logf("bench: -seconds must be at least 1, -trace 0 or 1")
		os.Exit(2)
	}
	// The disk engine of a store without a data dir, which one probe uses,
	// makes its directory under TMPDIR; keep that inside the output
	// directory too.
	tmp, err := filepath.Abs(filepath.Join(outDir, "tmp"))
	if err == nil {
		if err = os.MkdirAll(tmp, 0o755); err == nil {
			err = os.Setenv("TMPDIR", tmp)
		}
	}
	if err != nil {
		logf("bench: %v", err)
		os.Exit(1)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, outDir: outDir, warm: warmUp, probeCount: probeCount}
	specs, traces := workloads, []int{0, 1}
	if *name != "" {
		spec, found := findWorkload(*name)
		if !found {
			logf("bench: unknown workload %q", *name)
			os.Exit(2)
		}
		specs, traces = []workloadSpec{spec}, []int{*trace}
	}
	ok := true
	for _, spec := range specs {
		for _, tr := range traces {
			res, err := runOne(spec, cfg, tr)
			if err != nil {
				logf("bench: %s: %v", spec.name, err)
				os.Exit(1)
			}
			// One workload prints the bare result the driver reads; a run
			// of all of them prints records, which -compare reads.
			var line any = record{spec.name, cfg.seed, cfg.seconds, tr, res, res.unmeasured}
			if *name != "" {
				line = res
			}
			if err := json.NewEncoder(os.Stdout).Encode(line); err != nil {
				logf("bench: %v", err)
				os.Exit(1)
			}
			ok = ok && res.Correct
		}
	}
	if !ok {
		os.Exit(1)
	}
}

type runConfig struct {
	seed    int64
	seconds int
	// outDir, warm and probeCount are the constants of those names except
	// in the test, which has a scratch directory and seconds, not minutes.
	outDir     string
	warm       time.Duration
	probeCount int
}

func runOne(spec workloadSpec, cfg runConfig, trace int) (result, error) {
	if trace == 1 {
		return runTraced(spec, cfg)
	}
	return runMeasured(spec, cfg)
}

// zipfFor builds the workload's key-rank distribution, nil for uniform.
func zipfFor(spec workloadSpec) *workload.Zipf {
	if spec.zipfS == 0 {
		return nil
	}
	return workload.NewZipf(spec.keys, spec.zipfS)
}

// clientGenerators makes the request stream of every closed-loop client.
func clientGenerators(spec workloadSpec, cfg runConfig, data []replication.Item, zipf *workload.Zipf) []*generator {
	gens := make([]*generator, clients)
	for i := range gens {
		gens[i] = newGenerator(spec, data, zipf, cfg.seed, i, fmt.Sprintf("c%d", i))
	}
	return gens
}

// dataRoot is the directory a run keeps its peers' data dirs in.
func dataRoot(cfg runConfig, spec workloadSpec) string {
	return filepath.Join(cfg.outDir, fmt.Sprintf("data-%s-%d", spec.name, os.Getpid()))
}

// heapMB is the live heap after a forced collection.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runMeasured is the --trace 0 run: nothing of the benchmark sits between
// the layers, and the end-to-end metrics come out.
func runMeasured(spec workloadSpec, cfg runConfig) (result, error) {
	ctx := context.Background()
	data := genData(spec)
	root := dataRoot(cfg, spec)
	defer os.RemoveAll(root)

	var c *cluster
	var setups []float64
	for i := 0; i < setUps; i++ {
		if c != nil {
			c.close()
			c.removeData()
		}
		t0 := time.Now()
		var err error
		if c, err = newCluster(ctx, spec, data, root, decorators{}); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { c.close() }()
	logf("%s: set-ups %.3v s; %d partitions, mean depth %.2f, %d construction rounds, %d keys repaired",
		spec.name, setups, c.partitions, c.depthMean, c.rounds, c.repaired)

	orc := newOracle(data)
	w := runClosedLoop(c.baseURL, spec.writeQuorum, orc, clientGenerators(spec, cfg, data, zipfFor(spec)), cfg.warm, time.Duration(cfg.seconds)*time.Second)
	for _, e := range w.firstErrs {
		logf("%s: failed: %s", spec.name, e)
	}
	if len(w.samples) == 0 {
		return result{}, fmt.Errorf("no operation completed in %d s", cfg.seconds)
	}
	// The samples are the benchmark's memory, and more of it the faster the
	// run went; drop them before the heap is read, so heap_mb is the
	// cluster's and does not follow throughput_ops.
	all, perSecond := w.stats(anyKind), w.perSecond()
	w.samples = nil
	heap := heapMB()

	durErrs := 0
	if spec.dataDirs && spec.writePct > 0 {
		dur, err := checkDurability(c, orc)
		if err != nil {
			return result{}, err
		}
		durErrs = dur.lost
	}

	res := result{
		Correct:   w.failed == 0 && durErrs == 0,
		Attempted: w.attempted,
		Failed:    w.failed + durErrs,
		Metrics:   make(map[string]metric),
	}
	values := map[string]float64{
		"setup_s":        median(setups),
		"throughput_ops": float64(all.n) / w.seconds,
		"cpu_us_per_op":  w.cpuUS / float64(all.n),
		"p50_us":         all.p50,
		"p99_us":         all.p99,
		"heap_mb":        heap,
	}
	for _, m := range e2eMetrics {
		res.Metrics[m.name] = metric{values[m.name], m.unit}
	}
	logf("%s: %d ops in %d s, %d failed, %d lost after reopen; ops per second %v", spec.name, all.n, cfg.seconds, w.failed, durErrs, perSecond)
	return res, nil
}
