// Package harness boots and torments clusters of real pgridnode processes
// over the pooled binary TCP transport, turning the repo's churn and
// crash-recovery claims from in-process-simulator claims into
// process-level ones. It owns the full lifecycle: port allocation, data
// directories, bootstrap ordering, readiness waits (TCP accept, /healthz,
// one-shot -get probes), structured per-node log capture, fault injection
// (graceful SIGTERM, hard SIGKILL mid-write, restart with the same data
// dir and address, rolling churn at a configurable rate) and cluster-wide
// assertions (key convergence through a fronting pgridgate, /metrics
// scraped and read by series name).
//
// The default suite in this package replaces the hand-rolled
// scripts/smoke.sh logic; the 50+ process churn/crash suite is gated
// behind PGRID_PROC=1 (see churn_proc_test.go).
package harness

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// Options parameterises a Cluster.
type Options struct {
	// Nodes is the fleet size (>= 1; node 0 is the bootstrap).
	Nodes int
	// Engine selects the storage engine passed to every node ("", "mem" or
	// "disk"). "disk" implies Durable (the disk engine needs a data dir).
	Engine string
	// Durable gives every node a data dir (WAL + snapshots), making
	// SIGKILL + restart a recovery event instead of a rebuild.
	Durable bool
	// HTTPNodes serves the gateway HTTP API (and therefore /metrics) on
	// the first HTTPNodes nodes. Zero means node 0 only.
	HTTPNodes int
	// Maintain is each node's background maintenance interval (0 =
	// 250ms) — anti-entropy is what makes a rejoined node converge.
	Maintain time.Duration
	// Serve is each node's -serve duration, an upper bound on the test's
	// lifetime (0 = 10m).
	Serve time.Duration
	// Interactions is the number of construction interactions a joining
	// node runs against its join target (0 = 4).
	Interactions int
	// Nmin and Dmax override the replication/storage-load parameters
	// (0 = pgridnode defaults: nmin 2, dmax 20).
	Nmin, Dmax int
	// Seed drives the harness's own randomness (join-target selection,
	// churn victim selection). Zero means 1.
	Seed int64
	// BaseDir is where per-node data dirs and logs live. Empty uses a
	// fresh temp dir; the PGRID_HARNESS_DIR environment variable overrides
	// the default so CI can collect logs as artifacts.
	BaseDir string
	// KeepDir leaves BaseDir in place at Close (automatic when
	// PGRID_HARNESS_DIR is set).
	KeepDir bool
}

// Cluster is a running fleet of pgridnode processes, optionally fronted
// by one pgridgate.
type Cluster struct {
	Opts  Options
	Dir   string
	Nodes []*Node
	Gate  *Gate

	nodeBin, gateBin string
	rng              *rand.Rand
	keep             bool
}

// Gate is the managed pgridgate process fronting a cluster.
type Gate struct {
	proc
	// URL is the gateway's HTTP base URL.
	URL string
	// Peers are the entry-peer addresses the gateway rotates over.
	Peers []string
}

// New prepares a cluster: builds the binaries (once per test process),
// allocates stable ports and creates the directory layout. No process is
// started yet — call Start.
func New(opts Options) (*Cluster, error) {
	if opts.Nodes < 1 {
		return nil, fmt.Errorf("harness: need at least one node, got %d", opts.Nodes)
	}
	if opts.Engine == "disk" {
		opts.Durable = true
	}
	if opts.HTTPNodes <= 0 {
		opts.HTTPNodes = 1
	}
	if opts.HTTPNodes > opts.Nodes {
		opts.HTTPNodes = opts.Nodes
	}
	if opts.Maintain <= 0 {
		opts.Maintain = 250 * time.Millisecond
	}
	if opts.Serve <= 0 {
		opts.Serve = 10 * time.Minute
	}
	if opts.Interactions <= 0 {
		opts.Interactions = 4
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	nodeBin, gateBin, err := BuildBinaries()
	if err != nil {
		return nil, err
	}

	keep := opts.KeepDir
	base := opts.BaseDir
	if base == "" {
		if env := os.Getenv("PGRID_HARNESS_DIR"); env != "" {
			base = env
			keep = true
		}
	}
	var dir string
	if base == "" {
		dir, err = os.MkdirTemp("", "pgrid-harness-")
	} else {
		dir = filepath.Join(base, fmt.Sprintf("cluster-%d", time.Now().UnixNano()))
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		return nil, err
	}

	// One protocol port per node, one HTTP port per API-serving node, one
	// for the gateway.
	ports, err := allocatePorts(opts.Nodes + opts.HTTPNodes + 1)
	if err != nil {
		return nil, err
	}

	c := &Cluster{
		Opts:    opts,
		Dir:     dir,
		nodeBin: nodeBin,
		gateBin: gateBin,
		rng:     rand.New(rand.NewSource(opts.Seed)),
		keep:    keep,
	}
	for i := 0; i < opts.Nodes; i++ {
		n := &Node{
			Index: i,
			Addr:  fmt.Sprintf("127.0.0.1:%d", ports[i]),
		}
		if i < opts.HTTPNodes {
			n.HTTPAddr = fmt.Sprintf("127.0.0.1:%d", ports[opts.Nodes+i])
		}
		if opts.Durable {
			n.DataDir = filepath.Join(dir, fmt.Sprintf("data-%03d", i))
			if err := os.MkdirAll(n.DataDir, 0o755); err != nil {
				return nil, err
			}
		}
		n.proc = proc{
			name:    fmt.Sprintf("node-%03d", i),
			binary:  nodeBin,
			logPath: filepath.Join(dir, fmt.Sprintf("node-%03d.log", i)),
		}
		n.proc.args = c.nodeArgs(n, "")
		c.Nodes = append(c.Nodes, n)
	}
	gatePort := ports[len(ports)-1]
	c.Gate = &Gate{
		proc: proc{
			name:    "gate",
			binary:  gateBin,
			logPath: filepath.Join(dir, "gate.log"),
		},
		URL: fmt.Sprintf("http://127.0.0.1:%d", gatePort),
	}
	return c, nil
}

// nodeArgs assembles a node's full command line. join is the bootstrap
// target ("" for node 0).
func (c *Cluster) nodeArgs(n *Node, join string) []string {
	args := []string{
		"-listen", n.Addr,
		"-serve", c.Opts.Serve.String(),
		"-maintain", c.Opts.Maintain.String(),
	}
	if join != "" {
		args = append(args, "-join", join, "-interactions", fmt.Sprint(c.Opts.Interactions))
	}
	if n.HTTPAddr != "" {
		args = append(args, "-http", n.HTTPAddr)
	}
	if n.DataDir != "" {
		args = append(args, "-data-dir", n.DataDir)
	}
	if c.Opts.Engine != "" {
		args = append(args, "-engine", c.Opts.Engine)
	}
	if c.Opts.Nmin > 0 {
		args = append(args, "-nmin", fmt.Sprint(c.Opts.Nmin))
	}
	if c.Opts.Dmax > 0 {
		args = append(args, "-dmax", fmt.Sprint(c.Opts.Dmax))
	}
	return args
}

// Start boots the fleet in bootstrap order: node 0 comes up first and
// every later node joins a random already-listening node, spreading the
// construction interactions instead of convoying on the bootstrap. Each
// node's TCP accept is awaited before it is offered as a join target.
func (c *Cluster) Start() error {
	for i, n := range c.Nodes {
		join := ""
		if i > 0 {
			join = c.Nodes[c.rng.Intn(i)].Addr
			n.proc.args = c.nodeArgs(n, join)
		}
		if err := n.start(); err != nil {
			return err
		}
		if err := n.WaitListening(20 * time.Second); err != nil {
			return err
		}
	}
	for i := 0; i < c.Opts.HTTPNodes; i++ {
		if err := c.Nodes[i].WaitHTTPReady(20 * time.Second); err != nil {
			return err
		}
	}
	return nil
}

// StartGate boots the pgridgate fronting the cluster. entry selects the
// entry-peer node indices (default: the first three nodes, or fewer).
func (c *Cluster) StartGate(entry ...int) error {
	if len(entry) == 0 {
		for i := 0; i < len(c.Nodes) && i < 3; i++ {
			entry = append(entry, i)
		}
	}
	args := []string{"-listen", c.Gate.URL[len("http://"):]}
	c.Gate.Peers = c.Gate.Peers[:0]
	for _, idx := range entry {
		args = append(args, "-peer", c.Nodes[idx].Addr)
		c.Gate.Peers = append(c.Gate.Peers, c.Nodes[idx].Addr)
	}
	c.Gate.proc.args = args
	if err := c.Gate.start(); err != nil {
		return err
	}
	return waitHTTP(c.Gate.URL+"/readyz", "gate", 20*time.Second)
}

// RestartRecovered restarts a durable node without its bootstrap -join
// arguments: the node must come back through pure durable-state recovery
// (persisted partition path, items, replica refs) and catch up via
// anti-entropy alone — the path a production restart takes. A restart
// with the original args instead re-runs construction interactions,
// which re-replicate missed data through the exchange path and mask the
// sync classification the crash suite pins.
func (c *Cluster) RestartRecovered(n *Node) error {
	if n.DataDir == "" {
		return fmt.Errorf("harness: %s has no data dir; a recovery restart needs durable state", n.proc.name)
	}
	n.proc.args = c.nodeArgs(n, "")
	return n.Restart()
}

// Running counts the nodes whose processes are currently alive.
func (c *Cluster) Running() int {
	n := 0
	for _, node := range c.Nodes {
		if node.Running() {
			n++
		}
	}
	return n
}

// Close tears the whole cluster down: gateway and nodes get a SIGTERM
// grace window, stragglers are killed, and the work dir is removed unless
// the cluster was asked to keep it (log collection). A kept cluster also
// gets a final /metrics scrape of every live HTTP endpoint written next
// to the logs, so CI failure artifacts carry the metrics state too.
func (c *Cluster) Close() {
	if c.keep {
		c.dumpMetrics()
	}
	if c.Gate != nil && c.Gate.running() {
		_ = c.Gate.stop(5 * time.Second)
	}
	for _, n := range c.Nodes {
		if n.Running() {
			_ = n.Signal(syscall.SIGTERM)
		}
	}
	for _, n := range c.Nodes {
		if n.Running() {
			if err := n.waitExit(5 * time.Second); err != nil {
				_ = n.kill()
			}
		}
	}
	if !c.keep {
		_ = os.RemoveAll(c.Dir)
	}
}

// dumpMetrics writes a raw final /metrics scrape for the gateway and every
// live HTTP node into the work dir (best-effort; dead endpoints are noted,
// not fatal).
func (c *Cluster) dumpMetrics() {
	scrapeTo := func(url, path string) {
		resp, err := httpClient.Get(url + "/metrics")
		if err != nil {
			_ = os.WriteFile(path, []byte(fmt.Sprintf("scrape failed: %v\n", err)), 0o644)
			return
		}
		defer resp.Body.Close()
		f, err := os.Create(path)
		if err != nil {
			return
		}
		defer f.Close()
		_, _ = io.Copy(f, resp.Body)
	}
	if c.Gate != nil && c.Gate.running() {
		scrapeTo(c.Gate.URL, filepath.Join(c.Dir, "gate.metrics"))
	}
	for _, n := range c.Nodes {
		if n.HTTPAddr != "" && n.Running() {
			scrapeTo("http://"+n.HTTPAddr, filepath.Join(c.Dir, n.proc.name+".metrics"))
		}
	}
}

// LogTails returns the last n lines of every process's log, labelled —
// the failure diagnostic a churn test attaches to t.Errorf output.
func (c *Cluster) LogTails(n int) string {
	out := ""
	for _, node := range c.Nodes {
		out += fmt.Sprintf("--- %s ---\n%s\n", node.proc.name, node.logTail(n))
	}
	if c.Gate != nil {
		out += fmt.Sprintf("--- gate ---\n%s\n", c.Gate.logTail(n))
	}
	return out
}
