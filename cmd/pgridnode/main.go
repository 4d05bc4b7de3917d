// Command pgridnode runs a single P-Grid peer on a real TCP transport, so a
// small overlay can be deployed across actual machines (the paper deployed
// the equivalent Java implementation on PlanetLab).
//
// Start a first node:
//
//	pgridnode -listen 127.0.0.1:7001 -put "database=doc-1" -put "overlay=doc-2"
//
// Start further nodes pointing at any existing one and let them construct
// the overlay, then query:
//
//	pgridnode -listen 127.0.0.1:7002 -join 127.0.0.1:7001 \
//	          -put "datalog=doc-3" -interactions 8 -get database
//
// The node keeps serving incoming protocol messages until the -serve
// duration elapses (0 means exit right after the local work is done, unless
// -http keeps the node up); -maintain additionally runs the background
// maintenance loop while serving. SIGINT or SIGTERM while serving triggers
// a clean shutdown: maintenance stops, the HTTP front door (if any) drains,
// durable state is checkpointed so the next start recovers from the
// snapshot with an empty WAL tail, and the process exits 0.
//
// With -http the node also serves the gateway HTTP API (see internal/gate):
// /v1 search/range/batch/insert/delete plus /healthz, /readyz and
// Prometheus-text /metrics with the peer's protocol counters and
// replication gauges.
//
// With -data-dir the node's replica state is durable: items, delete
// tombstones, the partition path and the anti-entropy sync baselines are
// captured by a write-ahead log plus snapshots, and a restarted node
// recovers them and rejoins its replica set through the cheap exact-delta
// sync path:
//
//	pgridnode -listen 127.0.0.1:7002 -join 127.0.0.1:7001 \
//	          -data-dir /var/lib/pgrid/node2 -serve 1h -maintain 1s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pgrid/internal/gate"
	"pgrid/internal/keyspace"
	"pgrid/internal/network"
	"pgrid/internal/overlay"
	"pgrid/internal/replication"
)

// multiFlag collects repeatable string flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// nodeOptions collects the run parameters parsed from the command line.
type nodeOptions struct {
	listen, join string
	puts, gets   []string
	interactions int
	nmin, dmax   int
	serve        time.Duration
	dataDir      string
	engine       string
	maintain     time.Duration
	httpAddr     string
	tcp          network.TCPOptions
}

func main() {
	var puts, gets multiFlag
	var (
		listen       = flag.String("listen", "127.0.0.1:0", "address to listen on")
		join         = flag.String("join", "", "address of an existing node to interact with")
		interactions = flag.Int("interactions", 4, "construction interactions to initiate with the joined node")
		nmin         = flag.Int("nmin", 2, "minimal replication factor")
		dmax         = flag.Int("dmax", 20, "maximal storage load per partition")
		serve        = flag.Duration("serve", 0, "keep serving for this duration after local work finishes")
		dataDir      = flag.String("data-dir", "", "directory for durable replica state (WAL + snapshots); restarts recover items, tombstones, path and sync baselines from it")
		engine       = flag.String("engine", "", "storage engine residency policy with -data-dir: mem or disk; disk keeps the partition's resident set bounded for stores far larger than RAM (default: $PGRID_ENGINE, else mem)")
		maintain     = flag.Duration("maintain", 0, "run background maintenance (anti-entropy, routing probes) at this interval while serving; 0 disables")
		httpAddr     = flag.String("http", "", "serve the gateway HTTP API (/v1/*, /healthz, /readyz, /metrics) on this address; keeps the node serving even with -serve 0")
		dialTimeout  = flag.Duration("dial-timeout", 0, "TCP transport: connection-establishment timeout (0 = default)")
		callTimeout  = flag.Duration("call-timeout", 0, "TCP transport: per-call timeout when the context has no deadline (0 = default)")
		idleTimeout  = flag.Duration("idle-timeout", 0, "TCP transport: per-connection idle horizon before a pooled connection is closed (0 = default)")
		frameLimit   = flag.Int("frame-limit", 0, "TCP transport: outgoing frame size cap in bytes; larger messages fragment (0 = protocol cap)")
		maxMessage   = flag.Int("max-message", 0, "TCP transport: reassembled message size cap in bytes (0 = default)")
	)
	flag.Var(&puts, "put", "index an entry of the form term=value (repeatable)")
	flag.Var(&gets, "get", "query a term after construction (repeatable)")
	flag.Parse()

	opts := nodeOptions{
		listen: *listen, join: *join, puts: puts, gets: gets,
		interactions: *interactions, nmin: *nmin, dmax: *dmax,
		serve: *serve, dataDir: *dataDir, engine: *engine, maintain: *maintain,
		httpAddr: *httpAddr,
		tcp: network.TCPOptions{
			DialTimeout: *dialTimeout,
			CallTimeout: *callTimeout,
			IdleTimeout: *idleTimeout,
			FrameLimit:  *frameLimit,
			MaxMessage:  *maxMessage,
		},
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "pgridnode:", err)
		os.Exit(1)
	}
}

func run(opts nodeOptions) error {
	listen, join, puts, gets := opts.listen, opts.join, opts.puts, opts.gets
	interactions, dataDir := opts.interactions, opts.dataDir
	serve := opts.serve
	ep, err := network.ListenTCPOptions(listen, opts.tcp)
	if err != nil {
		return err
	}
	defer ep.Close()
	cfg := overlay.Config{
		MaxKeys:       opts.dmax,
		MinReplicas:   opts.nmin,
		Seed:          time.Now().UnixNano(),
		DataDir:       dataDir,
		StorageEngine: opts.engine,
	}
	peer, err := overlay.NewPersistent(cfg, ep)
	if err != nil {
		return err
	}
	// The clean-shutdown path closes the peer explicitly (after a final
	// checkpoint); this cleanup only covers early error returns.
	peerClosed := false
	defer func() {
		if !peerClosed {
			peer.Close()
		}
	}()
	fmt.Printf("pgridnode listening on %s\n", ep.Addr())
	if dataDir != "" {
		fmt.Printf("recovered durable state from %s: path %q, %d items, %d known replicas\n",
			dataDir, peer.Path(), peer.Store().Len(), len(peer.Replicas()))
	}

	// Index the local entries.
	var items []replication.Item
	for _, kv := range puts {
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 {
			return fmt.Errorf("invalid -put %q, want term=value", kv)
		}
		items = append(items, replication.Item{
			Key:   keyspace.MustEncodeString(parts[0], keyspace.DefaultDepth),
			Value: parts[1],
		})
	}
	peer.AddItems(items)
	fmt.Printf("indexed %d local entries\n", len(items))

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	if join != "" {
		// Replicate the local entries to the bootstrap node and run a few
		// construction interactions against it.
		if err := peer.ReplicateItems(ctx, items, []network.Addr{network.Addr(join)}); err != nil {
			fmt.Printf("replication to %s failed: %v\n", join, err)
		}
		for i := 0; i < interactions; i++ {
			action, err := peer.Interact(ctx, network.Addr(join))
			if err != nil {
				fmt.Printf("interaction %d failed: %v\n", i+1, err)
				continue
			}
			fmt.Printf("interaction %d: %s (path now %s)\n", i+1, action, peer.Path())
		}
	}

	for _, term := range gets {
		key := keyspace.MustEncodeString(term, keyspace.DefaultDepth)
		res, err := peer.Query(ctx, key)
		switch {
		case errors.Is(err, overlay.ErrUnreachable):
			// "Overlay down" is a different failure than "key absent":
			// routing could not reach the responsible partition at all.
			fmt.Printf("get %q: overlay unreachable: %v\n", term, err)
		case err != nil:
			fmt.Printf("get %q: %v\n", term, err)
		case len(res.Items) == 0:
			fmt.Printf("get %q: not found (responsible partition reached in %d hop(s))\n", term, res.Hops)
		default:
			fmt.Printf("get %q: %d result(s) in %d hop(s)\n", term, len(res.Items), res.Hops)
			for _, it := range res.Items {
				fmt.Printf("  %s\n", it.Value)
			}
		}
	}

	if serve > 0 || opts.httpAddr != "" {
		if err := serveNode(peer, opts); err != nil {
			return err
		}
	}

	// Clean shutdown: checkpoint durable state so the next start recovers
	// from the snapshot with an empty WAL tail, then close the store.
	if dataDir != "" {
		if err := peer.Store().Checkpoint(); err != nil {
			return fmt.Errorf("final checkpoint: %w", err)
		}
	}
	peerClosed = true
	if err := peer.Close(); err != nil {
		return err
	}
	fmt.Println("clean shutdown: state checkpointed, store closed")
	return nil
}

// serveNode keeps the node serving protocol traffic — and, with -http, the
// gateway HTTP API — until the -serve duration elapses or a SIGINT/SIGTERM
// arrives. On signal it stops maintenance and drains the HTTP front door
// (readyz flips first, in-flight requests finish) before returning.
func serveNode(peer *overlay.Peer, opts nodeOptions) error {
	if opts.maintain > 0 {
		stop := peer.StartMaintenance(overlay.MaintenanceOptions{Interval: opts.maintain})
		defer stop()
	}

	var gateSrv *gate.Server
	var httpSrv *http.Server
	if opts.httpAddr != "" {
		ln, err := net.Listen("tcp", opts.httpAddr)
		if err != nil {
			return fmt.Errorf("http listen: %w", err)
		}
		gateSrv = gate.New(gate.Config{Backend: gate.PeerBackend{Peer: peer}})
		httpSrv = &http.Server{Handler: gateSrv.Handler()}
		go func() {
			if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "pgridnode: http serve:", err)
			}
		}()
		fmt.Printf("http API on http://%s (search/range/batch/items, /metrics, /healthz, /readyz)\n", ln.Addr())
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	var timer <-chan time.Time
	if opts.serve > 0 {
		timer = time.After(opts.serve)
		fmt.Printf("serving for %v (path %s, %d items)\n", opts.serve, peer.Path(), peer.Store().Len())
	} else {
		fmt.Printf("serving until signalled (path %s, %d items)\n", peer.Path(), peer.Store().Len())
	}
	select {
	case sig := <-sigCh:
		fmt.Printf("received %s, shutting down\n", sig)
	case <-timer:
	}

	if httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := gateSrv.Drain(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "pgridnode:", err)
		}
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "pgridnode: http shutdown:", err)
		}
	}
	return nil
}
