// Command pgridgate is the overlay's standalone HTTP front door: it speaks
// the P-Grid wire protocol to a set of entry peers over TCP and exposes the
// data operations as a JSON/HTTP API with Prometheus observability.
//
// Point it at one or more running pgridnode processes:
//
//	pgridgate -listen 127.0.0.1:8080 -peer 127.0.0.1:7001 -peer 127.0.0.1:7002
//
// and use the API:
//
//	curl -X PUT  localhost:8080/v1/items/database -d '{"value":"doc-1"}'
//	curl         localhost:8080/v1/search/database
//	curl         'localhost:8080/v1/range?lo=data&hi=overlay'
//	curl -X POST localhost:8080/v1/batch -d '{"keys":["database","overlay"]}'
//	curl -X DELETE 'localhost:8080/v1/items/database?value=doc-1'
//	curl         localhost:8080/metrics
//
// The gateway enforces a per-request deadline (-timeout) that propagates
// into overlay routing, sheds load beyond -max-inflight with 429 +
// Retry-After, and on SIGINT/SIGTERM drains gracefully: /readyz flips to
// 503 immediately, in-flight requests finish (bounded by -drain-timeout),
// then the listener closes and the process exits 0.
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
	"pgrid/internal/network"
)

// multiFlag collects repeatable string flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	var peers multiFlag
	var (
		listen       = flag.String("listen", "127.0.0.1:8080", "HTTP address to serve the API on")
		self         = flag.String("self", "127.0.0.1:0", "TCP address for the gateway's own overlay transport endpoint")
		timeout      = flag.Duration("timeout", gate.DefaultRequestTimeout, "per-request deadline, propagated into overlay routing")
		maxInflight  = flag.Int("max-inflight", gate.DefaultMaxInFlight, "maximum concurrently served API requests; excess load is shed with 429")
		quorum       = flag.Int("quorum", 1, "replica acks required before an insert/delete is reported successful")
		ttl          = flag.Int("ttl", gate.DefaultTTL, "routing-hop bound per overlay operation")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "how long shutdown waits for in-flight requests")
		dialTimeout  = flag.Duration("dial-timeout", 0, "TCP transport: connection-establishment timeout (0 = default)")
		callTimeout  = flag.Duration("call-timeout", 0, "TCP transport: per-call timeout when the context has no deadline (0 = default)")
		idleTimeout  = flag.Duration("idle-timeout", 0, "TCP transport: idle horizon before a pooled connection is closed (0 = default)")
	)
	flag.Var(&peers, "peer", "address of an overlay entry peer (repeatable)")
	flag.Parse()

	if err := run(gateOptions{
		listen: *listen, self: *self, peers: peers,
		timeout: *timeout, maxInflight: *maxInflight,
		quorum: *quorum, ttl: *ttl, drainTimeout: *drainTimeout,
		tcp: network.TCPOptions{
			DialTimeout: *dialTimeout,
			CallTimeout: *callTimeout,
			IdleTimeout: *idleTimeout,
		},
	}); err != nil {
		fmt.Fprintln(os.Stderr, "pgridgate:", err)
		os.Exit(1)
	}
}

// gateOptions collects the run parameters parsed from the command line.
type gateOptions struct {
	listen, self string
	peers        []string
	timeout      time.Duration
	maxInflight  int
	quorum       int
	ttl          int
	drainTimeout time.Duration
	tcp          network.TCPOptions
}

func run(opts gateOptions) error {
	if len(opts.peers) == 0 {
		return fmt.Errorf("at least one -peer is required")
	}
	// The gateway's own wire endpoint: it originates overlay calls but
	// serves no protocol requests itself.
	ep, err := network.ListenTCPOptions(opts.self, opts.tcp)
	if err != nil {
		return fmt.Errorf("overlay transport: %w", err)
	}
	defer ep.Close()

	addrs := make([]network.Addr, len(opts.peers))
	for i, p := range opts.peers {
		addrs[i] = network.Addr(p)
	}
	backend := &gate.RemoteBackend{
		Transport:   ep,
		Peers:       addrs,
		TTL:         opts.ttl,
		WriteQuorum: opts.quorum,
	}
	srv := gate.New(gate.Config{
		Backend:        backend,
		RequestTimeout: opts.timeout,
		MaxInFlight:    opts.maxInflight,
	})

	ln, err := net.Listen("tcp", opts.listen)
	if err != nil {
		return fmt.Errorf("http listen: %w", err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			serveErr <- err
		}
		close(serveErr)
	}()
	fmt.Printf("pgridgate serving http://%s -> %d entry peer(s) via %s\n", ln.Addr(), len(addrs), ep.Addr())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	select {
	case sig := <-sigCh:
		fmt.Printf("received %s, draining\n", sig)
	case err, ok := <-serveErr:
		if ok {
			return err
		}
		return nil
	}

	// Graceful drain: readiness flips first so load balancers stop routing
	// here, in-flight requests finish, then the listener closes.
	ctx, cancel := context.WithTimeout(context.Background(), opts.drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "pgridgate:", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	fmt.Println("clean shutdown: drained and stopped")
	return nil
}
