package network

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestSimInFlightGauge checks that the simulated network's in-flight call
// accounting sees concurrent calls overlap and drains back to zero.
func TestSimInFlightGauge(t *testing.T) {
	sim := NewSim(SimConfig{Seed: 1, Latency: ConstantLatency(10 * time.Millisecond)})
	src := sim.Endpoint("src")
	dst := sim.Endpoint("dst")
	dst.Handle(func(ctx context.Context, from Addr, req any) (any, error) {
		return tcpPong{Value: 1}, nil
	})

	const calls = 8
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := src.Call(context.Background(), "dst", tcpPing{Value: 2}); err != nil {
				t.Errorf("call: %v", err)
			}
		}()
	}
	wg.Wait()

	if got := sim.Calls.Current(); got != 0 {
		t.Errorf("in-flight gauge did not drain: %d", got)
	}
	// All calls sleep 10ms each way, so they must have overlapped.
	if peak := sim.Calls.Peak(); peak < 2 {
		t.Errorf("peak in-flight %d, want >= 2 for %d concurrent calls", peak, calls)
	}
}

// TestSimSetLoss flips message loss on a running network and checks calls
// start failing, then flips it off again.
func TestSimSetLoss(t *testing.T) {
	sim := NewSim(SimConfig{Seed: 2})
	src := sim.Endpoint("a")
	dst := sim.Endpoint("b")
	dst.Handle(func(ctx context.Context, from Addr, req any) (any, error) {
		return tcpPong{Value: 1}, nil
	})
	ctx := context.Background()
	if _, err := src.Call(ctx, "b", tcpPing{Value: 2}); err != nil {
		t.Fatalf("lossless call failed: %v", err)
	}
	sim.SetLoss(1)
	if _, err := src.Call(ctx, "b", tcpPing{Value: 2}); err == nil {
		t.Fatal("call should be dropped at loss probability 1")
	}
	sim.SetLoss(0)
	if _, err := src.Call(ctx, "b", tcpPing{Value: 2}); err != nil {
		t.Fatalf("call after disabling loss failed: %v", err)
	}
}

// TestTCPInFlightGauge checks the TCP endpoint's outgoing-call gauge under
// concurrent calls.
func TestTCPInFlightGauge(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Handle(func(ctx context.Context, from Addr, req any) (any, error) {
		time.Sleep(20 * time.Millisecond)
		return tcpPong{Value: 1}, nil
	})
	cli, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cli.Call(context.Background(), srv.Addr(), tcpPing{Value: 2}); err != nil {
				t.Errorf("tcp call: %v", err)
			}
		}()
	}
	wg.Wait()
	if got := cli.Calls.Current(); got != 0 {
		t.Errorf("tcp in-flight gauge did not drain: %d", got)
	}
	if peak := cli.Calls.Peak(); peak < 2 {
		t.Errorf("tcp peak in-flight %d, want >= 2", peak)
	}
}
