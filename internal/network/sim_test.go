package network

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

// echoReq is the sim tests' message; Vals gives it a slice field, so tests
// can check that caller and callee never share one.
type echoReq struct {
	Text string
	Vals []uint64
}

func init() { RegisterType("test.echo", echoReq{}) }

func echoHandler(_ context.Context, from Addr, req any) (any, error) {
	r := req.(echoReq)
	return echoReq{Text: "echo:" + r.Text, Vals: r.Vals}, nil
}

func TestSimBasicCall(t *testing.T) {
	sim := NewSim(SimConfig{})
	a := sim.Endpoint("a")
	b := sim.Endpoint("b")
	b.Handle(echoHandler)
	resp, err := a.Call(context.Background(), "b", echoReq{Text: "hi"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(echoReq).Text != "echo:hi" {
		t.Errorf("resp = %v", resp)
	}
}

// TestSimUnregisteredPayload checks that the sim, like TCP, only carries
// registered message types.
func TestSimUnregisteredPayload(t *testing.T) {
	sim := NewSim(SimConfig{})
	a := sim.Endpoint("a")
	b := sim.Endpoint("b")
	b.Handle(func(context.Context, Addr, any) (any, error) { return struct{ X int }{1}, nil })
	if _, err := a.Call(context.Background(), "b", "not registered"); err == nil {
		t.Error("call with an unregistered request type succeeded")
	}
	var re *RemoteError
	if _, err := a.Call(context.Background(), "b", echoReq{}); !errors.As(err, &re) {
		t.Errorf("unregistered response type: err = %v, want a RemoteError", err)
	}
}

// TestSimCallDoesNotAlias checks that a call hands each side its own decoded
// copy: a handler that writes to a slice after the call returned — its
// response's, or the request's — leaves the caller's values untouched.
func TestSimCallDoesNotAlias(t *testing.T) {
	sim := NewSim(SimConfig{})
	a := sim.Endpoint("a")
	b := sim.Endpoint("b")
	var kept echoReq
	var sent []uint64
	b.Handle(func(_ context.Context, _ Addr, req any) (any, error) {
		kept = req.(echoReq)
		sent = []uint64{7, 8, 9}
		return echoReq{Text: "resp", Vals: sent}, nil
	})
	req := echoReq{Text: "req", Vals: []uint64{1, 2, 3}}
	resp, err := a.Call(context.Background(), "b", req)
	if err != nil {
		t.Fatal(err)
	}
	sent[0] = 99
	kept.Vals[0] = 99
	if got := resp.(echoReq).Vals; !reflect.DeepEqual(got, []uint64{7, 8, 9}) {
		t.Errorf("caller's response Vals = %v after the handler wrote to its slice, want [7 8 9]", got)
	}
	if !reflect.DeepEqual(req.Vals, []uint64{1, 2, 3}) {
		t.Errorf("caller's request Vals = %v after the handler wrote to its copy, want [1 2 3]", req.Vals)
	}
}

func TestSimUnknownDestination(t *testing.T) {
	sim := NewSim(SimConfig{})
	a := sim.Endpoint("a")
	if _, err := a.Call(context.Background(), "ghost", echoReq{}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("err = %v, want ErrUnreachable", err)
	}
}

func TestSimNoHandler(t *testing.T) {
	sim := NewSim(SimConfig{})
	a := sim.Endpoint("a")
	sim.Endpoint("b")
	if _, err := a.Call(context.Background(), "b", echoReq{}); !errors.Is(err, ErrNoHandler) {
		t.Errorf("err = %v, want ErrNoHandler", err)
	}
}

func TestSimOfflinePeers(t *testing.T) {
	sim := NewSim(SimConfig{})
	a := sim.Endpoint("a")
	b := sim.Endpoint("b")
	b.Handle(echoHandler)
	sim.SetOnline("b", false)
	if _, err := a.Call(context.Background(), "b", echoReq{}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("call to offline peer: %v", err)
	}
	sim.SetOnline("b", true)
	if _, err := a.Call(context.Background(), "b", echoReq{}); err != nil {
		t.Errorf("call after coming back online: %v", err)
	}
	// Offline caller fails locally.
	sim.SetOnline("a", false)
	if _, err := a.Call(context.Background(), "b", echoReq{}); !errors.Is(err, ErrClosed) {
		t.Errorf("call from offline peer: %v", err)
	}
	if sim.OnlineCount() != 1 {
		t.Errorf("online count = %d", sim.OnlineCount())
	}
}

func TestSimClose(t *testing.T) {
	sim := NewSim(SimConfig{})
	a := sim.Endpoint("a")
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Call(context.Background(), "a", echoReq{}); !errors.Is(err, ErrClosed) {
		t.Errorf("call on closed endpoint: %v", err)
	}
	if a.Online() {
		t.Error("closed endpoint should not be online")
	}
}

func TestSimRemoteError(t *testing.T) {
	sim := NewSim(SimConfig{})
	a := sim.Endpoint("a")
	b := sim.Endpoint("b")
	b.Handle(func(context.Context, Addr, any) (any, error) {
		return nil, errors.New("boom")
	})
	_, err := a.Call(context.Background(), "b", echoReq{})
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "boom" {
		t.Errorf("err = %v, want RemoteError(boom)", err)
	}
}

func TestSimLoss(t *testing.T) {
	sim := NewSim(SimConfig{LossProbability: 1})
	a := sim.Endpoint("a")
	b := sim.Endpoint("b")
	b.Handle(echoHandler)
	if _, err := a.Call(context.Background(), "b", echoReq{}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("lossy call: %v", err)
	}
}

func TestSimLatencyAndContext(t *testing.T) {
	sim := NewSim(SimConfig{Latency: ConstantLatency(50 * time.Millisecond)})
	a := sim.Endpoint("a")
	b := sim.Endpoint("b")
	b.Handle(echoHandler)
	start := time.Now()
	if _, err := a.Call(context.Background(), "b", echoReq{}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 90*time.Millisecond {
		t.Errorf("round trip %v, expected >= 100ms of simulated latency", elapsed)
	}
	// A cancelled context aborts the call.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := a.Call(ctx, "b", echoReq{}); err == nil {
		t.Error("expected context deadline error")
	}
}

func TestSimTimeScale(t *testing.T) {
	sim := NewSim(SimConfig{Latency: ConstantLatency(time.Second), TimeScale: 1000})
	a := sim.Endpoint("a")
	b := sim.Endpoint("b")
	b.Handle(echoHandler)
	start := time.Now()
	if _, err := a.Call(context.Background(), "b", echoReq{}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Errorf("time scale not applied: %v", elapsed)
	}
}

func TestSimBandwidthAccounting(t *testing.T) {
	sim := NewSim(SimConfig{})
	a := sim.Endpoint("a")
	b := sim.Endpoint("b")
	b.Handle(echoHandler)
	if _, err := a.Call(context.Background(), "b", echoReq{Text: "x", Vals: []uint64{300}}); err != nil {
		t.Fatal(err)
	}
	// Request body: "x" (1+1) + one value (1+2) = 5 bytes; response body:
	// "echo:x" (1+6) + the same value (1+2) = 10 bytes. Only the caller
	// counts, both under the request's type.
	if got := a.BytesByType(); !reflect.DeepEqual(got, map[string]int64{"test.echo": 15}) {
		t.Errorf("caller bytes = %v, want test.echo: 15", got)
	}
	if got := b.BytesByType(); len(got) != 0 {
		t.Errorf("callee bytes = %v, want none", got)
	}
}

func TestSimEndpointIdempotent(t *testing.T) {
	sim := NewSim(SimConfig{})
	a1 := sim.Endpoint("a")
	a2 := sim.Endpoint("a")
	if a1 != a2 {
		t.Error("Endpoint should return the same instance for the same address")
	}
	if len(sim.Addrs()) != 1 {
		t.Error("Addrs should list one endpoint")
	}
}

func TestSimConcurrentCalls(t *testing.T) {
	sim := NewSim(SimConfig{Latency: ConstantLatency(time.Millisecond)})
	server := sim.Endpoint("server")
	server.Handle(echoHandler)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := sim.Endpoint(Addr(string(rune('A' + i%26))))
			_, err := client.Call(context.Background(), "server", echoReq{Text: "x"})
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent call failed: %v", err)
		}
	}
}

func TestPlanetLabLatencyPositive(t *testing.T) {
	sim := NewSim(SimConfig{Latency: PlanetLabLatency(10 * time.Millisecond), TimeScale: 100})
	a := sim.Endpoint("a")
	b := sim.Endpoint("b")
	b.Handle(echoHandler)
	for i := 0; i < 10; i++ {
		if _, err := a.Call(context.Background(), "b", echoReq{}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestConstantLatency(t *testing.T) {
	m := ConstantLatency(7 * time.Millisecond)
	if m("a", "b", nil) != 7*time.Millisecond {
		t.Error("constant latency wrong")
	}
}
