package harness

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc wraps one managed child process: start, structured log capture,
// graceful stop, hard kill, exit-status collection, and restart with the
// identical command line. It is the shared machinery under Node and Gate.
type proc struct {
	name    string // display name, e.g. "node-07" or "gate"
	binary  string
	args    []string
	logPath string

	mu      sync.Mutex
	cmd     *exec.Cmd
	logFile *os.File
	waitCh  chan struct{}
	waitErr error
	starts  int
}

// start launches the process, appending its combined output to the log
// file (restarts keep appending, separated by a banner, so one file holds
// the node's whole lifecycle).
func (p *proc) start() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cmd != nil {
		return fmt.Errorf("harness: %s already running", p.name)
	}
	f, err := os.OpenFile(p.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	p.starts++
	fmt.Fprintf(f, "=== %s start #%d: %s %s\n", p.name, p.starts, p.binary, strings.Join(p.args, " "))
	cmd := exec.Command(p.binary, p.args...)
	cmd.Stdout = f
	cmd.Stderr = f
	if err := cmd.Start(); err != nil {
		f.Close()
		return fmt.Errorf("harness: start %s: %w", p.name, err)
	}
	p.cmd = cmd
	p.logFile = f
	ch := make(chan struct{})
	p.waitCh = ch
	go func() {
		err := cmd.Wait()
		p.mu.Lock()
		p.waitErr = err
		p.cmd = nil
		p.logFile.Close()
		p.logFile = nil
		p.mu.Unlock()
		close(ch)
	}()
	return nil
}

// running reports whether the process is currently alive.
func (p *proc) running() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cmd != nil
}

// signal sends sig to the running process.
func (p *proc) signal(sig syscall.Signal) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cmd == nil {
		return fmt.Errorf("harness: %s not running", p.name)
	}
	return p.cmd.Process.Signal(sig)
}

// waitExit blocks until the process exits (returning its Wait error) or
// the timeout elapses.
func (p *proc) waitExit(timeout time.Duration) error {
	p.mu.Lock()
	ch := p.waitCh
	p.mu.Unlock()
	if ch == nil {
		return fmt.Errorf("harness: %s never started", p.name)
	}
	select {
	case <-ch:
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.waitErr
	case <-time.After(timeout):
		return fmt.Errorf("harness: %s still running after %v", p.name, timeout)
	}
}

// stop performs a graceful shutdown: SIGTERM, then SIGKILL if the process
// outlives the timeout. It returns the process's exit error (nil for a
// clean exit 0).
func (p *proc) stop(timeout time.Duration) error {
	if err := p.signal(syscall.SIGTERM); err != nil {
		return err
	}
	if err := p.waitExit(timeout); err != nil {
		_ = p.signal(syscall.SIGKILL)
		<-p.waitChan()
		return fmt.Errorf("harness: %s ignored SIGTERM for %v, killed", p.name, timeout)
	}
	return nil
}

// kill hard-kills the process (SIGKILL) and waits for it to be reaped —
// the harness's crash primitive: no drain, no checkpoint, whatever was
// mid-write stays torn.
func (p *proc) kill() error {
	if err := p.signal(syscall.SIGKILL); err != nil {
		return err
	}
	<-p.waitChan()
	return nil
}

func (p *proc) waitChan() chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.waitCh == nil {
		ch := make(chan struct{})
		close(ch)
		return ch
	}
	return p.waitCh
}

// log returns the process's captured output so far (all starts).
func (p *proc) log() string {
	b, err := os.ReadFile(p.logPath)
	if err != nil {
		return ""
	}
	return string(b)
}

// logTail returns the last n lines of the captured output.
func (p *proc) logTail(n int) string {
	lines := strings.Split(strings.TrimRight(p.log(), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// Node is one managed pgridnode process.
type Node struct {
	proc
	// Index is the node's position in the cluster (node 0 bootstraps).
	Index int
	// Addr is the node's protocol listen address — its identity in every
	// other peer's routing table, stable across restarts.
	Addr string
	// HTTPAddr is the node's gateway-API address ("" when the node does
	// not serve HTTP).
	HTTPAddr string
	// DataDir is the node's durable state directory ("" when volatile).
	DataDir string
}

// Running reports whether the node's process is alive.
func (n *Node) Running() bool { return n.running() }

// Stop shuts the node down gracefully (SIGTERM → checkpoint → exit 0) and
// returns its exit error.
func (n *Node) Stop(timeout time.Duration) error { return n.stop(timeout) }

// Kill crash-stops the node with SIGKILL and waits for the process to be
// reaped.
func (n *Node) Kill() error { return n.kill() }

// Signal sends an arbitrary signal to the node.
func (n *Node) Signal(sig syscall.Signal) error { return n.signal(sig) }

// Restart relaunches the node with its original command line — same
// listen address, same data dir — so it rejoins the overlay under its old
// identity, recovering whatever its data dir holds.
func (n *Node) Restart() error { return n.start() }

// Log returns the node's captured output (all starts, concatenated).
func (n *Node) Log() string { return n.log() }

// LogContains reports whether the captured output contains s.
func (n *Node) LogContains(s string) bool { return strings.Contains(n.log(), s) }

// WaitListening polls the node's protocol port until a TCP connection is
// accepted — the node's transport is up and its overlay state (including
// any durable recovery) is constructed, because pgridnode only listens
// after NewPersistent returns.
func (n *Node) WaitListening(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		conn, err := net.DialTimeout("tcp", n.Addr, 250*time.Millisecond)
		if err == nil {
			conn.Close()
			return nil
		}
		if !n.Running() {
			return fmt.Errorf("harness: %s exited while waiting for listen: log tail:\n%s", n.name, n.logTail(15))
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("harness: %s not listening on %s after %v; log tail:\n%s", n.name, n.Addr, timeout, n.logTail(15))
}

// WaitHTTPReady polls the node's /healthz until it answers 200.
func (n *Node) WaitHTTPReady(timeout time.Duration) error {
	if n.HTTPAddr == "" {
		return fmt.Errorf("harness: %s serves no HTTP API", n.name)
	}
	return waitHTTP("http://"+n.HTTPAddr+"/healthz", n.name, timeout)
}

// waitHTTP polls url until a 2xx answer or the deadline.
func waitHTTP(url, what string, timeout time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	var lastErr error
	for time.Now().Before(deadline) {
		resp, err := client.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode/100 == 2 {
				return nil
			}
			lastErr = fmt.Errorf("status %d", resp.StatusCode)
		} else {
			lastErr = err
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("harness: %s not ready at %s after %v (last: %v)", what, url, timeout, lastErr)
}
