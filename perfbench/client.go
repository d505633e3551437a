package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// requestTimeout bounds every request the benchmark sends. A request that
// times out is a failure, and a failure's latency is recorded as this
// limit: it counts as missing any latency limit a report could set.
const requestTimeout = 60 * time.Second

// opResult is the outcome of one HTTP request.
type opResult struct {
	lat   time.Duration
	ok    bool
	body  []byte
	cache string
	err   error
}

// client sends requests to one server and keeps the failure accounting:
// anything but a 200 with a fully read body — a 429 shed, a 5xx, a
// timeout, a broken connection — is a failure.
type client struct {
	base string
	http *http.Client
}

func newClient(base string, timeout time.Duration) *client {
	return &client{base: base, http: &http.Client{
		Timeout:   timeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
	}}
}

func (c *client) do(method, path string, body []byte) opResult {
	start := time.Now()
	res := c.send(method, path, body)
	res.lat = time.Since(start)
	if !res.ok {
		res.lat = c.http.Timeout
	}
	return res
}

func (c *client) send(method, path string, body []byte) opResult {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return opResult{err: err}
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return opResult{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return opResult{err: err}
	}
	res := opResult{body: b, cache: resp.Header.Get("X-KG-Cache")}
	if resp.StatusCode != http.StatusOK {
		res.err = fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, firstLine(b))
		return res
	}
	res.ok = true
	return res
}

func firstLine(b []byte) string {
	s := string(b)
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// tally accumulates the outcomes of one kind of operation.
type tally struct {
	mu        sync.Mutex
	lat       []time.Duration
	attempted int
	failed    int
	firstErr  error
}

func (t *tally) add(r opResult) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.lat = append(t.lat, r.lat)
	if !r.ok {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = r.err
		}
	}
}

// ---- the server under test ----

// serverProc is one spawned kgserve.
type serverProc struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	log    *os.File
}

// freePort asks the kernel for a free loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer spawns bin with args plus a loopback -addr and waits for the
// first 200 from /healthz. It returns the time from spawn to healthy.
func startServer(ctx context.Context, bin string, args []string, logPath string) (*serverProc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, fmt.Errorf("picking a port: %w", err)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append(append([]string(nil), args...), "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should this process die without stopping the server, the kernel
	// stops it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &serverProc{cmd: cmd, base: "http://" + addr, exited: make(chan struct{}), log: logf}
	go func() {
		cmd.Wait() //nolint:errcheck // a crash shows as failed requests
		close(p.exited)
	}()
	hc := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-p.exited:
			logf.Close()
			return nil, 0, fmt.Errorf("%s exited before becoming healthy (see %s)", bin, logPath)
		case <-ctx.Done():
			p.stop()
			return nil, 0, fmt.Errorf("waiting for %s to become healthy: %w", bin, ctx.Err())
		default:
		}
		resp, err := hc.Get(p.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained only to reuse the connection
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(start), nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func (p *serverProc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// stop asks the server to shut down gracefully and waits until it has
// exited, killing it if it does not stop in time.
func (p *serverProc) stop() {
	defer p.log.Close()
	p.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // it may have exited already
	select {
	case <-p.exited:
		return
	case <-time.After(30 * time.Second):
	}
	p.cmd.Process.Kill() //nolint:errcheck // it may have exited already
	<-p.exited
}
