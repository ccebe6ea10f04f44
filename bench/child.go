package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/internal/hdfsraid"
	"repro/internal/obs"
)

// buildHdfscli compiles the real cmd/hdfscli from the checkout into
// the bench's build directory. The go command's own cache makes the
// second and later calls cheap.
func buildHdfscli(root, buildDir string) (string, error) {
	bin := filepath.Join(buildDir, "hdfscli")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/hdfscli")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building hdfscli: %v\n%s", err, out)
	}
	return bin, nil
}

// readyWatcher receives the child's standard output and hands over the
// base URL from its readiness line, "serving N shards on http://ADDR".
type readyWatcher struct {
	mu    sync.Mutex
	buf   []byte
	ready chan string
	sent  bool
}

func (w *readyWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sent {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	const marker = " on http://"
	if i := bytes.Index(w.buf, []byte(marker)); i >= 0 {
		if j := bytes.IndexByte(w.buf[i:], '\n'); j >= 0 {
			w.ready <- "http://" + string(w.buf[i+len(marker):i+j])
			w.sent = true
			w.buf = nil
		}
	}
	return len(p), nil
}

// child is a running `hdfscli serve` over one serving root.
type child struct {
	cmd    *exec.Cmd
	base   string
	exited chan error
	// stopped and usage are set by the first stop.
	stopped bool
	usage   childUsage
}

// running holds the children that are alive, so that a signal to the
// bench can take them down with it.
var running struct {
	sync.Mutex
	set map[*child]bool
}

// killChildren is the signal path: no drain, just make sure nothing the
// bench started outlives it.
func killChildren() {
	running.Lock()
	defer running.Unlock()
	for c := range running.set {
		c.cmd.Process.Kill()
		<-c.exited
	}
}

// startChild launches the server on a free loopback port and waits for
// its readiness line.
func startChild(hdfscli, root string) (*child, error) {
	w := &readyWatcher{ready: make(chan string, 1)}
	cmd := exec.Command(hdfscli, "-store", root, "serve", "-addr", "127.0.0.1:0")
	cmd.Stdout = w
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, exited: make(chan error, 1)}
	go func() { c.exited <- cmd.Wait() }()
	running.Lock()
	if running.set == nil {
		running.set = map[*child]bool{}
	}
	running.set[c] = true
	running.Unlock()
	select {
	case c.base = <-w.ready:
		return c, nil
	case err := <-c.exited:
		return nil, fmt.Errorf("hdfscli serve exited before it was ready: %v", err)
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		<-c.exited
		return nil, fmt.Errorf("hdfscli serve was not ready within 30s")
	}
}

// childUsage is what the kernel accounted to the child over its life.
type childUsage struct {
	cpu       time.Duration
	maxRSSMiB float64
}

// stop drains the child with SIGTERM, waits until it has exited, and
// returns its resource usage. A second call returns the first's usage.
func (c *child) stop() (childUsage, error) {
	if c.stopped {
		return c.usage, nil
	}
	c.stopped = true
	running.Lock()
	delete(running.set, c)
	running.Unlock()
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-c.exited:
		if err != nil {
			return childUsage{}, fmt.Errorf("hdfscli serve: %v", err)
		}
	case <-time.After(40 * time.Second):
		c.cmd.Process.Kill()
		<-c.exited
		return childUsage{}, fmt.Errorf("hdfscli serve did not drain within 40s")
	}
	ps := c.cmd.ProcessState
	c.usage = childUsage{cpu: ps.UserTime() + ps.SystemTime()}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		c.usage.maxRSSMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return c.usage, nil
}

// stats reads the server's always-on counters from GET /stats.
func (c *child) stats() (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := http.Get(c.base + "/stats")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("GET /stats: %s", resp.Status)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// killNode erases node v of every shard the way an operator would, with
// one `hdfscli kill` per shard store, while the server keeps running.
// The server's self-healing reads write blocks back into the very
// directory being erased, which can fail the erase with "directory not
// empty"; it is retried until it has won.
func killNode(hdfscli, root string, shards, v int) error {
	for i := 0; i < shards; i++ {
		dir := filepath.Join(root, fmt.Sprintf("shard-%02d", i))
		var out []byte
		var err error
		for try := 0; try < 10; try++ {
			if out, err = exec.Command(hdfscli, "-store", dir, "kill", fmt.Sprint(v)).CombinedOutput(); err == nil {
				break
			}
		}
		if err != nil {
			return fmt.Errorf("hdfscli kill %d on %s: %v\n%s", v, dir, err, out)
		}
	}
	return nil
}

// repairNode asks the server to rebuild node v on every shard and
// returns what it restored and how long the request took.
func (c *child) repairNode(v int) (hdfsraid.RepairReport, time.Duration, error) {
	var rep hdfsraid.RepairReport
	start := time.Now()
	resp, err := http.Post(fmt.Sprintf("%s/admin/repair?node=%d", c.base, v), "", nil)
	if err != nil {
		return rep, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return rep, 0, fmt.Errorf("POST /admin/repair: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&rep)
	return rep, time.Since(start), err
}
