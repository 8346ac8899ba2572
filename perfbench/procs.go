package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// registry tracks every server process and temporary directory this run
// created, so that every exit path (normal end, failed check, signal) kills
// and removes them.
var registry struct {
	sync.Mutex
	procs []*proc
	dirs  []string
}

func track(dir string) {
	registry.Lock()
	registry.dirs = append(registry.dirs, dir)
	registry.Unlock()
}

// cleanup kills every server still running, waits for each to exit and
// removes the temporary directories. It is safe to call more than once.
func cleanup() {
	registry.Lock()
	procs, dirs := registry.procs, registry.dirs
	registry.procs, registry.dirs = nil, nil
	registry.Unlock()
	for _, p := range procs {
		p.kill()
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// A proc is a started server process; done closes once it has exited and
// been reaped.
type proc struct {
	cmd  *exec.Cmd
	done chan struct{}
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

func (p *proc) kill() {
	_ = p.cmd.Process.Kill() // fails only when the process already exited
	<-p.done
}

// A node is one cypher-serve process.
type node struct {
	url  string
	p    *proc
	logf string
}

func (n *node) stop() {
	registry.Lock()
	for i, p := range registry.procs {
		if p == n.p {
			registry.procs = append(registry.procs[:i], registry.procs[i+1:]...)
			break
		}
	}
	registry.Unlock()
	n.p.kill()
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (n *node) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", n.p.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("read peak rss: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", n.p.cmd.Process.Pid)
}

// logTail returns the end of the node's log, for error reports.
func (n *node) logTail() string {
	b, _ := os.ReadFile(n.logf) // best effort: the log only decorates an error
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("find a free loopback port: %w", err)
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

func spawn(serve, logf string, args ...string) (*proc, error) {
	lf, err := os.Create(logf)
	if err != nil {
		return nil, fmt.Errorf("create server log: %w", err)
	}
	defer lf.Close()
	c := exec.Command(serve, args...)
	c.Stdout, c.Stderr = lf, lf
	// Pdeathsig kills the server should this program die without running
	// its cleanup (SIGKILL, a crash).
	c.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	registry.Lock()
	defer registry.Unlock()
	if err := c.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", serve, err)
	}
	p := &proc{cmd: c, done: make(chan struct{})}
	go func() {
		_ = c.Wait() // the exit status is either our kill or reported via the log
		close(p.done)
	}()
	registry.procs = append(registry.procs, p)
	return p, nil
}

// A deployment is the set of servers one workload drives: a single node, or
// a three-node cluster whose leader takes the writes.
type deployment struct {
	nodes     []*node
	leader    *node
	followers []*node
	dir       string
}

func (d *deployment) stop() {
	for _, n := range d.nodes {
		n.stop()
	}
	os.RemoveAll(d.dir)
}

func (d *deployment) peakRSSMB() (float64, error) {
	var sum float64
	for _, n := range d.nodes {
		mb, err := n.peakRSSMB()
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// roles names each node's role: single, leader or follower.
func (d *deployment) roles() []string {
	out := make([]string, len(d.nodes))
	for i, n := range d.nodes {
		switch {
		case len(d.followers) == 0:
			out[i] = "single"
		case n == d.leader:
			out[i] = "leader"
		default:
			out[i] = "follower"
		}
	}
	return out
}

// deploy starts the workload's servers and returns once they can take the
// first timed request: the dataset is built, or the cluster has elected a
// leader, committed the account load and every follower has applied it.
func deploy(cfg *config, w *workload, rep int) (*deployment, error) {
	dir := filepath.Join(cfg.workdir, fmt.Sprintf("%s-%d", w.name, rep))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("create run dir: %w", err)
	}
	track(dir)
	d := &deployment{dir: dir}
	if !w.cluster {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		n := &node{url: fmt.Sprintf("http://127.0.0.1:%d", port), logf: filepath.Join(dir, "serve.log")}
		n.p, err = spawn(cfg.serve, n.logf,
			"-addr", fmt.Sprintf("127.0.0.1:%d", port),
			"-dataset", "social", "-size", strconv.Itoa(w.people),
			"-parallelism", strconv.Itoa(w.parallelism))
		if err != nil {
			return nil, err
		}
		d.nodes, d.leader = []*node{n}, n
		return d, waitHealthy(n, 120*time.Second)
	}

	var urls []string
	for i := 0; i < 3; i++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		urls = append(urls, fmt.Sprintf("http://127.0.0.1:%d", port))
	}
	for i, u := range urls {
		n := &node{url: u, logf: filepath.Join(dir, fmt.Sprintf("node%d.log", i))}
		var err error
		n.p, err = spawn(cfg.serve, n.logf,
			"-addr", strings.TrimPrefix(u, "http://"),
			"-data", filepath.Join(dir, fmt.Sprintf("n%d", i)),
			"-sync", syncPolicy,
			"-peers", strings.Join(urls, ","),
			"-election-timeout", electionTimeout.String())
		if err != nil {
			return nil, err
		}
		d.nodes = append(d.nodes, n)
	}
	if err := d.waitLeader(60 * time.Second); err != nil {
		return nil, err
	}
	if _, err := postOK(d.leader.url, acctLoad, nil); err != nil {
		return nil, fmt.Errorf("load accounts: %w", err)
	}
	if _, err := d.waitConverged(60 * time.Second); err != nil {
		return nil, err
	}
	// A follower reports a position once the batch is journaled, which can
	// be a moment before the batch is visible to its readers; set-up ends
	// when every follower's readers see the accounts.
	return d, d.waitVisible(60 * time.Second)
}

// waitVisible polls every follower until its readers see all accounts.
func (d *deployment) waitVisible(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for _, f := range d.followers {
		for {
			n, err := queryInts(f.url, "MATCH (a:Acct) RETURN count(a) AS n")
			if err != nil {
				return err
			}
			if n[0] == acctKeys {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("follower %s sees %d of %d accounts after %v", f.url, n[0], acctKeys, limit)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

const (
	syncPolicy      = "always"
	electionTimeout = time.Second
)

var httpc = &http.Client{
	Transport: &http.Transport{
		Proxy:               nil,
		MaxIdleConnsPerHost: 8,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	},
	Timeout: 60 * time.Second,
}

func getJSON(url string, into any) error {
	resp, err := httpc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body) // only decorates the error
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, b)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// postOK sends one query and returns its body, failing on any status but 200.
func postOK(base, query string, params map[string]any) ([]byte, error) {
	body, err := json.Marshal(map[string]any{"query": query, "params": params})
	if err != nil {
		return nil, err
	}
	resp, err := httpc.Post(base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s/query %q: %s: %s", base, query, resp.Status, b)
	}
	return b, nil
}

type health struct {
	Role       string   `json:"role"`
	Leader     string   `json:"leader"`
	Term       uint64   `json:"term"`
	Position   position `json:"position"`
	LagEntries int64    `json:"lagEntries"`
}

type position struct {
	Gen    uint64 `json:"gen"`
	Offset int64  `json:"offset"`
}

func waitHealthy(n *node, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		var h health
		if err := getJSON(n.url+"/healthz", &h); err == nil {
			return nil
		}
		if n.p.exited() || time.Now().After(deadline) {
			return fmt.Errorf("server %s did not become healthy within %v; log:\n%s", n.url, limit, n.logTail())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitLeader polls until exactly one node leads and every node names it.
func (d *deployment) waitLeader(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		var lead *node
		leaders, agreed := 0, true
		hs := make([]health, len(d.nodes))
		for i, n := range d.nodes {
			if err := getJSON(n.url+"/healthz", &hs[i]); err != nil {
				agreed = false
				continue
			}
			if hs[i].Role == "leader" {
				leaders++
				lead = n
			}
		}
		if agreed && leaders == 1 {
			for _, h := range hs {
				if h.Leader != lead.url || h.Term != hs[0].Term {
					agreed = false
				}
			}
			if agreed {
				d.leader, d.followers = lead, nil
				for _, n := range d.nodes {
					if n != lead {
						d.followers = append(d.followers, n)
					}
				}
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("cluster elected no leader within %v; leader log:\n%s", limit, d.nodes[0].logTail())
}

// waitConverged polls until every follower's stream position equals the
// leader's and returns how long that took.
func (d *deployment) waitConverged(limit time.Duration) (time.Duration, error) {
	start := time.Now()
	for {
		var lead health
		if err := getJSON(d.leader.url+"/healthz", &lead); err != nil {
			return 0, err
		}
		done := true
		for _, f := range d.followers {
			var h health
			if err := getJSON(f.url+"/healthz", &h); err != nil {
				return 0, err
			}
			if h.Position != lead.Position {
				done = false
			}
		}
		if done {
			return time.Since(start), nil
		}
		if time.Since(start) > limit {
			return 0, fmt.Errorf("followers did not catch up with the leader within %v", limit)
		}
		time.Sleep(time.Millisecond)
	}
}

// A lagSampler polls every follower's lag behind the leader, in entries,
// every 50 ms until stopped.
type lagSampler struct {
	quit chan struct{}
	max  chan int64
}

func startLagSampler(d *deployment) *lagSampler {
	l := &lagSampler{quit: make(chan struct{}), max: make(chan int64)}
	go func() {
		var m int64
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-l.quit:
				l.max <- m
				return
			case <-t.C:
				for _, f := range d.followers {
					var h health
					if getJSON(f.url+"/healthz", &h) == nil && h.LagEntries > m {
						m = h.LagEntries
					}
				}
			}
		}
	}()
	return l
}

// stop ends the sampling and returns the largest lag seen.
func (l *lagSampler) stop() int64 {
	close(l.quit)
	return <-l.max
}
