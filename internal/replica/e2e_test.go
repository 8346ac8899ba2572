package replica_test

// End-to-end replication harness: builds the real cypher-serve binary, boots
// a three-node -peers cluster as separate OS processes, and drives the
// scenarios the CI replication job gates on — convergence to byte-identical
// query results, SIGKILL + restart with WAL-offset resume, leader
// truncation forcing snapshot catch-up, and leader failover.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildServe compiles cmd/cypher-serve once per test run.
func buildServe(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cypher-serve")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/cypher-serve")
	cmd.Dir = moduleRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build cypher-serve: %v\n%s", err, out)
	}
	return bin
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	return filepath.Dir(strings.TrimSpace(string(out)))
}

// freeAddr reserves an ephemeral port and releases it for the server to bind.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// node is one cypher-serve process.
type node struct {
	t    *testing.T
	bin  string
	addr string
	dir  string
	args []string
	cmd  *exec.Cmd
	logs *bytes.Buffer
}

func startNode(t *testing.T, bin, addr, dir string, extra ...string) *node {
	t.Helper()
	n := &node{t: t, bin: bin, addr: addr, dir: dir, args: extra, logs: &bytes.Buffer{}}
	n.start()
	t.Cleanup(func() { n.kill() })
	return n
}

func (n *node) start() {
	n.t.Helper()
	args := append([]string{"-addr", n.addr, "-data", n.dir}, n.args...)
	n.cmd = exec.Command(n.bin, args...)
	n.cmd.Stdout = n.logs
	n.cmd.Stderr = n.logs
	if err := n.cmd.Start(); err != nil {
		n.t.Fatalf("start %s: %v", n.addr, err)
	}
	n.waitHealthy()
}

// kill SIGKILLs the process — no graceful shutdown, no final checkpoint —
// exactly what a crashed node looks like.
func (n *node) kill() {
	if n.cmd != nil && n.cmd.Process != nil {
		n.cmd.Process.Kill()
		n.cmd.Wait()
		n.cmd = nil
	}
}

func (n *node) url() string { return "http://" + n.addr }

func (n *node) waitHealthy() {
	n.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(n.url() + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	n.t.Fatalf("node %s never became healthy; logs:\n%s", n.addr, n.logs.String())
}

// query POSTs one Cypher query and returns the raw response body and status.
func (n *node) query(q string) (int, []byte) {
	n.t.Helper()
	client := &http.Client{
		// Do not follow redirects: the follower's 307 IS the assertion.
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
	}
	body, _ := json.Marshal(map[string]any{"query": q})
	resp, err := client.Post(n.url()+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		n.t.Fatalf("query %s on %s: %v", q, n.addr, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

func (n *node) mustQuery(q string) []byte {
	n.t.Helper()
	status, body := n.query(q)
	if status != http.StatusOK {
		n.t.Fatalf("query %s on %s: status %d: %s", q, n.addr, status, body)
	}
	return body
}

// resultData reduces a query response to its data — columns and rows,
// re-marshaled deterministically — dropping per-request fields (timings).
// "Byte-identical results" means these bytes.
func (n *node) resultData(q string) []byte {
	n.t.Helper()
	var res struct {
		Columns json.RawMessage `json:"columns"`
		Rows    json.RawMessage `json:"rows"`
		Count   int             `json:"count"`
	}
	if err := json.Unmarshal(n.mustQuery(q), &res); err != nil {
		n.t.Fatalf("decode query response: %v", err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		n.t.Fatal(err)
	}
	return out
}

// replStats is the /stats replication section.
type replStats struct {
	Role     string `json:"role"`
	State    string `json:"state"`
	Position struct {
		Gen    uint64 `json:"gen"`
		Offset int64  `json:"offset"`
		Seq    uint64 `json:"seq"`
	} `json:"position"`
	LagEntries       int64  `json:"lagEntries"`
	LagBytes         int64  `json:"lagBytes"`
	SnapshotCatchups uint64 `json:"snapshotCatchups"`
	Reconnects       uint64 `json:"reconnects"`
	LastError        string `json:"lastError"`
}

func (n *node) replication() replStats {
	n.t.Helper()
	resp, err := http.Get(n.url() + "/stats")
	if err != nil {
		n.t.Fatalf("stats on %s: %v", n.addr, err)
	}
	defer resp.Body.Close()
	var out struct {
		Replication replStats `json:"replication"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		n.t.Fatalf("decode stats: %v", err)
	}
	return out.Replication
}

// waitConverged polls until the follower's position equals the leader's and
// its reported lag is zero.
func waitConverged(t *testing.T, leader, follower *node) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		ls, fs := leader.replication(), follower.replication()
		if ls.Position == fs.Position && fs.LagEntries == 0 && fs.LagBytes == 0 {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("follower %s never converged: leader %+v, follower %+v\nfollower logs:\n%s",
		follower.addr, leader.replication(), follower.replication(), follower.logs.String())
}

const checkQuery = `MATCH (d:Doc) RETURN d.rev ORDER BY d.rev`

// startCluster boots a three-node -peers cluster, each node over its own
// fresh data directory.
func startCluster(t *testing.T, bin, electionTimeout string) []*node {
	t.Helper()
	addrs := []string{freeAddr(t), freeAddr(t), freeAddr(t)}
	urls := make([]string, len(addrs))
	for i, a := range addrs {
		urls[i] = "http://" + a
	}
	peersCSV := strings.Join(urls, ",")
	nodes := make([]*node, len(addrs))
	for i := range nodes {
		nodes[i] = startNode(t, bin, addrs[i], t.TempDir(),
			"-peers", peersCSV, "-election-timeout", electionTimeout)
	}
	return nodes
}

func TestClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e harness; skipped in -short")
	}
	bin := buildServe(t)

	nodes := startCluster(t, bin, "1s")
	leader := waitElectedLeader(t, nodes, 15*time.Second)
	var followers []*node
	for _, n := range nodes {
		if n != leader {
			followers = append(followers, n)
		}
	}
	f1, f2 := followers[0], followers[1]

	// Drive writes at the leader and wait for both followers to catch up.
	for i := 1; i <= 20; i++ {
		leader.mustQuery(fmt.Sprintf(`CREATE (:Doc {rev: %d})`, i))
	}
	waitConverged(t, leader, f1)
	waitConverged(t, leader, f2)

	// All three nodes answer the same query byte-identically.
	want := leader.resultData(checkQuery)
	for _, f := range followers {
		if got := f.resultData(checkQuery); !bytes.Equal(got, want) {
			t.Fatalf("follower %s diverges from leader:\nleader:   %s\nfollower: %s", f.addr, want, got)
		}
	}

	// A write sent to a follower is redirected (307 + Location) to the leader.
	status, _ := f1.query(`CREATE (:Doc {rev: 999})`)
	if status != http.StatusTemporaryRedirect {
		t.Fatalf("follower write status %d, want 307", status)
	}

	// --- Crash and WAL-offset resume -----------------------------------
	// SIGKILL follower 1 mid-stream, keep writing (the leader and follower 2
	// still make a quorum), restart it over the same directory: it must
	// resume from its durable WAL offset (no snapshot).
	f1.kill()
	for i := 21; i <= 30; i++ {
		leader.mustQuery(fmt.Sprintf(`CREATE (:Doc {rev: %d})`, i))
	}
	f1.start()
	waitConverged(t, leader, f1)
	if rs := f1.replication(); rs.SnapshotCatchups != 0 {
		t.Fatalf("restarted follower used %d snapshot catch-ups, want 0 (WAL resume)", rs.SnapshotCatchups)
	}
	if got := f1.resultData(checkQuery); !bytes.Equal(got, leader.resultData(checkQuery)) {
		t.Fatalf("follower 1 diverges after restart")
	}

	// --- Truncation and snapshot catch-up ------------------------------
	// Kill follower 2, write more, force a checkpoint on the elected leader
	// (truncates the WAL generation follower 2 is parked in), restart it:
	// the 410 path must install a whole snapshot.
	f2.kill()
	for i := 31; i <= 40; i++ {
		leader.mustQuery(fmt.Sprintf(`CREATE (:Doc {rev: %d})`, i))
	}
	resp, err := http.Post(leader.url()+"/admin/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatalf("force checkpoint: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint status %d", resp.StatusCode)
	}
	f2.start()
	waitConverged(t, leader, f2)
	if rs := f2.replication(); rs.SnapshotCatchups < 1 {
		t.Fatalf("follower 2 snapshot catch-ups = %d, want >= 1", rs.SnapshotCatchups)
	}
	if got := f2.resultData(checkQuery); !bytes.Equal(got, leader.resultData(checkQuery)) {
		t.Fatalf("follower 2 diverges after snapshot catch-up")
	}

	// Zero lag at convergence is already asserted by waitConverged; check the
	// health endpoint agrees and reports the follower role.
	hr, err := http.Get(f2.url() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status     string `json:"status"`
		Role       string `json:"role"`
		LagEntries int64  `json:"lagEntries"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if health.Status != "ok" || health.Role != "follower" || health.LagEntries != 0 {
		t.Fatalf("healthz = %+v", health)
	}
}

// clusterState is the election view a clustered node reports on /stats.
type clusterState struct {
	Role          string `json:"role"`
	State         string `json:"state"`
	Term          uint64 `json:"term"`
	Leader        string `json:"leader"`
	LagEntries    int64  `json:"lagEntries"`
	ForcedResyncs uint64 `json:"forcedResyncs"`
	Position      struct {
		Gen    uint64 `json:"gen"`
		Offset int64  `json:"offset"`
		Seq    uint64 `json:"seq"`
	} `json:"position"`
}

func (n *node) clusterState() (clusterState, error) {
	resp, err := http.Get(n.url() + "/stats")
	if err != nil {
		return clusterState{}, err
	}
	defer resp.Body.Close()
	var out struct {
		Replication clusterState `json:"replication"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return clusterState{}, err
	}
	return out.Replication, nil
}

// waitElectedLeader polls the live nodes until exactly one reports the leader
// role and every other live node recognizes it.
func waitElectedLeader(t *testing.T, nodes []*node, timeout time.Duration) *node {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var lead *node
		count := 0
		for _, n := range nodes {
			st, err := n.clusterState()
			if err != nil {
				continue
			}
			if st.Role == "leader" {
				lead, count = n, count+1
			}
		}
		if count == 1 {
			agreed := true
			for _, n := range nodes {
				if n == lead {
					continue
				}
				if st, err := n.clusterState(); err != nil || st.Leader != lead.url() {
					agreed = false
					break
				}
			}
			if agreed {
				return lead
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	for _, n := range nodes {
		st, err := n.clusterState()
		t.Logf("node %s: state=%+v err=%v", n.addr, st, err)
	}
	t.Fatalf("no agreed leader within %v", timeout)
	return nil
}

// waitClusterQuiet polls until every live node sits at the same position with
// exactly one leader and zero follower lag.
func waitClusterQuiet(t *testing.T, nodes []*node) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		leaders, ok := 0, true
		var pos [][3]int64
		for _, n := range nodes {
			st, err := n.clusterState()
			if err != nil {
				ok = false
				break
			}
			switch st.Role {
			case "leader":
				leaders++
			case "follower":
				if st.LagEntries != 0 {
					ok = false
				}
			default:
				ok = false
			}
			pos = append(pos, [3]int64{int64(st.Position.Gen), st.Position.Offset, int64(st.Position.Seq)})
		}
		if ok && leaders == 1 {
			same := true
			for _, p := range pos {
				if p != pos[0] {
					same = false
					break
				}
			}
			if same {
				return
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	for _, n := range nodes {
		st, err := n.clusterState()
		t.Logf("node %s: state=%+v err=%v\nlogs:\n%s", n.addr, st, err, n.logs.String())
	}
	t.Fatal("cluster never quiesced to one leader with zero lag")
}

// commitRevs drives write load at the cluster through a redirect-following
// client, posting each rev to the nodes round-robin and recording the ones
// acknowledged with a 200 — which, in cluster mode, certifies a quorum
// commit. Failed or ambiguous revs are abandoned, not retried: the invariant
// under test is that every acknowledged rev survives, not that every attempt
// lands.
func commitRevs(t *testing.T, nodes []*node, next *int, want int) []int {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	var acked []int
	deadline := time.Now().Add(45 * time.Second)
	for len(acked) < want && time.Now().Before(deadline) {
		rev := *next
		*next++
		target := nodes[rev%len(nodes)]
		body, _ := json.Marshal(map[string]any{"query": fmt.Sprintf(`CREATE (:Doc {rev: %d})`, rev)})
		resp, err := client.Post(target.url()+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			time.Sleep(50 * time.Millisecond)
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			acked = append(acked, rev)
			continue
		}
		// 503 (leaderless window) or a refused redirect to a dead leader:
		// back off briefly and keep the load going.
		time.Sleep(50 * time.Millisecond)
	}
	if len(acked) < want {
		t.Fatalf("only %d/%d writes acknowledged before the deadline", len(acked), want)
	}
	return acked
}

// revSet reads the distinct committed revs a node holds.
func (n *node) revSet() map[int]bool {
	n.t.Helper()
	var res struct {
		Rows [][]any `json:"rows"`
	}
	if err := json.Unmarshal(n.mustQuery(`MATCH (d:Doc) RETURN DISTINCT d.rev ORDER BY d.rev`), &res); err != nil {
		n.t.Fatalf("decode revs: %v", err)
	}
	out := make(map[int]bool, len(res.Rows))
	for _, row := range res.Rows {
		if f, ok := row[0].(float64); ok {
			out[int(f)] = true
		}
	}
	return out
}

// TestClusterFailover is the chaos harness the failover CI job runs: a
// three-node -peers cluster under write load loses its leader to SIGKILL —
// twice — and must re-elect within ten seconds each time, lose no
// acknowledged write, and fence the resurrected ex-leader back to follower.
func TestClusterFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process failover harness; skipped in -short")
	}
	bin := buildServe(t)

	nodes := startCluster(t, bin, "750ms")
	lead1 := waitElectedLeader(t, nodes, 15*time.Second)
	next := 1
	acked := commitRevs(t, nodes, &next, 15)

	// --- First failover ------------------------------------------------
	lead1.kill()
	killedAt := time.Now()
	var survivors []*node
	for _, n := range nodes {
		if n != lead1 {
			survivors = append(survivors, n)
		}
	}
	lead2 := waitElectedLeader(t, survivors, 10*time.Second)
	t.Logf("re-elected %s %v after SIGKILL", lead2.addr, time.Since(killedAt))
	acked = append(acked, commitRevs(t, survivors, &next, 15)...)

	// Resurrect the ex-leader: it must rejoin as a follower of the new
	// leader — its generation is fenced, so a write sent straight to it is
	// redirected, never applied as if it still led.
	lead1.start()
	deadline := time.Now().Add(15 * time.Second)
	for {
		st, err := lead1.clusterState()
		if err == nil && st.Role == "follower" && st.Leader == lead2.url() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ex-leader never rejoined as follower: %+v (err %v)\nlogs:\n%s", st, err, lead1.logs.String())
		}
		time.Sleep(25 * time.Millisecond)
	}
	if status, _ := lead1.query(`CREATE (:Doc {rev: 100000})`); status != http.StatusTemporaryRedirect {
		t.Fatalf("write to the fenced ex-leader: status %d, want 307", status)
	}

	// --- Second failover -----------------------------------------------
	lead2.kill()
	killedAt = time.Now()
	survivors = survivors[:0]
	for _, n := range nodes {
		if n != lead2 {
			survivors = append(survivors, n)
		}
	}
	lead3 := waitElectedLeader(t, survivors, 10*time.Second)
	t.Logf("re-elected %s %v after second SIGKILL", lead3.addr, time.Since(killedAt))
	acked = append(acked, commitRevs(t, survivors, &next, 10)...)

	// Full strength again: everyone converges on one history.
	lead2.start()
	waitClusterQuiet(t, nodes)

	// Zero lost committed writes: every acknowledged rev is on every node,
	// and all three answer the check query byte-identically.
	want := nodes[0].resultData(checkQuery)
	for _, n := range nodes {
		revs := n.revSet()
		for _, rev := range acked {
			if !revs[rev] {
				t.Fatalf("node %s lost acknowledged rev %d", n.addr, rev)
			}
		}
		if got := n.resultData(checkQuery); !bytes.Equal(got, want) {
			t.Fatalf("node %s diverges:\nwant %s\ngot  %s", n.addr, want, got)
		}
	}

	// --- In-place recovery (/admin/resync) ------------------------------
	// Force a follower to rebuild from the leader's snapshot without a
	// restart; it must converge again and count the forced resync.
	var follower *node
	for _, n := range nodes {
		if st, err := n.clusterState(); err == nil && st.Role == "follower" {
			follower = n
			break
		}
	}
	if follower == nil {
		t.Fatal("no follower available for resync")
	}
	resp, err := http.Post(follower.url()+"/admin/resync", "application/json", nil)
	if err != nil {
		t.Fatalf("admin resync: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin resync status %d", resp.StatusCode)
	}
	waitClusterQuiet(t, nodes)
	if st, err := follower.clusterState(); err != nil || st.ForcedResyncs < 1 {
		t.Fatalf("forced resyncs = %d (err %v), want >= 1", st.ForcedResyncs, err)
	}
	if got := follower.resultData(checkQuery); !bytes.Equal(got, want) {
		t.Fatal("follower diverges after forced resync")
	}
}

// TestServeFlagValidation covers the replication flag matrix without booting
// a cluster: invalid combinations must exit non-zero with a pointed message,
// and the flags of the deleted static topology must no longer parse.
func TestServeFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes; skipped in -short")
	}
	bin := buildServe(t)
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-role", "leader"}, "flag provided but not defined: -role"},
		{[]string{"-follow", "http://x"}, "flag provided but not defined: -follow"},
		{[]string{"-heartbeat-timeout", "5s"}, "flag provided but not defined: -heartbeat-timeout"},
		{[]string{"-heartbeat-interval", "1s"}, "flag provided but not defined: -heartbeat-interval"},
		{[]string{"-role", "leader", "-data", "x", "-peers", "http://a,http://b"}, "flag provided but not defined: -role"},
		{[]string{"-follow", "http://a", "-data", "x", "-peers", "http://a,http://b"}, "flag provided but not defined: -follow"},
		{[]string{"-peers", "http://a,http://b"}, "-peers requires -data"},
		{[]string{"-peers", "http://a,http://b", "-data", "x", "-dataset", "social"}, "-dataset cannot be used with -peers"},
		{[]string{"-peers", "http://a,http://b", "-data", "x", "-checkpoint-every", "1m"}, "-checkpoint-every cannot be used with -peers"},
		{[]string{"-peers", "http://a,http://b", "-data", "x", "-heartbeat-timeout", "5s"}, "flag provided but not defined: -heartbeat-timeout"},
		{[]string{"-election-timeout", "2s"}, "-election-timeout requires -peers"},
	}
	for _, tc := range cases {
		cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, tc.args...)...)
		out, err := cmd.CombinedOutput()
		if err == nil {
			cmd.Process.Kill()
			t.Errorf("args %v: expected a validation exit, server started", tc.args)
			continue
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("args %v: output %q does not contain %q", tc.args, out, tc.want)
		}
	}
}
