package replica

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/storage"
)

// testLeader is an in-process leader node: durable engine plus the
// replication endpoints on a real HTTP listener.
type testLeader struct {
	engine *core.Engine
	store  *storage.Store
	leader *Leader
	srv    *httptest.Server
}

// testHeartbeat is the test leaders' idle-stream heartbeat, well under the
// test followers' 2s heartbeat timeout.
const testHeartbeat = 500 * time.Millisecond

// newTestLeader boots a leader over dir. wrap, when non-nil, decorates the
// replication handler (fault injection).
func newTestLeader(t *testing.T, dir string, wrap func(http.Handler) http.Handler) *testLeader {
	t.Helper()
	g := graph.New()
	st, err := storage.Open(dir, g, storage.Options{})
	if err != nil {
		t.Fatalf("storage.Open: %v", err)
	}
	e := core.NewEngine(g, core.Options{})
	e.SetDurability(st)

	mux := http.NewServeMux()
	srv := httptest.NewServer(mux)
	l := NewLeader(st, srv.URL, testHeartbeat)
	var h http.Handler = l.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	mux.Handle("/repl/", http.StripPrefix("/repl", h))
	t.Cleanup(srv.Close)
	t.Cleanup(func() { e.Close() })
	return &testLeader{engine: e, store: st, leader: l, srv: srv}
}

func (tl *testLeader) mustRun(t *testing.T, q string) {
	t.Helper()
	if _, err := tl.engine.Run(q, nil); err != nil {
		t.Fatalf("leader query failed: %s\n%v", q, err)
	}
}

// testFollower is an in-process follower node tailing a testLeader.
type testFollower struct {
	engine   *core.Engine
	follower *Follower
}

func newTestFollower(t *testing.T, dir, leaderURL string) *testFollower {
	t.Helper()
	g := graph.New()
	fs, err := storage.OpenFollower(dir, g, storage.Options{})
	if err != nil {
		t.Fatalf("storage.OpenFollower: %v", err)
	}
	e := core.NewEngine(g, core.Options{})
	e.SetFollowerOf(leaderURL)
	f := NewFollower(FollowerConfig{
		Leader:           leaderURL,
		Engine:           e,
		Store:            fs,
		HeartbeatTimeout: 2 * time.Second,
		BackoffMin:       10 * time.Millisecond,
		BackoffMax:       100 * time.Millisecond,
		Logf:             t.Logf,
	})
	f.Start()
	return &testFollower{engine: e, follower: f}
}

func (tf *testFollower) stop(t *testing.T) {
	t.Helper()
	if err := tf.follower.Stop(); err != nil {
		t.Fatalf("stop follower: %v", err)
	}
}

// waitConverged polls until the follower's applied state equals the leader's
// current graph (positions match and the store dumps are byte-identical).
func waitConverged(t *testing.T, tl *testLeader, tf *testFollower) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		lp, fp := tl.store.Position(), tf.follower.cfg.Store.Position()
		if lp == fp && tl.engine.Graph().DebugDump() == tf.engine.Graph().DebugDump() {
			return
		}
		if time.Now().After(deadline) {
			st := tf.follower.Stats()
			t.Fatalf("no convergence: leader at %v, follower at %v (state %s, lastErr %q)",
				lp, fp, st.State, st.LastError)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestFollowersConvergeAndServeReads(t *testing.T) {
	tl := newTestLeader(t, t.TempDir(), nil)
	tl.mustRun(t, `CREATE (:Person {name: 'Ada'})-[:KNOWS]->(:Person {name: 'Grace'})`)

	// Two followers, one joining after the first writes already committed.
	f1 := newTestFollower(t, t.TempDir(), tl.srv.URL)
	defer f1.stop(t)
	tl.mustRun(t, `CREATE (:Person {name: 'Alan'})`)
	f2 := newTestFollower(t, t.TempDir(), tl.srv.URL)
	defer f2.stop(t)
	tl.mustRun(t, `MATCH (p:Person {name: 'Ada'}) SET p.born = 1815`)

	waitConverged(t, tl, f1)
	waitConverged(t, tl, f2)

	// Reads on a follower answer from the replicated state.
	res, err := f1.engine.Run(`MATCH (p:Person) RETURN p.name ORDER BY p.name`, nil)
	if err != nil {
		t.Fatalf("follower read: %v", err)
	}
	if res.Len() != 3 {
		t.Fatalf("follower sees %d people, want 3", res.Len())
	}

	// Both followers report zero lag at convergence.
	for i, f := range []*testFollower{f1, f2} {
		st := f.follower.Stats()
		if st.LagEntries != 0 || st.LagBytes != 0 {
			t.Errorf("follower %d lag = %d entries / %d bytes, want 0/0", i+1, st.LagEntries, st.LagBytes)
		}
		if st.State != StateStreaming {
			t.Errorf("follower %d state = %s, want %s", i+1, st.State, StateStreaming)
		}
	}

	// Writes are rejected with the leader's address.
	_, err = f2.engine.Run(`CREATE (:Nope)`, nil)
	var ro *core.ReadOnlyReplicaError
	if !errors.As(err, &ro) {
		t.Fatalf("follower write err = %v, want ReadOnlyReplicaError", err)
	}
	if ro.Leader != tl.srv.URL {
		t.Fatalf("rejection points at %q, want %q", ro.Leader, tl.srv.URL)
	}

	// The leader sees both stream sessions.
	if st := tl.leader.Stats(); len(st.Followers) != 2 {
		t.Fatalf("leader reports %d sessions, want 2", len(st.Followers))
	}
}

// TestFollowerResumesFromWALOffset stops a follower, lets the leader commit
// more, and restarts the follower over the same directory: it must resume
// from its durable WAL offset (no snapshot install) and converge.
func TestFollowerResumesFromWALOffset(t *testing.T) {
	tl := newTestLeader(t, t.TempDir(), nil)
	fdir := t.TempDir()

	tl.mustRun(t, `CREATE (:Doc {rev: 1})`)
	f := newTestFollower(t, fdir, tl.srv.URL)
	waitConverged(t, tl, f)
	f.stop(t)

	for i := 2; i <= 5; i++ {
		tl.mustRun(t, fmt.Sprintf(`CREATE (:Doc {rev: %d})`, i))
	}

	f = newTestFollower(t, fdir, tl.srv.URL)
	defer f.stop(t)
	waitConverged(t, tl, f)
	if st := f.follower.Stats(); st.SnapshotCatchups != 0 {
		t.Fatalf("resume used %d snapshot catch-ups, want 0 (WAL offset resume)", st.SnapshotCatchups)
	}
}

// TestFollowerSnapshotCatchup truncates the leader's WAL past a stopped
// follower's position (checkpoint) and restarts the follower: the 410 path
// must install a whole snapshot and converge.
func TestFollowerSnapshotCatchup(t *testing.T) {
	tl := newTestLeader(t, t.TempDir(), nil)
	fdir := t.TempDir()

	tl.mustRun(t, `CREATE (:Doc {rev: 1})`)
	f := newTestFollower(t, fdir, tl.srv.URL)
	waitConverged(t, tl, f)
	f.stop(t)

	tl.mustRun(t, `CREATE (:Doc {rev: 2})`)
	if err := tl.engine.Checkpoint(); err != nil {
		t.Fatalf("leader checkpoint: %v", err)
	}
	tl.mustRun(t, `CREATE (:Doc {rev: 3})`)

	f = newTestFollower(t, fdir, tl.srv.URL)
	defer f.stop(t)
	waitConverged(t, tl, f)
	st := f.follower.Stats()
	if st.SnapshotCatchups < 1 {
		t.Fatalf("snapshot catch-ups = %d, want >= 1", st.SnapshotCatchups)
	}
	if st.Local.Gen != tl.store.Position().Gen {
		t.Fatalf("follower generation %d, leader %d", st.Local.Gen, tl.store.Position().Gen)
	}

	// The stream keeps flowing in the new generation.
	tl.mustRun(t, `CREATE (:Doc {rev: 4})`)
	waitConverged(t, tl, f)
}

// corruptingHandler flips one byte early in the body of the first /stream
// response, simulating a transport bit-flip. The follower must reject the
// frame and re-request it on a fresh connection (which is served intact).
type corruptingHandler struct {
	inner http.Handler
	mu    sync.Mutex
	done  bool
}

func (c *corruptingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/stream" {
		c.inner.ServeHTTP(w, r)
		return
	}
	c.mu.Lock()
	first := !c.done
	c.done = true
	c.mu.Unlock()
	if !first {
		c.inner.ServeHTTP(w, r)
		return
	}
	c.inner.ServeHTTP(&corruptWriter{ResponseWriter: w}, r)
}

// corruptWriter XORs the 30th body byte — inside the first entry frame's
// payload region for any realistic batch.
type corruptWriter struct {
	http.ResponseWriter
	n int
}

func (cw *corruptWriter) Write(p []byte) (int, error) {
	q := append([]byte(nil), p...)
	for i := range q {
		if cw.n+i == 30 {
			q[i] ^= 0xFF
		}
	}
	cw.n += len(q)
	return cw.ResponseWriter.Write(q)
}

func (cw *corruptWriter) Flush() {
	if f, ok := cw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func TestFollowerRerequestsCorruptFrame(t *testing.T) {
	tl := newTestLeader(t, t.TempDir(), func(h http.Handler) http.Handler {
		return &corruptingHandler{inner: h}
	})
	tl.mustRun(t, `CREATE (:Person {name: 'Ada', bio: 'first programmer, wrote notes on the analytical engine'})`)

	f := newTestFollower(t, t.TempDir(), tl.srv.URL)
	defer f.stop(t)
	waitConverged(t, tl, f)

	st := f.follower.Stats()
	if st.Reconnects < 1 {
		t.Fatalf("reconnects = %d, want >= 1 (the corrupt frame must force a re-request)", st.Reconnects)
	}
	if st.State == StateFailed {
		t.Fatalf("follower failed instead of re-requesting: %s", st.LastError)
	}
}
