// Lease-based leader election over the replication stream. A Cluster wraps
// one node's replication machinery — the engine, the follower store/tailer,
// and (when elected) the leader stream server — and runs the coordination
// protocol between them:
//
//   - Every node persists a monotonic election term (storage.TermRecord)
//     next to its WAL generation. The term is the cluster's logical clock:
//     stamped on every stream frame, checked against the fence on every
//     append and every ApplyReplicatedTerm.
//   - The leader's lease is renewed by follower acknowledgements riding the
//     existing /repl/stream heartbeat channel (every applied entry and every
//     position heartbeat POSTs /repl/ack back). Lose a quorum of recent acks
//     and the leader degrades to read-only (writes answer 503 + Retry-After)
//     rather than accepting writes it cannot commit.
//   - Followers watch stream silence. When the heartbeat watchdog fires they
//     campaign over POST /repl/vote: a pre-vote round (no state change)
//     verifies a quorum is reachable and grantable, then the real campaign
//     durably bumps the term and collects votes. Highest (generation,
//     WAL offset) wins; voters refuse candidates behind their own log, so a
//     majority-committed entry can never be elected away.
//   - The winner promotes in place — the tailer stops (keeping the store),
//     FollowerStore.Promote hands the open WAL to a leader-side Store, the
//     engine flips to writer — and immediately checkpoints. The generation
//     bump is the second fence: every old-generation stream position,
//     including a deposed leader's divergent tail, resolves to 410 Gone and
//     whole-snapshot catch-up instead of a silent mismatch.
//   - A deposed leader that resurfaces steps down on the first higher term
//     it sees (vote request, declare broadcast, ack reply or stream frame),
//     demotes its store back to a FollowerStore, and re-tails the winner.
//     Its late writes are refused fail-stop by everyone else's term fence.
//
// The protocol is Raft's election core (terms, majority votes, up-to-date
// check, randomized timeouts, pre-vote) adapted to this engine's primitives:
// WAL positions take the place of (lastLogTerm, lastLogIndex) — sound here
// because follower logs are byte-identical prefixes of their leader's within
// a generation, and every leadership change starts a fresh generation.
package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
)

// DefaultElectionTimeout is how long a follower tolerates leader silence
// before campaigning, and the base unit the other cluster timings derive
// from. Deployments that want sub-second failover lower it via
// ClusterConfig.ElectionTimeout (cypher-serve -election-timeout).
const DefaultElectionTimeout = 3 * time.Second

// ClusterConfig configures one node of a replication cluster.
type ClusterConfig struct {
	// Dir is the node's data directory; the term record persists there.
	Dir string
	// Advertise is this node's public base URL (scheme://host:port). It is
	// the node's identity in votes and acks.
	Advertise string
	// Peers are the base URLs of every cluster member. Advertise may be
	// included (it is filtered out); quorum is computed over the full set.
	Peers []string
	// Engine is the local engine; the cluster flips its role and durable
	// store at promotion/demotion.
	Engine *core.Engine
	// Store is the node's follower store, opened with storage.OpenFollower.
	// Every node boots as a follower; the first election decides who
	// promotes.
	Store *storage.FollowerStore

	// ElectionTimeout is the leader-silence threshold before campaigning
	// (default DefaultElectionTimeout). Actual campaign starts are jittered
	// to desynchronize simultaneous candidates. It is also the leader's
	// lease: how stale the newest quorum of acks may grow before the leader
	// degrades writes to 503.
	ElectionTimeout time.Duration

	// Logf logs election and failover events; default log.Printf.
	Logf func(format string, args ...any)
}

// peerAck is the freshest acknowledgement a leader holds from one peer.
type peerAck struct {
	pos storage.Position
	at  time.Time
}

// stepdown is a pending leader→follower transition, recorded by HTTP
// handlers (which must stay cheap) and executed by the supervisor.
type stepdown struct {
	term   uint64
	leader string // "" = unknown; discovery finds the winner
}

// Cluster runs one node's side of the election protocol. Create with
// NewCluster, mount Handler under /repl, then Start.
type Cluster struct {
	cfg ClusterConfig
	// heartbeat is the leader's idle stream heartbeat, and thus the
	// ack/lease renewal cadence: ElectionTimeout/6.
	heartbeat time.Duration
	peers     []string // excluding self
	quorum    int      // majority of the full member set

	client *http.Client // votes, acks, declares, info probes

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	notify chan struct{} // supervisor wake-up

	mu        sync.Mutex
	term      uint64
	votedFor  string
	role      string // RoleFollower | RoleCandidate | RoleLeader
	leaderURL string // advertised URL of the recognized leader ("" = none)
	fstore    *storage.FollowerStore
	lstore    *storage.Store
	tailer    *Follower
	tailTo    string // the leader URL the current tailer follows
	leaderObj *Leader
	leaderAt  time.Time // when this node became leader (lease grace)
	degraded  bool      // leader without a live quorum lease
	acks      map[string]peerAck
	ackNotify chan struct{} // closed+replaced whenever an ack lands
	pending   *stepdown
	resyncAt  time.Time // last automatic resync of a parked tailer

	elections atomic.Uint64
	resyncs   atomic.Uint64 // admin/auto resyncs routed through the cluster
}

// NewCluster builds the node. The engine starts leaderless read-only; Start
// begins discovery/elections.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Advertise == "" {
		return nil, fmt.Errorf("replica: cluster needs an advertise URL")
	}
	if cfg.Engine == nil || cfg.Store == nil {
		return nil, fmt.Errorf("replica: cluster needs an engine and a follower store")
	}
	if cfg.ElectionTimeout <= 0 {
		cfg.ElectionTimeout = DefaultElectionTimeout
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	rec, err := storage.LoadTermRecord(cfg.Dir)
	if err != nil {
		return nil, err
	}
	peers := make([]string, 0, len(cfg.Peers))
	total := 1 // self
	for _, p := range cfg.Peers {
		if p == "" || p == cfg.Advertise {
			continue
		}
		peers = append(peers, p)
		total++
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Cluster{
		cfg:       cfg,
		heartbeat: cfg.ElectionTimeout / 6,
		peers:     peers,
		quorum:    total/2 + 1,
		client:    &http.Client{Timeout: cfg.ElectionTimeout},
		ctx:       ctx,
		cancel:    cancel,
		notify:    make(chan struct{}, 1),
		term:      rec.Term,
		votedFor:  rec.VotedFor,
		role:      RoleFollower,
		fstore:    cfg.Store,
		acks:      map[string]peerAck{},
		ackNotify: make(chan struct{}),
	}
	// The fence starts at the persisted term: anything from an older term
	// was already superseded before this node last went down.
	cfg.Engine.SetFenceTerm(rec.Term)
	cfg.Store.SetFenceTerm(rec.Term)
	return c, nil
}

// Start boots the node read-only and launches the supervisor, which
// discovers an existing leader or campaigns.
func (c *Cluster) Start() {
	c.cfg.Engine.SetLeaderless()
	c.wg.Add(1)
	go c.run()
	c.kick()
}

// Stop shuts the supervisor down and closes whichever store side is open.
func (c *Cluster) Stop() error {
	c.cancel()
	c.wg.Wait()
	c.mu.Lock()
	t, fs, ls := c.tailer, c.fstore, c.lstore
	c.tailer, c.fstore, c.lstore, c.leaderObj = nil, nil, nil, nil
	c.mu.Unlock()
	var err error
	if t != nil {
		err = t.Stop() // closes fs
	} else if fs != nil {
		err = fs.Close()
	}
	if ls != nil {
		if cerr := ls.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Term returns the node's current election term.
func (c *Cluster) Term() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.term
}

// Role returns the node's current role (RoleLeader, RoleFollower or
// RoleCandidate).
func (c *Cluster) Role() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.role
}

// LeaderURL returns the advertised URL of the leader this node currently
// recognizes ("" while campaigning or booting).
func (c *Cluster) LeaderURL() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leaderURL
}

// Resync asks the node's tailer to recover via snapshot catch-up
// (POST /admin/resync). Returns an error on the leader, which has no tailer.
func (c *Cluster) Resync() error {
	c.mu.Lock()
	t := c.tailer
	role := c.role
	c.mu.Unlock()
	if role == RoleLeader || t == nil {
		return fmt.Errorf("replica: resync applies to followers (role %s)", role)
	}
	c.resyncs.Add(1)
	t.Resync()
	return nil
}

// kick wakes the supervisor without waiting for its next tick.
func (c *Cluster) kick() {
	select {
	case c.notify <- struct{}{}:
	default:
	}
}

// run is the supervisor: a reconciliation loop that compares the desired
// role/leader state (mutated cheaply by HTTP handlers and callbacks) with
// the running components (tailer, leader server) and converges them. All
// heavy transitions — promote, demote, campaign — happen here, on one
// goroutine, so they serialize without holding c.mu across I/O.
func (c *Cluster) run() {
	defer c.wg.Done()
	for {
		tick := c.cfg.ElectionTimeout / 4
		tick = tick/2 + time.Duration(rand.Int63n(int64(tick)))
		select {
		case <-c.ctx.Done():
			return
		case <-c.notify:
		case <-time.After(tick):
		}
		c.reconcile()
	}
}

func (c *Cluster) reconcile() {
	c.mu.Lock()
	role := c.role
	pending := c.pending
	c.pending = nil
	c.mu.Unlock()

	if pending != nil && role == RoleLeader {
		c.stepDown(pending)
		return
	}
	switch role {
	case RoleLeader:
		c.checkLease()
	default:
		c.reconcileFollower()
	}
}

// reconcileFollower converges the follower side: find a leader, tail it,
// campaign when it goes silent.
func (c *Cluster) reconcileFollower() {
	c.mu.Lock()
	leader := c.leaderURL
	tailer := c.tailer
	tailTo := c.tailTo
	c.mu.Unlock()

	if leader == "" {
		leader = c.discoverLeader()
	}
	if leader == "" {
		c.campaign()
		return
	}
	if tailer == nil || tailTo != leader {
		c.startTailer(leader)
		return
	}
	st := tailer.Stats()
	if st.State == StateFailed {
		// A parked tailer (divergent log, stale-term stream) cannot heal by
		// reconnecting; whole-snapshot resync repairs it in place. Rate-limit
		// so a persistent failure does not loop hot.
		c.mu.Lock()
		due := time.Since(c.resyncAt) > c.cfg.ElectionTimeout
		if due {
			c.resyncAt = time.Now()
		}
		c.mu.Unlock()
		if due {
			c.cfg.Logf("replica: tailer parked (%s); forcing snapshot resync", st.LastError)
			c.resyncs.Add(1)
			tailer.Resync()
		}
		return
	}
	if silence := time.Since(tailer.LastContact()); silence > c.cfg.ElectionTimeout {
		c.cfg.Logf("replica: no frame from leader %s for %v; campaigning", leader, silence.Round(time.Millisecond))
		c.mu.Lock()
		c.leaderURL = ""
		c.mu.Unlock()
		c.cfg.Engine.SetLeaderless()
		c.campaign()
	}
}

// discoverLeader probes peers' /repl/info for a live leader at our term or
// newer, adopting the newest term seen. Returns the leader URL or "".
func (c *Cluster) discoverLeader() string {
	c.mu.Lock()
	myTerm := c.term
	c.mu.Unlock()
	var (
		best     string
		bestTerm uint64
	)
	for _, p := range c.peers {
		info, err := c.fetchInfo(p)
		if err != nil {
			continue
		}
		if info.Term < myTerm {
			continue
		}
		claim := info.Leader
		if info.Role == RoleLeader {
			claim = info.Advertise
		}
		if claim != "" && claim != c.cfg.Advertise && (best == "" || info.Term > bestTerm) {
			best, bestTerm = claim, info.Term
		}
	}
	if best == "" {
		return ""
	}
	c.observeTerm(bestTerm)
	c.mu.Lock()
	if c.role == RoleLeader { // raced a successful campaign
		c.mu.Unlock()
		return ""
	}
	c.leaderURL = best
	c.mu.Unlock()
	c.cfg.Engine.SetFollowerOf(best)
	c.cfg.Logf("replica: discovered leader %s (term %d)", best, bestTerm)
	return best
}

// startTailer (re)points the stream tailer at leader, reusing the open
// follower store.
func (c *Cluster) startTailer(leader string) {
	c.mu.Lock()
	old := c.tailer
	fs := c.fstore
	c.tailer, c.tailTo = nil, ""
	c.mu.Unlock()
	if old != nil {
		old.Shutdown(false)
	}
	if fs == nil { // raced a promotion
		return
	}
	f := NewFollower(FollowerConfig{
		Leader:           leader,
		Engine:           c.cfg.Engine,
		Store:            fs,
		HeartbeatTimeout: c.cfg.ElectionTimeout,
		BackoffMin:       c.heartbeat / 4,
		BackoffMax:       c.cfg.ElectionTimeout / 2,
		Logf:             c.cfg.Logf,
		OnAck:            c.sendAck,
		OnTermObserved:   c.observeTerm,
	})
	f.Start()
	c.mu.Lock()
	c.tailer, c.tailTo = f, leader
	c.mu.Unlock()
	c.cfg.Engine.SetFollowerOf(leader)
}

// campaign runs one election round: jittered pause, pre-vote, durable term
// bump, real vote, promotion on majority.
func (c *Cluster) campaign() {
	c.mu.Lock()
	if c.role == RoleLeader || c.fstore == nil {
		c.mu.Unlock()
		return
	}
	c.role = RoleCandidate
	curTerm := c.term
	pos := c.fstore.Position()
	c.mu.Unlock()
	c.cfg.Engine.SetLeaderless()
	c.elections.Add(1)

	// Randomized pause so simultaneous campaigners split; a declare arriving
	// meanwhile (someone else won) aborts.
	select {
	case <-c.ctx.Done():
		return
	case <-time.After(time.Duration(rand.Int63n(int64(c.cfg.ElectionTimeout / 2)))):
	}
	c.mu.Lock()
	aborted := c.leaderURL != "" || c.role != RoleCandidate || c.term != curTerm
	c.mu.Unlock()
	if aborted {
		c.demoteCandidate()
		return
	}

	// Pre-vote: would a majority grant term+1? No durable state moves on
	// either side, so a partitioned node probing forever cannot inflate the
	// cluster's term or disrupt a healthy leader.
	if !c.requestVotes(curTerm+1, pos, true) {
		c.demoteCandidate()
		return
	}

	// Real campaign: persist the bumped term with our own vote BEFORE asking
	// anyone (a crash must not forget the candidacy and double-vote).
	c.mu.Lock()
	if c.term != curTerm || c.role != RoleCandidate {
		c.mu.Unlock()
		c.demoteCandidate()
		return
	}
	newTerm := curTerm + 1
	if err := storage.SaveTermRecord(c.cfg.Dir, storage.TermRecord{Term: newTerm, VotedFor: c.cfg.Advertise}); err != nil {
		c.mu.Unlock()
		c.cfg.Logf("replica: cannot persist term %d, aborting campaign: %v", newTerm, err)
		c.demoteCandidate()
		return
	}
	c.term = newTerm
	c.votedFor = c.cfg.Advertise
	c.applyFenceLocked(newTerm)
	c.mu.Unlock()

	if !c.requestVotes(newTerm, pos, false) {
		c.demoteCandidate()
		return
	}
	c.mu.Lock()
	won := c.term == newTerm && c.role == RoleCandidate
	c.mu.Unlock()
	if !won {
		c.demoteCandidate()
		return
	}
	c.becomeLeader(newTerm)
}

// demoteCandidate returns a failed candidate to the follower role; the next
// reconcile re-discovers or re-campaigns with fresh jitter.
func (c *Cluster) demoteCandidate() {
	c.mu.Lock()
	if c.role == RoleCandidate {
		c.role = RoleFollower
	}
	c.mu.Unlock()
}

// requestVotes asks every peer for term; counting our own vote, true means
// a majority granted. Any newer term in a reply is adopted and loses the
// campaign.
func (c *Cluster) requestVotes(term uint64, pos storage.Position, prevote bool) bool {
	granted := 1 // self
	if granted >= c.quorum {
		return true // single-node cluster
	}
	raw, _ := json.Marshal(voteRequest{Term: term, Candidate: c.cfg.Advertise, Pos: pos, PreVote: prevote})
	ctx, cancel := context.WithTimeout(c.ctx, c.cfg.ElectionTimeout/2)
	defer cancel()
	ch := make(chan voteResponse, len(c.peers))
	for _, p := range c.peers {
		go func(peer string) {
			var resp voteResponse
			if err := c.postJSON(ctx, peer+"/repl/vote", raw, &resp); err != nil {
				resp = voteResponse{} // unreachable = not granted
			}
			ch <- resp
		}(p)
	}
	for range c.peers {
		select {
		case <-ctx.Done():
			return false
		case resp := <-ch:
			if resp.Term > term {
				c.observeTerm(resp.Term)
				return false
			}
			if resp.Granted {
				granted++
			}
			if granted >= c.quorum {
				return true
			}
		}
	}
	return false
}

// becomeLeader promotes this node: stop tailing, hand the WAL to a
// leader-side store, flip the engine to writer, checkpoint (the generation
// fence), and announce.
func (c *Cluster) becomeLeader(term uint64) {
	c.mu.Lock()
	t := c.tailer
	fs := c.fstore
	c.tailer, c.tailTo = nil, ""
	c.mu.Unlock()
	if t != nil {
		t.Shutdown(false)
	}
	if fs == nil {
		return
	}
	s, err := fs.Promote()
	if err != nil {
		c.cfg.Logf("replica: promotion failed: %v", err)
		c.demoteCandidate()
		return
	}
	c.cfg.Engine.PromoteToWriter(s)
	c.cfg.Engine.SetFenceTerm(term)
	l := NewLeader(s, c.cfg.Advertise, c.heartbeat)
	l.SetTerm(term)

	c.mu.Lock()
	c.fstore = nil
	c.lstore = s
	c.leaderObj = l
	c.role = RoleLeader
	c.leaderURL = c.cfg.Advertise
	c.leaderAt = time.Now()
	c.degraded = false
	c.acks = map[string]peerAck{}
	c.mu.Unlock()

	// The generation fence: a fresh snapshot+WAL generation means every
	// stream position from the old one — a healthy follower's or a deposed
	// leader's divergent tail alike — answers 410 Gone and converges through
	// snapshot catch-up onto exactly this node's history.
	if err := c.cfg.Engine.Checkpoint(); err != nil {
		c.cfg.Logf("replica: post-election checkpoint failed: %v", err)
	}
	c.cfg.Logf("replica: won election for term %d; leading at %s", term, c.cfg.Advertise)
	c.broadcastDeclare(term)
}

// broadcastDeclare announces leadership (best-effort; discovery and stream
// frames converge any peer that misses it).
func (c *Cluster) broadcastDeclare(term uint64) {
	raw, _ := json.Marshal(declareRequest{Term: term, Leader: c.cfg.Advertise})
	ctx, cancel := context.WithTimeout(c.ctx, c.cfg.ElectionTimeout/2)
	defer cancel()
	var wg sync.WaitGroup
	for _, p := range c.peers {
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			var resp termResponse
			if err := c.postJSON(ctx, peer+"/repl/declare", raw, &resp); err == nil && resp.Term > term {
				c.observeTerm(resp.Term)
			}
		}(p)
	}
	wg.Wait()
}

// stepDown demotes a deposed leader back to follower: engine first (stops
// new writes), then the store (ends live stream sessions), then re-tail the
// winner when known.
func (c *Cluster) stepDown(sd *stepdown) {
	c.mu.Lock()
	if c.role != RoleLeader {
		c.mu.Unlock()
		return
	}
	c.leaderObj = nil // stream/snapshot handlers answer 503 from here on
	c.mu.Unlock()

	c.cfg.Logf("replica: stepping down (term %d, new leader %q)", sd.term, sd.leader)
	s := c.cfg.Engine.DemoteToReplica(sd.leader)
	if s == nil {
		c.mu.Lock()
		s = c.lstore
		c.mu.Unlock()
	}
	fs, err := s.Demote()
	if err != nil {
		// The store would not demote (failed state mid-write, ...). The node
		// stays read-only; operators see the error in stats/logs.
		c.cfg.Logf("replica: store demotion failed: %v", err)
		return
	}
	c.mu.Lock()
	c.lstore = nil
	c.fstore = fs
	c.role = RoleFollower
	c.leaderURL = sd.leader
	term := c.term
	c.applyFenceLocked(term)
	c.mu.Unlock()
	c.kick() // reconcile starts the tailer (or discovery) immediately
}

// checkLease verifies the leader still holds a quorum of recent acks;
// without one it degrades writes to 503 until the quorum returns, and probes
// for a newer leader it may have missed while partitioned.
func (c *Cluster) checkLease() {
	c.mu.Lock()
	need := c.quorum - 1
	fresh := 0
	for _, a := range c.acks {
		if time.Since(a.at) <= c.cfg.ElectionTimeout {
			fresh++
		}
	}
	grace := time.Since(c.leaderAt) < c.cfg.ElectionTimeout
	degraded := need > 0 && fresh < need && !grace
	was := c.degraded
	c.degraded = degraded
	c.mu.Unlock()

	switch {
	case degraded && !was:
		c.cfg.Logf("replica: quorum lease lost (%d/%d fresh acks); degrading writes", fresh, need)
		c.cfg.Engine.SetLeaderless()
	case !degraded && was:
		c.cfg.Logf("replica: quorum lease restored")
		c.cfg.Engine.SetFollowerOf("") // back to writer
	}
	if degraded {
		// A partitioned ex-leader heals by finding the new term on its own.
		for _, p := range c.peers {
			info, err := c.fetchInfo(p)
			if err != nil {
				continue
			}
			if info.Term > c.Term() {
				c.observeTerm(info.Term)
				break
			}
		}
	}
}

// observeTerm adopts a newer election term: persist, raise the fences and —
// on a leader — queue the stepdown. Safe from any goroutine.
func (c *Cluster) observeTerm(term uint64) {
	c.mu.Lock()
	if term <= c.term {
		c.mu.Unlock()
		return
	}
	if err := storage.SaveTermRecord(c.cfg.Dir, storage.TermRecord{Term: term}); err != nil {
		c.cfg.Logf("replica: cannot persist observed term %d: %v", term, err)
		c.mu.Unlock()
		return
	}
	c.term = term
	c.votedFor = ""
	c.applyFenceLocked(term)
	wasLeader := c.role == RoleLeader
	if wasLeader {
		c.pending = &stepdown{term: term}
		c.leaderURL = ""
	} else {
		// The leader we knew belonged to an older term.
		if c.role == RoleCandidate {
			c.role = RoleFollower
		}
	}
	c.mu.Unlock()
	if wasLeader {
		c.cfg.Engine.SetLeaderless()
	}
	c.kick()
}

// applyFenceLocked raises the term fence on the engine and whichever store
// side is live. Callers hold c.mu.
func (c *Cluster) applyFenceLocked(term uint64) {
	c.cfg.Engine.SetFenceTerm(term)
	if c.fstore != nil {
		c.fstore.SetFenceTerm(term)
	}
}

// sendAck is the tailer's OnAck callback: acknowledge the durable position
// to the current leader. It doubles as lease renewal; the reply's term heals
// a follower that missed an election.
func (c *Cluster) sendAck(pos storage.Position) {
	c.mu.Lock()
	leader := c.leaderURL
	term := c.term
	c.mu.Unlock()
	if leader == "" || leader == c.cfg.Advertise {
		return
	}
	raw, _ := json.Marshal(ackRequest{Peer: c.cfg.Advertise, Term: term, Pos: pos})
	ctx, cancel := context.WithTimeout(c.ctx, c.cfg.ElectionTimeout/2)
	defer cancel()
	var resp termResponse
	if err := c.postJSON(ctx, leader+"/repl/ack", raw, &resp); err == nil && resp.Term > term {
		c.observeTerm(resp.Term)
	}
}

// WaitCommitted blocks until a majority of the cluster has durably
// acknowledged pos (the leader itself counts), the context ends, or this
// node stops leading. The serving layer calls it after each write query so a
// 200 means majority-committed, not merely leader-durable.
func (c *Cluster) WaitCommitted(ctx context.Context, pos storage.Position) error {
	for {
		c.mu.Lock()
		if c.role != RoleLeader {
			c.mu.Unlock()
			return fmt.Errorf("replica: no longer the leader; the write may or may not survive the failover")
		}
		need := c.quorum - 1
		have := 0
		for _, a := range c.acks {
			if a.pos.Gen == pos.Gen && a.pos.Offset >= pos.Offset {
				have++
			}
		}
		ch := c.ackNotify
		c.mu.Unlock()
		if have >= need {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("replica: write applied on the leader but not yet acknowledged by a quorum: %w", ctx.Err())
		case <-c.ctx.Done():
			return fmt.Errorf("replica: cluster shutting down before the write reached a quorum")
		case <-ch:
		}
	}
}

// Position returns the node's current durable stream position.
func (c *Cluster) Position() storage.Position {
	c.mu.Lock()
	fs, ls := c.fstore, c.lstore
	c.mu.Unlock()
	if ls != nil {
		return ls.Position()
	}
	if fs != nil {
		return fs.Position()
	}
	return storage.Position{}
}

// Stats merges the live component's replication stats with the election
// state (term, recognized leader, quorum, ack freshness).
func (c *Cluster) Stats() Stats {
	c.mu.Lock()
	role := c.role
	term := c.term
	leaderURL := c.leaderURL
	l := c.leaderObj
	t := c.tailer
	fs := c.fstore
	acked := 0
	for _, a := range c.acks {
		if time.Since(a.at) <= c.cfg.ElectionTimeout {
			acked++
		}
	}
	degraded := c.degraded
	c.mu.Unlock()

	var st Stats
	switch {
	case role == RoleLeader && l != nil:
		st = l.Stats()
		if degraded {
			st.State = "degraded"
		}
	case t != nil:
		st = t.Stats()
	default:
		st = Stats{Role: role, State: StateConnecting, LagEntries: -1, LagBytes: -1}
		if fs != nil {
			st.Local = fs.Position()
		}
	}
	st.Role = role
	st.Term = term
	st.ClusterLeader = leaderURL
	st.QuorumSize = c.quorum
	st.AckedPeers = acked
	st.Elections = c.elections.Load()
	st.ForcedResyncs += c.resyncs.Load()
	return st
}

// ---- HTTP surface ----------------------------------------------------------

// voteRequest asks for (or pre-probes) a vote in Term.
type voteRequest struct {
	Term      uint64           `json:"term"`
	Candidate string           `json:"candidate"`
	Pos       storage.Position `json:"pos"`
	PreVote   bool             `json:"preVote"`
}

// voteResponse is the voter's verdict plus its current term.
type voteResponse struct {
	Term    uint64 `json:"term"`
	Granted bool   `json:"granted"`
}

// declareRequest announces an elected leader.
type declareRequest struct {
	Term   uint64 `json:"term"`
	Leader string `json:"leader"`
}

// ackRequest acknowledges a follower's durable position to the leader.
type ackRequest struct {
	Peer string           `json:"peer"`
	Term uint64           `json:"term"`
	Pos  storage.Position `json:"pos"`
}

// termResponse carries the responder's term back (declare, ack).
type termResponse struct {
	Term uint64 `json:"term"`
}

// infoResponse is the /repl/info discovery document.
type infoResponse struct {
	Term      uint64           `json:"term"`
	Role      string           `json:"role"`
	Leader    string           `json:"leader"`
	Advertise string           `json:"advertise"`
	Pos       storage.Position `json:"pos"`
}

// Handler returns the node's replication endpoints: the leader's stream
// surface (served only while leading) plus the election endpoints. Mount
// under /repl with http.StripPrefix.
func (c *Cluster) Handler() http.Handler {
	mux := http.NewServeMux()
	serveLeader := func(w http.ResponseWriter, r *http.Request) {
		c.mu.Lock()
		l := c.leaderObj
		leader := c.leaderURL
		c.mu.Unlock()
		if l == nil {
			w.Header().Set("Retry-After", "1")
			if leader != "" {
				w.Header().Set("X-Repl-Leader", leader)
			}
			http.Error(w, "replica: not the leader", http.StatusServiceUnavailable)
			return
		}
		l.Handler().ServeHTTP(w, r)
	}
	mux.HandleFunc("/position", serveLeader)
	mux.HandleFunc("/stream", serveLeader)
	mux.HandleFunc("/snapshot", serveLeader)
	mux.HandleFunc("/vote", c.handleVote)
	mux.HandleFunc("/declare", c.handleDeclare)
	mux.HandleFunc("/ack", c.handleAck)
	mux.HandleFunc("/info", c.handleInfo)
	return mux
}

func (c *Cluster) handleVote(w http.ResponseWriter, r *http.Request) {
	var req voteRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	c.mu.Lock()
	resp := voteResponse{Term: c.term}
	switch {
	case req.Term < c.term:
		// Stale candidate; the reply's term heals it.
	case c.heardFromLeaderLocked() && req.Candidate != c.leaderURL:
		// Leader stickiness: we have recent proof of a live leader, so this
		// candidacy is noise (an isolated node, a jittery link). Refuse
		// without adopting the term — that is what stops a flapping peer
		// from deposing a healthy leader.
	case req.PreVote:
		resp.Granted = c.candidateUpToDateLocked(req.Pos)
	default:
		if req.Term > c.term {
			if err := storage.SaveTermRecord(c.cfg.Dir, storage.TermRecord{Term: req.Term}); err != nil {
				c.cfg.Logf("replica: cannot persist term %d for vote: %v", req.Term, err)
				break
			}
			c.term = req.Term
			c.votedFor = ""
			resp.Term = req.Term
			c.applyFenceLocked(req.Term)
			if c.role == RoleLeader {
				c.pending = &stepdown{term: req.Term}
				c.leaderURL = ""
				defer func() { c.cfg.Engine.SetLeaderless(); c.kick() }()
			} else if c.role == RoleCandidate {
				c.role = RoleFollower
			}
		}
		grant := (c.votedFor == "" || c.votedFor == req.Candidate) && c.candidateUpToDateLocked(req.Pos)
		if grant && c.votedFor != req.Candidate {
			// The vote must be durable before the reply leaves: forgetting it
			// across a crash could elect two leaders in one term.
			if err := storage.SaveTermRecord(c.cfg.Dir, storage.TermRecord{Term: c.term, VotedFor: req.Candidate}); err != nil {
				c.cfg.Logf("replica: cannot persist vote: %v", err)
				grant = false
			} else {
				c.votedFor = req.Candidate
			}
		}
		resp.Granted = grant
	}
	c.mu.Unlock()
	writeJSON(w, resp)
}

// heardFromLeaderLocked reports recent proof of a live leader (a stream
// frame within the election timeout).
func (c *Cluster) heardFromLeaderLocked() bool {
	if c.role != RoleFollower || c.leaderURL == "" || c.tailer == nil {
		return false
	}
	return time.Since(c.tailer.LastContact()) < c.cfg.ElectionTimeout
}

// candidateUpToDateLocked is the election safety rule: grant only to a
// candidate whose log is at least as complete as ours. Generations order
// leadership lineages (every election checkpoints into a fresh one); within
// a generation, logs are byte-identical prefixes of the same history, so the
// WAL offset is a total order.
func (c *Cluster) candidateUpToDateLocked(pos storage.Position) bool {
	var local storage.Position
	if c.fstore != nil {
		local = c.fstore.Position()
	} else if c.lstore != nil {
		local = c.lstore.Position()
	}
	if pos.Gen != local.Gen {
		return pos.Gen > local.Gen
	}
	return pos.Offset >= local.Offset
}

func (c *Cluster) handleDeclare(w http.ResponseWriter, r *http.Request) {
	var req declareRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	c.mu.Lock()
	if req.Term < c.term || req.Leader == "" {
		resp := termResponse{Term: c.term}
		c.mu.Unlock()
		writeJSON(w, resp)
		return
	}
	if req.Term > c.term {
		if err := storage.SaveTermRecord(c.cfg.Dir, storage.TermRecord{Term: req.Term}); err != nil {
			c.cfg.Logf("replica: cannot persist declared term %d: %v", req.Term, err)
			resp := termResponse{Term: c.term}
			c.mu.Unlock()
			writeJSON(w, resp)
			return
		}
		c.term = req.Term
		c.votedFor = ""
	}
	c.applyFenceLocked(req.Term)
	c.leaderURL = req.Leader
	wasLeader := c.role == RoleLeader && req.Leader != c.cfg.Advertise
	if wasLeader {
		c.pending = &stepdown{term: req.Term, leader: req.Leader}
	} else if c.role == RoleCandidate {
		c.role = RoleFollower
	}
	resp := termResponse{Term: c.term}
	c.mu.Unlock()
	if wasLeader {
		c.cfg.Engine.SetLeaderless()
	} else {
		c.cfg.Engine.SetFollowerOf(req.Leader)
	}
	c.kick()
	writeJSON(w, resp)
}

func (c *Cluster) handleAck(w http.ResponseWriter, r *http.Request) {
	var req ackRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	c.mu.Lock()
	if req.Term > c.term {
		resp := termResponse{Term: c.term}
		c.mu.Unlock()
		c.observeTerm(req.Term)
		writeJSON(w, resp)
		return
	}
	if c.role == RoleLeader && req.Term == c.term && req.Peer != "" {
		c.acks[req.Peer] = peerAck{pos: req.Pos, at: time.Now()}
		close(c.ackNotify)
		c.ackNotify = make(chan struct{})
	}
	resp := termResponse{Term: c.term}
	c.mu.Unlock()
	writeJSON(w, resp)
}

func (c *Cluster) handleInfo(w http.ResponseWriter, _ *http.Request) {
	c.mu.Lock()
	info := infoResponse{
		Term:      c.term,
		Role:      c.role,
		Leader:    c.leaderURL,
		Advertise: c.cfg.Advertise,
	}
	fs, ls := c.fstore, c.lstore
	c.mu.Unlock()
	if ls != nil {
		info.Pos = ls.Position()
	} else if fs != nil {
		info.Pos = fs.Position()
	}
	writeJSON(w, info)
}

// fetchInfo GETs a peer's /repl/info.
func (c *Cluster) fetchInfo(peer string) (infoResponse, error) {
	ctx, cancel := context.WithTimeout(c.ctx, c.cfg.ElectionTimeout/2)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/repl/info", nil)
	if err != nil {
		return infoResponse{}, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return infoResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return infoResponse{}, fmt.Errorf("replica: info %s: %s", peer, resp.Status)
	}
	var info infoResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&info); err != nil {
		return infoResponse{}, err
	}
	return info, nil
}

// postJSON POSTs raw to url and decodes the JSON reply into out.
func (c *Cluster) postJSON(ctx context.Context, url string, raw []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("replica: %s: %s: %s", url, resp.Status, string(body))
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(out)
}

// writeJSON answers 200 with v as a JSON body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// decodeJSON parses a request body, answering 400 on garbage.
func decodeJSON(w http.ResponseWriter, r *http.Request, out any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(out); err != nil {
		http.Error(w, fmt.Sprintf("replica: bad request body: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}
