package replica

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/storage"
)

// FollowerConfig configures a Follower.
type FollowerConfig struct {
	// Leader is the leader's base URL (scheme://host:port); the replication
	// endpoints are expected under Leader + "/repl".
	Leader string
	// Engine is the local read-only engine batches are applied through.
	Engine *core.Engine
	// Store is the local durable log the stream is journaled into. The
	// follower owns it after Start: Stop closes it.
	Store *storage.FollowerStore

	// HeartbeatTimeout declares the stream dead when no frame (entry or
	// heartbeat) arrives for this long. Required (positive); it must exceed
	// the leader's heartbeat interval by a healthy margin.
	HeartbeatTimeout time.Duration
	// VerifyTimeout bounds the governed verification read the follower runs
	// after installing a snapshot, proving the engine actually serves
	// queries over the new state; default 5s, negative disables the check.
	VerifyTimeout time.Duration
	// BackoffMin/BackoffMax bound the exponential reconnect backoff;
	// defaults 100ms / 5s. Each delay gets ±50% jitter so a fleet of
	// followers does not reconnect in lockstep.
	BackoffMin, BackoffMax time.Duration

	// Logf logs follower lifecycle events; default log.Printf.
	Logf func(format string, args ...any)

	// OnAck, when set, is called after every durably applied entry and after
	// every position heartbeat, with the follower's current durable position.
	// The cluster layer uses it to acknowledge the leader (commit quorum) —
	// and, because it fires on heartbeats too, it doubles as the leader's
	// lease renewal over the existing stream channel.
	OnAck func(storage.Position)
	// OnTermObserved, when set, is called with every stream frame's election
	// term. The cluster layer adopts (and persists) terms newer than its own.
	OnTermObserved func(term uint64)
}

// Follower tails a leader's replication stream: journal each shipped entry
// into the local WAL (durability first), apply it through the engine's MVCC
// publish cycle (visibility second), and reconnect from the last durable
// offset — with exponential backoff plus jitter — whenever the stream dies.
// When the leader has truncated past this follower's position it falls back
// to downloading and installing a whole snapshot.
type Follower struct {
	cfg    FollowerConfig
	client *http.Client

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu        sync.Mutex
	state     string
	leaderPos storage.Position
	lastErr   string

	reconnects    atomic.Uint64
	catchups      atomic.Uint64
	forcedResyncs atomic.Uint64

	// lastFrame is the unix-nano arrival time of the newest frame, fed to
	// the liveness watchdog (and, via LastContact, to the election layer's
	// leader-silence watchdog).
	lastFrame atomic.Int64

	// resyncCh carries Resync requests into the run loop; buffered so an
	// admin's trigger is never lost even while a catch-up is in flight.
	resyncCh chan struct{}
}

// NewFollower creates a follower; call Start to begin tailing.
func NewFollower(cfg FollowerConfig) *Follower {
	if cfg.VerifyTimeout == 0 {
		cfg.VerifyTimeout = 5 * time.Second
	}
	if cfg.BackoffMin <= 0 {
		cfg.BackoffMin = 100 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 5 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Follower{
		cfg:      cfg,
		client:   &http.Client{}, // no global timeout: /stream is long-lived
		ctx:      ctx,
		cancel:   cancel,
		state:    StateConnecting,
		resyncCh: make(chan struct{}, 1),
	}
}

// Start launches the tail loop.
func (f *Follower) Start() {
	f.lastFrame.Store(time.Now().UnixNano())
	f.wg.Add(1)
	go f.run()
}

// Stop terminates the tail loop and closes the local store. Safe to call
// more than once.
func (f *Follower) Stop() error { return f.Shutdown(true) }

// Shutdown terminates the tail loop; closeStore false leaves the local store
// open and owned by the caller — the promotion path, which hands the same
// open WAL to FollowerStore.Promote. Safe to call more than once.
func (f *Follower) Shutdown(closeStore bool) error {
	f.cancel()
	f.wg.Wait()
	f.mu.Lock()
	if f.state != StateFailed {
		f.state = StateStopped
	}
	f.mu.Unlock()
	if closeStore {
		return f.cfg.Store.Close()
	}
	return nil
}

// Resync asks the tailer to recover by snapshot catch-up. Its main purpose is
// reviving a fail-stopped tailer in place (POST /admin/resync) — divergence
// fail-stops are exactly the state a whole-snapshot install repairs — but a
// healthy tailer honors it too, on its next reconnect. Non-blocking.
func (f *Follower) Resync() {
	select {
	case f.resyncCh <- struct{}{}:
	default: // one is already pending
	}
}

// LastContact reports when the newest stream frame (entry or heartbeat)
// arrived — the election layer's measure of leader silence.
func (f *Follower) LastContact() time.Time {
	return time.Unix(0, f.lastFrame.Load())
}

// run is the reconnect loop: stream until the connection dies, then retry
// from the last durable position with jittered exponential backoff. A 410
// from the leader switches to snapshot catch-up; a few errors are terminal
// (local log divergence, apply failure, follower-ahead) and fail-stop the
// tailer so a stale replica cannot masquerade as healthy.
func (f *Follower) run() {
	defer f.wg.Done()
	backoff := f.cfg.BackoffMin
	first := true
	for f.ctx.Err() == nil {
		if !first {
			f.reconnects.Add(1)
		}
		first = false

		// A pending admin resync takes priority over re-streaming: the
		// operator asked for a whole-snapshot repair.
		select {
		case <-f.resyncCh:
			f.forcedResyncs.Add(1)
			f.setState(StateSnapshot, "")
			if cerr := f.snapshotCatchup(); cerr != nil && f.ctx.Err() == nil {
				f.cfg.Logf("replica: forced resync failed: %v", cerr)
			} else if cerr == nil {
				f.catchups.Add(1)
			}
		default:
		}

		err := f.streamOnce()
		if f.ctx.Err() != nil {
			return
		}
		switch {
		case err == nil:
			// Clean server-side end (leader shutdown); retry.
		case errors.Is(err, errTruncated):
			f.setState(StateSnapshot, "")
			if cerr := f.snapshotCatchup(); cerr == nil {
				f.catchups.Add(1)
				backoff = f.cfg.BackoffMin
				continue
			} else if f.ctx.Err() == nil {
				f.cfg.Logf("replica: snapshot catch-up failed: %v", cerr)
				f.setState(StateConnecting, cerr.Error())
			}
		case errors.Is(err, errFatal):
			// Park instead of exiting: the tailer is unusable (divergent log,
			// failed apply) but the process still serves stale reads and
			// /healthz says so. POST /admin/resync revives it in place via
			// snapshot catch-up; until then only Stop ends the loop.
			f.setState(StateFailed, err.Error())
			f.cfg.Logf("replica: FATAL, follower parked (POST /admin/resync to recover): %v", err)
			select {
			case <-f.ctx.Done():
				return
			case <-f.resyncCh:
				f.forcedResyncs.Add(1)
				f.setState(StateSnapshot, "")
				if cerr := f.snapshotCatchup(); cerr == nil {
					f.catchups.Add(1)
					backoff = f.cfg.BackoffMin
					continue
				} else if f.ctx.Err() == nil {
					f.cfg.Logf("replica: forced resync failed: %v", cerr)
					f.setState(StateConnecting, cerr.Error())
				}
			}
		default:
			f.setState(StateConnecting, err.Error())
			f.cfg.Logf("replica: stream interrupted: %v (retrying in ~%v)", err, backoff)
		}

		// Jittered exponential backoff: delay in [0.5b, 1.5b].
		d := backoff/2 + time.Duration(rand.Int63n(int64(backoff)))
		select {
		case <-f.ctx.Done():
			return
		case <-time.After(d):
		}
		backoff *= 2
		if backoff > f.cfg.BackoffMax {
			backoff = f.cfg.BackoffMax
		}
	}
}

// Sentinel causes for the run loop.
var (
	// errTruncated: the leader no longer has this follower's position
	// (HTTP 410); catch up from a snapshot.
	errTruncated = errors.New("replica: position truncated on the leader")
	// errFatal: the replica cannot safely continue (divergent local log,
	// failed apply, or a position ahead of the leader's).
	errFatal = errors.New("replica: unrecoverable")
)

// streamOnce runs one stream session: connect at the current durable
// position and consume frames until the connection ends.
func (f *Follower) streamOnce() error {
	pos := f.cfg.Store.Position()
	url := fmt.Sprintf("%s/repl/stream?gen=%d&offset=%d&seq=%d", f.cfg.Leader, pos.Gen, pos.Offset, pos.Seq)
	ctx, cancel := context.WithCancel(f.ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	f.setState(StateConnecting, "")
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return errTruncated
	case http.StatusConflict:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%w: this follower is ahead of the leader's log (%s); wipe its data directory to re-replicate", errFatal, string(body))
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("replica: leader returned %s: %s", resp.Status, string(body))
	}
	f.setState(StateStreaming, "")

	// Liveness watchdog: the leader heartbeats every couple of seconds, so
	// a silent connection is a dead one — cancel the request to unblock the
	// body read.
	f.lastFrame.Store(time.Now().UnixNano())
	watchdogDone := make(chan struct{})
	defer close(watchdogDone)
	go func() {
		t := time.NewTicker(f.cfg.HeartbeatTimeout / 4)
		defer t.Stop()
		for {
			select {
			case <-watchdogDone:
				return
			case <-t.C:
				if time.Since(time.Unix(0, f.lastFrame.Load())) > f.cfg.HeartbeatTimeout {
					cancel()
					return
				}
			}
		}
	}()

	br := bufio.NewReaderSize(resp.Body, 1<<16)
	for {
		frame, err := readWireFrame(br)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			// Torn/bit-flipped frame: reject it and re-request the entry by
			// reconnecting from the last durably journaled position.
			return err
		}
		f.lastFrame.Store(time.Now().UnixNano())
		if f.cfg.OnTermObserved != nil && frame.kind != frameResync {
			f.cfg.OnTermObserved(frame.term)
		}
		switch frame.kind {
		case frameEntry:
			if err := f.applyEntry(frame); err != nil {
				return err
			}
		case framePos:
			// A heartbeat from a deposed leader: drop the stream for good (the
			// election layer re-points the tailer at the winner).
			if fence := f.cfg.Store.FenceTerm(); frame.term < fence {
				return fmt.Errorf("%w: stream heartbeat from stale term %d (fence %d)", errFatal, frame.term, fence)
			}
			f.mu.Lock()
			f.leaderPos = frame.pos
			f.mu.Unlock()
			if f.cfg.OnAck != nil {
				f.cfg.OnAck(f.cfg.Store.Position())
			}
		case frameResync:
			// The generation rotated mid-stream; reconnect (the fresh
			// request gets the authoritative 410).
			return fmt.Errorf("replica: leader requested resync")
		}
	}
}

// applyEntry journals and applies one shipped entry: decode (validated),
// append to the local WAL at the exact expected offset, apply through the
// engine's publish cycle, then fsync per the sync mode. Durability precedes
// visibility, the same ordering as the leader's own commit path.
func (f *Follower) applyEntry(frame wireFrame) error {
	muts, err := storage.DecodeBatch(frame.payload)
	if err != nil {
		// Checksum passed but the payload does not decode: not a transport
		// tear but version skew or a leader-side bug. Retrying cannot fix
		// it; reconnecting would loop on the same entry.
		return fmt.Errorf("%w: shipped entry at %s does not decode: %v", errFatal, frame.pos, err)
	}
	if err := f.cfg.Store.AppendEntry(frame.pos, frame.term, frame.payload); err != nil {
		// Stale election term, offset mismatch or a local write failure: the
		// local log can no longer be trusted to mirror the (current) leader's.
		return fmt.Errorf("%w: %v", errFatal, err)
	}
	if err := f.cfg.Engine.ApplyReplicatedTerm(frame.term, muts); err != nil {
		return fmt.Errorf("%w: %v", errFatal, err)
	}
	f.cfg.Store.AddRecords(len(muts))
	if err := f.cfg.Store.Sync(); err != nil {
		return fmt.Errorf("%w: %v", errFatal, err)
	}
	if f.cfg.OnAck != nil {
		f.cfg.OnAck(f.cfg.Store.Position())
	}
	return nil
}

// snapshotCatchup downloads the leader's live snapshot, installs it as the
// local generation, and rebuilds the in-memory graph to match in one atomic
// publish. Readers pinned to the pre-catch-up version finish undisturbed.
func (f *Follower) snapshotCatchup() error {
	url := f.cfg.Leader + "/repl/snapshot"
	req, err := http.NewRequestWithContext(f.ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		// The leader is back at an un-checkpointed generation 0 — only
		// possible with a wiped/replaced leader. Re-streaming may work if
		// our own position is the fresh start; otherwise the next stream
		// request reports ahead-of-leader and fail-stops.
		return fmt.Errorf("replica: leader has no snapshot to catch up from")
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("replica: snapshot download: %s: %s", resp.Status, string(body))
	}
	gen, err := strconv.ParseUint(resp.Header.Get("X-Repl-Gen"), 10, 64)
	if err != nil {
		return fmt.Errorf("replica: snapshot response missing X-Repl-Gen")
	}
	image, nextNode, nextRel, err := f.cfg.Store.InstallSnapshot(gen, resp.Body)
	if err != nil {
		return err
	}
	if err := f.cfg.Engine.ResetReplicated(image, nextNode, nextRel); err != nil {
		return fmt.Errorf("%w: %v", errFatal, err)
	}
	if err := f.verifyReadable(); err != nil {
		return err
	}
	f.cfg.Logf("replica: installed snapshot generation %d (%d records)", gen, len(image))
	return nil
}

// verifyReadable proves a freshly installed state actually serves reads by
// running a bounded query through the engine's governed path: it rides the
// follower's own context (so Stop cancels it like any stream I/O) plus the
// VerifyTimeout deadline. A timeout is retriable — the state may just be
// large — but a genuine engine error after a snapshot install means the
// replica cannot be trusted and fail-stops the tailer.
func (f *Follower) verifyReadable() error {
	if f.cfg.VerifyTimeout < 0 {
		return nil
	}
	_, err := f.cfg.Engine.RunContext(f.ctx, `MATCH (n) RETURN count(n)`, nil,
		core.RunOptions{Timeout: f.cfg.VerifyTimeout})
	if err == nil || f.ctx.Err() != nil {
		return f.ctx.Err()
	}
	var canceled *exec.CanceledError
	if errors.As(err, &canceled) {
		return fmt.Errorf("replica: post-snapshot verification read timed out: %w", err)
	}
	return fmt.Errorf("%w: post-snapshot verification read failed: %v", errFatal, err)
}

func (f *Follower) setState(state, lastErr string) {
	f.mu.Lock()
	f.state = state
	f.lastErr = lastErr
	f.mu.Unlock()
}

// Stats reports the follower's replication state, positions and lag.
func (f *Follower) Stats() Stats {
	local := f.cfg.Store.Position()
	ss := f.cfg.Store.Stats()
	f.mu.Lock()
	leaderPos := f.leaderPos
	state := f.state
	lastErr := f.lastErr
	f.mu.Unlock()
	st := Stats{
		Role:             RoleFollower,
		State:            state,
		Term:             f.cfg.Store.FenceTerm(),
		Leader:           f.cfg.Leader,
		Local:            local,
		LeaderPos:        leaderPos,
		LagEntries:       -1,
		LagBytes:         -1,
		AppliedBatches:   ss.Batches,
		AppliedRecords:   ss.Records,
		AppliedBytes:     ss.Bytes,
		SnapshotCatchups: f.catchups.Load(),
		ForcedResyncs:    f.forcedResyncs.Load(),
		Reconnects:       f.reconnects.Load(),
		LastError:        lastErr,
	}
	if leaderPos != (storage.Position{}) {
		st.LagEntries, st.LagBytes = Lag(local, leaderPos)
	}
	return st
}
