package replica

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/storage"
)

// streamChunkBytes bounds how much entry payload one ReadEntries call ships
// before flushing; lag-heavy followers catch up in bounded memory.
const streamChunkBytes = 1 << 20

// Leader serves a durable engine's WAL as a replication stream. It is an
// http.Handler factory: mount Handler() under /repl on the serving mux.
type Leader struct {
	store *storage.Store
	// advertise is the public base URL followers should send writes to; it
	// is returned to clients whose writes are rejected by a follower.
	advertise string
	// heartbeat is how often an idle stream re-sends the live position. It
	// doubles as the followers' liveness signal and lease renewal cadence.
	heartbeat time.Duration
	// term is the election term this leader was elected at, stamped on every
	// stream frame so followers can fence deposed leaders.
	term atomic.Uint64

	mu       sync.Mutex
	nextID   int64
	sessions map[int64]*session

	streamedEntries atomic.Uint64
	streamedBytes   atomic.Uint64
	snapshotsServed atomic.Uint64
}

// session is one live follower stream connection, tracked for /stats.
type session struct {
	id     int64
	remote string
	since  time.Time

	mu   sync.Mutex
	sent storage.Position
}

// NewLeader creates the replication server over an opened store. advertise
// is the leader's public base URL (e.g. "http://10.0.0.1:7474"); heartbeat
// is how often an idle stream re-sends the leader's position, and must stay
// well under the followers' heartbeat timeout or their liveness watchdog
// will tear down healthy streams.
func NewLeader(store *storage.Store, advertise string, heartbeat time.Duration) *Leader {
	return &Leader{store: store, advertise: advertise, heartbeat: heartbeat, sessions: map[int64]*session{}}
}

// Advertise returns the leader's advertised base URL.
func (l *Leader) Advertise() string { return l.advertise }

// SetTerm sets the election term stamped on every stream frame. Elections
// call it once at promotion, before the handler serves any stream.
func (l *Leader) SetTerm(term uint64) { l.term.Store(term) }

// Term returns the election term this leader stamps on stream frames.
func (l *Leader) Term() uint64 { return l.term.Load() }

// Handler returns the replication endpoints as one handler; mount it under
// /repl with http.StripPrefix.
func (l *Leader) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/position", l.handlePosition)
	mux.HandleFunc("/stream", l.handleStream)
	mux.HandleFunc("/snapshot", l.handleSnapshot)
	return mux
}

func (l *Leader) handlePosition(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(l.store.Position())
}

// handleStream is the tail loop: frames from the follower's position to the
// live end, then heartbeats while idle, until the client goes away or the
// generation rotates out from under the session.
func (l *Leader) handleStream(w http.ResponseWriter, r *http.Request) {
	pos, err := parsePosition(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Probe before committing to a 200: the initial position decides the
	// status (410 => snapshot catch-up, 409 => unrecoverable).
	sig := l.store.CommitSignal()
	frames, next, err := l.store.ReadEntries(pos, streamChunkBytes)
	if err != nil {
		l.writeStreamError(w, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)

	sess := l.addSession(r.RemoteAddr, pos)
	defer l.dropSession(sess)

	// The serving layer sets a WriteTimeout on its listeners to shed dead
	// clients; that deadline is absolute per response and would sever this
	// infinite stream. Push it forward on every flush instead, so only a
	// stalled follower (no write progress for several heartbeats) is cut.
	rc := http.NewResponseController(w)
	extendDeadline := func() {
		// Ignore errors: the underlying writer may not support deadlines
		// (httptest recorders), in which case no server timeout exists either.
		_ = rc.SetWriteDeadline(time.Now().Add(4 * l.heartbeat))
	}
	extendDeadline()

	ctx := r.Context()
	for {
		for _, f := range frames {
			if err := writeEntryFrame(w, l.term.Load(), pos.Gen, f.Offset, f.Payload); err != nil {
				return // client went away
			}
			l.streamedEntries.Add(1)
			l.streamedBytes.Add(uint64(len(f.Payload)))
		}
		pos = next
		sess.setSent(pos)
		// Always follow a drain with the live position: the follower's lag
		// arithmetic (and its liveness watchdog) keys off these.
		if err := writePosFrame(w, l.term.Load(), l.store.Position()); err != nil {
			return
		}
		flusher.Flush()
		extendDeadline()

		if len(frames) == 0 {
			select {
			case <-ctx.Done():
				return
			case <-sig:
			case <-time.After(l.heartbeat):
			}
		}
		sig = l.store.CommitSignal()
		frames, next, err = l.store.ReadEntries(pos, streamChunkBytes)
		if err != nil {
			// Mid-stream the status line is gone; a resync frame tells the
			// follower to reconnect (and get the 410 properly).
			writeResyncFrame(w)
			flusher.Flush()
			return
		}
	}
}

// writeStreamError maps storage errors to the protocol's status codes.
func (l *Leader) writeStreamError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, storage.ErrPositionTruncated):
		http.Error(w, err.Error(), http.StatusGone)
	case errors.Is(err, storage.ErrFollowerAhead):
		http.Error(w, err.Error(), http.StatusConflict)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (l *Leader) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	gen, rc, size, err := l.store.LiveSnapshot()
	if err != nil {
		if errors.Is(err, storage.ErrNoSnapshot) {
			// Nothing has been checkpointed; the whole history is still in
			// wal-0 and the follower can stream it from the start.
			w.Header().Set("X-Repl-Gen", strconv.FormatUint(gen, 10))
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Repl-Gen", strconv.FormatUint(gen, 10))
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	if _, err := io.Copy(w, rc); err == nil {
		l.snapshotsServed.Add(1)
	}
}

func parsePosition(r *http.Request) (storage.Position, error) {
	q := r.URL.Query()
	gen, err := strconv.ParseUint(q.Get("gen"), 10, 64)
	if err != nil {
		return storage.Position{}, fmt.Errorf("replica: bad gen %q", q.Get("gen"))
	}
	off, err := strconv.ParseInt(q.Get("offset"), 10, 64)
	if err != nil {
		return storage.Position{}, fmt.Errorf("replica: bad offset %q", q.Get("offset"))
	}
	// seq is informational (the follower derives it locally); tolerate its
	// absence.
	seq, _ := strconv.ParseUint(q.Get("seq"), 10, 64)
	return storage.Position{Gen: gen, Offset: off, Seq: seq}, nil
}

func (l *Leader) addSession(remote string, pos storage.Position) *session {
	s := &session{remote: remote, since: time.Now(), sent: pos}
	l.mu.Lock()
	l.nextID++
	id := l.nextID
	l.sessions[id] = s
	s.id = id
	l.mu.Unlock()
	return s
}

func (l *Leader) dropSession(s *session) {
	l.mu.Lock()
	delete(l.sessions, s.id)
	l.mu.Unlock()
}

func (s *session) setSent(pos storage.Position) {
	s.mu.Lock()
	s.sent = pos
	s.mu.Unlock()
}

// Stats reports the leader's replication counters and live sessions.
func (l *Leader) Stats() Stats {
	st := Stats{
		Role:            RoleLeader,
		State:           "serving",
		Term:            l.term.Load(),
		Advertise:       l.advertise,
		Local:           l.store.Position(),
		StreamedEntries: l.streamedEntries.Load(),
		StreamedBytes:   l.streamedBytes.Load(),
		SnapshotsServed: l.snapshotsServed.Load(),
	}
	l.mu.Lock()
	for _, s := range l.sessions {
		s.mu.Lock()
		st.Followers = append(st.Followers, FollowerSession{
			Remote:         s.remote,
			Sent:           s.sent,
			ConnectedSince: s.since,
		})
		s.mu.Unlock()
	}
	l.mu.Unlock()
	return st
}
