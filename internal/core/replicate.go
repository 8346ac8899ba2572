// Replication wiring: the apply side of WAL shipping. A follower engine
// never executes write queries; instead the replication tailer feeds it the
// leader's committed batches through ApplyReplicatedTerm, which drives them
// through the same BeginWrite → mutate → Publish cycle a local write query
// uses. Readers on a follower therefore keep the full MVCC contract — they
// pin a published immutable version and never block on (or observe a torn
// prefix of) an in-flight apply — and the plan cache keeps working
// unchanged, because each applied batch advances the published epoch exactly
// like a local commit would.
package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/storage"
)

// ReadOnlyReplicaError rejects a write on a follower engine. It carries the
// leader's advertised address so serving layers can redirect the client; an
// empty Leader means no leader is currently known (mid-election, or a
// degraded leader that lost its quorum lease) and the serving layer should
// answer 503 + Retry-After instead of a redirect.
type ReadOnlyReplicaError struct {
	// Leader is the advertised address writes should be sent to ("" =
	// unknown right now; retry shortly).
	Leader string
}

func (e *ReadOnlyReplicaError) Error() string {
	if e.Leader == "" {
		return "core: this graph is a read-only replica"
	}
	return fmt.Sprintf("core: this graph is a read-only replica; send writes to the leader at %s", e.Leader)
}

// StaleTermError rejects a replicated batch stamped with an election term
// older than the engine's fence: its sender is a deposed leader that does not
// yet know it lost. The tailer fail-stops on it — continuing to apply from
// that stream could interleave a zombie's writes with the real leader's.
type StaleTermError struct {
	// Term is the batch's term; Fence the newest term this engine has
	// acknowledged.
	Term, Fence uint64
}

func (e *StaleTermError) Error() string {
	return fmt.Sprintf("core: replicated batch from stale election term %d (fence %d)", e.Term, e.Fence)
}

// replicaRole is the engine's replication role. A nil pointer in Engine.role
// is the writer role (the common, standalone case pays no allocation).
type replicaRole struct {
	// leader is the advertised address of the node accepting writes; "" when
	// unknown (mid-election / degraded leader).
	leader string
}

// SetFollowerOf marks the engine as a read-only replica of the leader at the
// given advertised address: write queries, index creation and imports are
// rejected with a *ReadOnlyReplicaError from here on, leaving
// ApplyReplicatedTerm/ResetReplicated as the only mutation paths. An empty
// address restores the writer role. Safe to call while the engine is shared:
// elections re-point replicas at the new winner on the fly.
func (e *Engine) SetFollowerOf(leader string) {
	if leader == "" {
		e.role.Store(nil)
		return
	}
	e.role.Store(&replicaRole{leader: leader})
}

// SetLeaderless marks the engine read-only with no known leader: writes are
// rejected with a *ReadOnlyReplicaError whose Leader is empty, which serving
// layers map to 503 + Retry-After (degraded, not failed). Used mid-election
// and by a leader whose quorum lease lapsed.
func (e *Engine) SetLeaderless() {
	e.role.Store(&replicaRole{})
}

// IsWriter reports whether the engine currently accepts write queries.
func (e *Engine) IsWriter() bool { return e.role.Load() == nil }

// FollowerOf returns the leader address writes are redirected to, or "" when
// this engine is the writer (or knows no leader).
func (e *Engine) FollowerOf() string {
	if r := e.role.Load(); r != nil {
		return r.leader
	}
	return ""
}

// readOnlyErr returns the rejection for mutating operations on a replica,
// or nil on a writable engine.
func (e *Engine) readOnlyErr() error {
	if r := e.role.Load(); r != nil {
		return &ReadOnlyReplicaError{Leader: r.leader}
	}
	return nil
}

// PromoteToWriter flips the engine to the writer role with s as its durable
// store, under the write lock so the transition cannot interleave with a
// write query. The election layer calls it when this node wins a campaign
// (s is the promoted follower store).
func (e *Engine) PromoteToWriter(s *storage.Store) {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	e.durable.Store(s)
	e.role.Store(nil)
}

// DemoteToReplica flips the engine to the follower role (leaderless when
// leader is "") and detaches the durable store, returning it so the election
// layer can hand it to storage.Store.Demote. Taking the write lock first
// means any in-flight write query finishes — and its batch is appended —
// before the store changes hands; writes queued behind it fail the role
// re-check instead of applying unjournaled mutations.
func (e *Engine) DemoteToReplica(leader string) *storage.Store {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	e.role.Store(&replicaRole{leader: leader})
	return e.durable.Swap(nil)
}

// SetFenceTerm raises the engine's term fence (monotonic; lower terms are
// ignored). Raised when this node votes in, declares, or observes a newer
// election term.
func (e *Engine) SetFenceTerm(term uint64) {
	for {
		cur := e.fence.Load()
		if term <= cur || e.fence.CompareAndSwap(cur, term) {
			return
		}
	}
}

// FenceTerm returns the newest election term the engine has acknowledged.
func (e *Engine) FenceTerm() uint64 { return e.fence.Load() }

// ApplyReplicatedTerm applies one committed batch from the replication
// stream: the decoded mutations of exactly one leader WAL entry, with the
// election term the entry's stream frame carried. It runs the full write
// cycle — catch the spare version up, publish it as read head, drain pins
// off the primary, apply, republish — so concurrent readers only ever see the
// graph before or after the whole batch, never mid-batch, and each mutation
// is Captured into the MVCC backlog so the next cycle's replica replay stays
// in epoch lockstep (no defensive re-clone per batch).
//
// The caller is responsible for having journaled the entry locally first
// (durability precedes visibility, the same ordering the leader's commit
// path uses). A term older than the engine's fence is refused with
// a *StaleTermError before anything is applied: the batch comes from a
// deposed leader, and applying it would fork this replica from the history
// the new leader is writing.
func (e *Engine) ApplyReplicatedTerm(term uint64, batch []graph.Mutation) error {
	if fence := e.fence.Load(); term < fence {
		return &StaleTermError{Term: term, Fence: fence}
	}
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	// Re-check under the lock: the fence may have risen while this apply
	// queued behind another writer (an election concluded mid-wait).
	if fence := e.fence.Load(); term < fence {
		return &StaleTermError{Term: term, Fence: fence}
	}
	target := e.versions.BeginWrite()
	defer e.versions.Publish()
	for _, m := range batch {
		if err := target.Apply(m); err != nil {
			// Deterministic replay of a leader-committed batch cannot
			// legally fail; if it does, the replica has diverged and must
			// not keep serving (the tailer fail-stops on this error).
			return fmt.Errorf("apply replicated batch: %w", err)
		}
		e.versions.Capture(m)
	}
	return nil
}

// ResetReplicated replaces the graph's entire contents with a shipped
// snapshot image (catch-up after the leader truncated the stream past this
// follower's position). It executes as one atomic replicated batch: readers
// pinned to the pre-reset version finish on it undisturbed, and the rebuilt
// state becomes visible in a single publish. The image's mutations must be
// in snapshot order (indexes, then nodes, then relationships).
func (e *Engine) ResetReplicated(image []graph.Mutation, nextNode, nextRel int64) error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	target := e.versions.BeginWrite()
	defer e.versions.Publish()

	apply := func(m graph.Mutation) error {
		if err := target.Apply(m); err != nil {
			return fmt.Errorf("reset replica from snapshot: %w", err)
		}
		e.versions.Capture(m)
		return nil
	}
	// Tear down in dependency order: relationships, then nodes, then
	// indexes — through the same Apply primitives, so the MVCC capture
	// stream stays complete.
	for _, r := range target.Relationships() {
		if err := apply(graph.Mutation{Kind: graph.MutDeleteRel, ID: r.ID()}); err != nil {
			return err
		}
	}
	for _, n := range target.Nodes() {
		if err := apply(graph.Mutation{Kind: graph.MutDeleteNode, ID: n.ID()}); err != nil {
			return err
		}
	}
	for _, idx := range target.Indexes() {
		if err := apply(graph.Mutation{Kind: graph.MutDropIndex, Label: idx[0], Key: idx[1]}); err != nil {
			return err
		}
	}
	for _, m := range image {
		if err := apply(m); err != nil {
			return err
		}
	}
	target.SetIDCounters(nextNode, nextRel)
	return nil
}
