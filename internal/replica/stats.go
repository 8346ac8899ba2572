package replica

import (
	"time"

	"repro/internal/storage"
)

// Replication roles.
const (
	RoleLeader   = "leader"
	RoleFollower = "follower"
	// RoleCandidate is a clustered node campaigning for leadership (no
	// leader is known; writes answer 503 + Retry-After).
	RoleCandidate = "candidate"
)

// Follower states, as reported in Stats.State.
const (
	StateConnecting = "connecting" // dialing or backing off before a retry
	StateStreaming  = "streaming"  // tailing the leader's WAL
	StateSnapshot   = "snapshot"   // downloading + installing a catch-up snapshot
	StateFailed     = "failed"     // unrecoverable (local WAL divergence, apply failure)
	StateStopped    = "stopped"    // Stop was called
)

// Stats is a point-in-time view of one node's replication side — leader or
// follower — exposed through cypher.Graph.ReplicationStats, the serve /stats
// replication section, and /healthz.
type Stats struct {
	// Role is RoleLeader, RoleFollower or RoleCandidate.
	Role string
	// State: "serving" on a leader; a State* value on a follower.
	State string
	// Term is the node's current election term.
	Term uint64

	// Local is this node's stream position: the live WAL end on a leader,
	// the last durably journaled (and applied) entry on a follower.
	Local storage.Position

	// Leader-side fields.

	// Advertise is the leader's public base URL (redirect target for writes).
	Advertise string
	// Followers lists the live stream sessions.
	Followers []FollowerSession
	// StreamedEntries/StreamedBytes count entry frames shipped since start.
	StreamedEntries uint64
	StreamedBytes   uint64
	// SnapshotsServed counts catch-up snapshots shipped whole.
	SnapshotsServed uint64

	// Follower-side fields.

	// Leader is the base URL this follower tails.
	Leader string
	// LeaderPos is the leader's live position as of the last frame received.
	LeaderPos storage.Position
	// LagEntries/LagBytes are how far Local trails LeaderPos. -1 = unknown
	// (no heartbeat yet, or the positions are in different generations,
	// where byte arithmetic is meaningless).
	LagEntries int64
	LagBytes   int64
	// AppliedBatches/Records/Bytes count shipped entries applied since start.
	AppliedBatches uint64
	AppliedRecords uint64
	AppliedBytes   uint64
	// SnapshotCatchups counts whole-snapshot installs (leader truncated past
	// this follower's position).
	SnapshotCatchups uint64
	// ForcedResyncs counts admin-triggered snapshot recoveries
	// (POST /admin/resync) of a fail-stopped tailer.
	ForcedResyncs uint64
	// Reconnects counts stream re-establishments after the first.
	Reconnects uint64
	// LastError is the most recent stream/apply error ("" when healthy).
	LastError string

	// Cluster-side fields (leader elections; zero outside -peers mode).

	// ClusterLeader is the advertised URL of the leader this node currently
	// recognizes ("" while campaigning).
	ClusterLeader string
	// QuorumSize is the vote/ack majority for the configured peer set.
	QuorumSize int
	// AckedPeers is how many peers (excluding the leader itself) have
	// recently acknowledged the leader's stream — leader role only.
	AckedPeers int
	// Elections counts campaigns this node has started since boot.
	Elections uint64
}

// FollowerSession is one live stream connection as seen by the leader.
type FollowerSession struct {
	// Remote is the follower's TCP peer address.
	Remote string
	// Sent is the position the session has shipped through.
	Sent storage.Position
	// ConnectedSince is when the session attached.
	ConnectedSince time.Time
}

// Lag computes entry/byte lag between a local and a leader position,
// returning -1/-1 when the generations differ (the byte offsets are then in
// different files and not comparable).
func Lag(local, leader storage.Position) (entries, bytes int64) {
	if leader.Gen != local.Gen {
		return -1, -1
	}
	entries = int64(leader.Seq) - int64(local.Seq)
	bytes = leader.Offset - local.Offset
	if entries < 0 {
		entries = 0
	}
	if bytes < 0 {
		bytes = 0
	}
	return entries, bytes
}
