// Package cypher is an embeddable, from-scratch Go implementation of the
// Cypher property graph query language as formalised in "Cypher: An Evolving
// Query Language for Property Graphs" (SIGMOD 2018).
//
// The package bundles an in-memory property graph store with native
// adjacency, a parser for the core Cypher 9 language (patterns, MATCH,
// OPTIONAL MATCH, WHERE, WITH, RETURN, UNWIND, UNION, ORDER BY / SKIP /
// LIMIT, and the updating clauses CREATE, MERGE, SET, REMOVE, DELETE), a
// cost-informed planner and a push-based execution engine implementing the
// paper's pattern-matching semantics (bag semantics and relationship
// isomorphism).
//
// Quick start:
//
//	g := cypher.New()
//	g.MustRun(`CREATE (:Person {name: 'Ada'})-[:KNOWS]->(:Person {name: 'Grace'})`, nil)
//	res, err := g.Run(`MATCH (a:Person)-[:KNOWS]->(b) RETURN a.name, b.name`, nil)
package cypher

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/replica"
	"repro/internal/storage"
	"repro/internal/value"
)

// Morphism selects the pattern-matching semantics used by a Graph.
type Morphism = core.Morphism

// Pattern-matching modes. EdgeIsomorphism is Cypher's semantics as defined in
// the paper; the other two implement the "configurable morphisms" extension
// discussed in its future-work section.
const (
	EdgeIsomorphism = core.EdgeIsomorphism
	Homomorphism    = core.Homomorphism
	NodeIsomorphism = core.NodeIsomorphism
)

// Node is a read view of a property graph node returned in query results.
type Node = value.Node

// Relationship is a read view of a property graph relationship returned in
// query results.
type Relationship = value.Relationship

// Path is a read view of a path value returned in query results.
type Path = value.Path

// Value is a Cypher value as returned in query results.
type Value = value.Value

// SyncMode selects when the write-ahead log is fsynced; see the constants.
type SyncMode = storage.SyncMode

// WAL sync modes for Options.SyncMode / Open.
const (
	// SyncAlways fsyncs at every write-query commit (group commit coalesces
	// concurrent committers into shared fsyncs). The default: survives
	// process kills and power loss.
	SyncAlways = storage.SyncAlways
	// SyncInterval fsyncs on a background timer; a process crash loses
	// nothing, an OS crash at most the last interval of commits.
	SyncInterval = storage.SyncInterval
	// SyncNone leaves flushing to the OS entirely.
	SyncNone = storage.SyncNone
)

// DurabilityStats reports WAL and snapshot counters for a persistent graph;
// see Graph.DurabilityStats.
type DurabilityStats = storage.Stats

// MVCCStats reports the engine's version/pin counters; see Graph.MVCCStats.
type MVCCStats = graph.MVCCStats

// ReplicationStats reports a node's replication side — stream positions,
// lag, sessions; see Graph.ReplicationStats.
type ReplicationStats = replica.Stats

// ReplicationPosition locates a point in the replication stream (WAL
// generation, byte offset, entry count).
type ReplicationPosition = storage.Position

// ReadOnlyReplicaError is returned when a write query is sent to a follower
// graph; Leader carries the advertised address writes belong at. Serving
// layers typically turn it into an HTTP redirect.
type ReadOnlyReplicaError = core.ReadOnlyReplicaError

// QueryCanceledError is returned when a query is stopped by context
// cancellation or deadline expiry. Its Cause (reachable via errors.Is) is
// context.Canceled or context.DeadlineExceeded.
type QueryCanceledError = exec.CanceledError

// ResourceExhaustedError is returned when a query exceeds its memory budget.
// Only the offending query fails; the engine keeps serving.
type ResourceExhaustedError = exec.ResourceExhaustedError

// QueryPanicError is returned when query execution panicked and was
// contained at the query boundary; the engine's locks, MVCC pins and pooled
// buffers are released and it keeps serving.
type QueryPanicError = exec.PanicError

// GovernanceStats is a snapshot of the query-lifecycle counters: in-flight
// and queued queries, admission decisions, cancellations, deadline and
// budget kills, recovered panics and the peak per-query materialized bytes.
type GovernanceStats = core.GovernanceStats

// Options configures a Graph.
type Options struct {
	// Name is the graph's name (useful with multiple graphs); defaults to
	// "graph".
	Name string
	// Morphism selects the pattern-matching semantics; the default is
	// EdgeIsomorphism (standard Cypher).
	Morphism Morphism
	// MaxVarLengthDepth caps unbounded variable-length patterns when matching
	// under Homomorphism (which has no uniqueness restriction). Default 15.
	MaxVarLengthDepth int
	// Parallelism is the maximum number of workers one read-only query may
	// use: parallel-safe plans partition their scan into morsels and run the
	// filter/expand/project pipeline on a bounded worker pool. Zero or one
	// (the default) keeps every query serial; a common production setting is
	// runtime.NumCPU(). Unsafe plans (updating queries, UNION, LIMIT without
	// a sort/aggregation barrier) always fall back to the serial path.
	Parallelism int
	// MorselSize overrides the number of scan rows per parallel work unit
	// (default 1024). Mostly useful for tests and benchmarks.
	MorselSize int
	// BatchSize overrides the number of rows per batch in the vectorized
	// pipeline (default 1024, aligned with the morsel size). The batched
	// segment of eligible read plans — scan, filter, project, single-hop
	// expand, limit — pushes slot columns instead of single rows. Zero means
	// the default; a negative value disables vectorized execution and keeps
	// every query row-at-a-time (useful for tests and benchmarks).
	BatchSize int
	// DefaultTimeout bounds every query's wall-clock execution time (zero:
	// no engine-level deadline). Individual queries can override it through
	// QueryOptions.Timeout.
	DefaultTimeout time.Duration
	// MemoryBudget bounds the bytes of materialized state (sort buffers,
	// aggregation tables, DISTINCT/UNION sets, result rows) one query may
	// accumulate before it fails with *ResourceExhaustedError. Zero means
	// unlimited. Individual queries can override it through QueryOptions.
	MemoryBudget int64
	// Advertise is this node's public base URL in a replication cluster
	// (scheme://host:port); it is the node's identity in elections and the
	// redirect target for writes while it leads. Required by OpenCluster.
	Advertise string
	// Peers lists every cluster member's base URL (this node's Advertise may
	// be included). Quorums for elections and commit acknowledgement are
	// computed over the full set. Only meaningful with OpenCluster.
	Peers []string
	// ElectionTimeout is how long a cluster node tolerates leader silence
	// before campaigning; the other cluster timings derive from it: the
	// leader's idle-stream heartbeat is a sixth of it, vote RPCs time out
	// after it, and an elected leader degrades writes to 503 once its newest
	// quorum of follower acknowledgements is older than it. Zero means the
	// replica package default (3s). Only meaningful with OpenCluster.
	ElectionTimeout time.Duration
	// DataDir, when non-empty, makes the graph durable: mutations are
	// journaled to a write-ahead log under this directory and Checkpoint
	// writes full snapshots. Opening an existing directory recovers the
	// stored graph (latest snapshot + WAL replay). Open is the
	// error-returning way to set this; NewWithOptions panics if the
	// directory cannot be opened.
	DataDir string
	// SyncMode selects WAL fsync behaviour (default SyncAlways).
	SyncMode SyncMode
}

// Graph is a property graph together with a Cypher engine bound to it. It is
// safe for concurrent use. By default it lives purely in memory; Open (or
// Options.DataDir) attaches a write-ahead log and snapshots so it survives
// restarts.
type Graph struct {
	store  *graph.Graph
	engine *core.Engine
	// cluster is non-nil for graphs opened with OpenCluster: the node runs
	// leader elections and may be leader or follower at any moment.
	cluster *replica.Cluster
}

// New creates an empty in-memory graph with default options.
func New() *Graph { return NewWithOptions(Options{}) }

// NewWithOptions creates a graph with the given options. If opts.DataDir is
// set it behaves like Open but panics when the directory cannot be opened or
// recovered; use Open to handle that error.
func NewWithOptions(opts Options) *Graph {
	if opts.DataDir != "" {
		g, err := Open(opts.DataDir, opts)
		if err != nil {
			panic(fmt.Sprintf("cypher: open %s: %v", opts.DataDir, err))
		}
		return g
	}
	name := opts.Name
	if name == "" {
		name = "graph"
	}
	store := graph.NewNamed(name)
	return Wrap(store, opts)
}

// Open creates or opens a durable graph stored under dir: an existing data
// directory is recovered (latest snapshot plus write-ahead-log replay, with
// a torn final record truncated away), an empty or missing one is
// initialised. Every write query is journaled to the WAL before its commit
// returns (see Options.SyncMode), Checkpoint compacts the log into a
// snapshot, and Close must be called to release the files.
func Open(dir string, opts Options) (*Graph, error) {
	name := opts.Name
	if name == "" {
		name = "graph"
	}
	store := graph.NewNamed(name)
	durable, err := storage.Open(dir, store, storage.Options{SyncMode: opts.SyncMode})
	if err != nil {
		return nil, err
	}
	opts.DataDir = "" // recovery done; Wrap must not reopen
	g := Wrap(store, opts)
	g.engine.SetDurability(durable)
	return g, nil
}

// OpenCluster opens dir as one node of a replication cluster with automatic
// leader election and failover. Every node boots as a read-only follower;
// the cluster elects the member with the most complete log (highest WAL
// generation, then offset) by majority vote, and that node promotes to
// leader in place — no restart, no data copy. When the leader dies or is
// partitioned away, the remaining majority elects a replacement within a few
// election timeouts, and the deposed leader — should it come back — is
// fenced by its stale election term and resynchronises from the winner.
//
// opts.Advertise must be this node's public base URL and opts.Peers the full
// member list. Mount ReplicationHandler under /repl on every node; the same
// endpoint set carries the WAL stream, votes, acknowledgements and
// discovery. Writes on a non-leader fail with *ReadOnlyReplicaError: Leader
// set means redirect, empty Leader means no leader right now (mid-election
// or degraded) and the serving layer should answer 503 + Retry-After.
func OpenCluster(dir string, opts Options) (*Graph, error) {
	if opts.Advertise == "" {
		return nil, fmt.Errorf("cypher: OpenCluster requires Options.Advertise")
	}
	name := opts.Name
	if name == "" {
		name = "graph"
	}
	store := graph.NewNamed(name)
	fstore, err := storage.OpenFollower(dir, store, storage.Options{SyncMode: opts.SyncMode})
	if err != nil {
		return nil, err
	}
	opts.DataDir = ""
	g := Wrap(store, opts)
	cl, err := replica.NewCluster(replica.ClusterConfig{
		Dir:             dir,
		Advertise:       opts.Advertise,
		Peers:           opts.Peers,
		Engine:          g.engine,
		Store:           fstore,
		ElectionTimeout: opts.ElectionTimeout,
	})
	if err != nil {
		fstore.Close()
		return nil, err
	}
	g.cluster = cl
	cl.Start()
	return g, nil
}

// WaitReplicated blocks until the cluster's current leader — this node —
// has a majority acknowledgement for everything written so far, so a
// success response really means the write survives any single-node failure.
// Serving layers call it after each write query. It returns immediately on
// a non-clustered graph and on single-node clusters (quorum of one), and an
// error when this node stopped leading before the quorum arrived (the write
// may or may not survive the failover).
func (g *Graph) WaitReplicated(ctx context.Context) error {
	if g.cluster == nil {
		return nil
	}
	return g.cluster.WaitCommitted(ctx, g.cluster.Position())
}

// Resync asks a clustered follower to recover via whole-snapshot catch-up,
// the in-place repair for a fail-stopped tailer — divergent local WAL,
// stale-term stream, apply failure. Serving layers expose it as
// POST /admin/resync.
func (g *Graph) Resync() error {
	if g.cluster == nil {
		return fmt.Errorf("cypher: resync applies to clustered graphs (use OpenCluster)")
	}
	return g.cluster.Resync()
}

// ReplicationHandler returns the handler serving a clustered graph's
// replication endpoints — WAL stream, votes, acknowledgements, discovery —
// whatever the node's current role; mount it under /repl:
//
//	mux.Handle("/repl/", http.StripPrefix("/repl", handler))
//
// The node's address was fixed by Options.Advertise at OpenCluster, so
// advertise is ignored. It errors on a graph that is not clustered.
func (g *Graph) ReplicationHandler(advertise string) (http.Handler, error) {
	if g.cluster == nil {
		return nil, fmt.Errorf("cypher: replication requires a clustered graph (use OpenCluster)")
	}
	return g.cluster.Handler(), nil
}

// ReplicationStats reports this node's replication side; ok is false when the
// graph is not clustered.
func (g *Graph) ReplicationStats() (stats ReplicationStats, ok bool) {
	if g.cluster == nil {
		return ReplicationStats{}, false
	}
	return g.cluster.Stats(), true
}

// Close flushes and syncs the write-ahead log and releases the data
// directory. On a clustered graph it first stops elections and the
// replication stream. It is a no-op (nil) for in-memory graphs. The graph
// must not be used afterwards.
func (g *Graph) Close() error {
	if g.cluster != nil {
		// Stops elections, the tailer or leader stream, and closes whichever
		// store side is live; engine.Close then finds no durable store.
		err := g.cluster.Stop()
		if cerr := g.engine.Close(); err == nil {
			err = cerr
		}
		return err
	}
	return g.engine.Close()
}

// Checkpoint writes a point-in-time snapshot of a durable graph and
// truncates its write-ahead log; recovery afterwards loads the snapshot
// instead of replaying history. Readers keep running during the snapshot,
// writers wait. It is a no-op (nil) for in-memory graphs.
func (g *Graph) Checkpoint() error { return g.engine.Checkpoint() }

// MVCCStats reports the engine's snapshot-versioning counters: retained
// versions, published vs live epoch, active reader pins, and how often
// writers had to wait for readers to drain. Reads are served from pinned
// immutable versions and never block behind a write query; see
// docs/ARCHITECTURE.md, "MVCC & versioned reads".
func (g *Graph) MVCCStats() MVCCStats { return g.engine.MVCCStats() }

// DurabilityStats reports WAL/snapshot counters for a durable graph; ok is
// false for in-memory graphs.
func (g *Graph) DurabilityStats() (stats DurabilityStats, ok bool) {
	if d := g.engine.Durability(); d != nil {
		return d.Stats(), true
	}
	return DurabilityStats{}, false
}

// ImportFrom copies the contents of an internal store (as built by the
// example dataset generators) into this graph, remapping identifiers. On a
// durable graph the whole import is journaled and committed as one batch.
// Intended for seeding freshly created graphs.
func (g *Graph) ImportFrom(src *graph.Graph) error {
	return g.engine.ImportFrom(src)
}

// Wrap builds a Graph façade over an existing internal store. It is used by
// the example binaries and benchmarks that construct datasets directly.
func Wrap(store *graph.Graph, opts Options) *Graph {
	engine := core.NewEngine(store, core.Options{
		Morphism:          opts.Morphism,
		MaxVarLengthDepth: opts.MaxVarLengthDepth,
		Parallelism:       opts.Parallelism,
		MorselSize:        opts.MorselSize,
		BatchSize:         opts.BatchSize,
		DefaultTimeout:    opts.DefaultTimeout,
		MemoryBudget:      opts.MemoryBudget,
	})
	return &Graph{store: store, engine: engine}
}

// QueryOptions carries per-query governance overrides for QueryContext.
type QueryOptions struct {
	// Timeout overrides Options.DefaultTimeout for this query: >0 sets a
	// deadline, 0 inherits the graph default, <0 disables the graph-level
	// deadline (the context may still carry one).
	Timeout time.Duration
	// MemoryBudget overrides Options.MemoryBudget with the same convention.
	MemoryBudget int64
}

// Run executes a Cypher query with optional parameters (native Go values:
// nil, bool, numbers, strings, []any, map[string]any). The query is still
// governed by Options.DefaultTimeout and Options.MemoryBudget; use
// RunContext/QueryContext to attach a cancelable context or per-query
// overrides.
func (g *Graph) Run(query string, params map[string]any) (*Result, error) {
	res, err := g.engine.RunWithGoParams(query, params)
	if err != nil {
		return nil, err
	}
	return &Result{inner: res}, nil
}

// RunContext executes a query under the caller's context: cancellation and
// deadline are observed cooperatively at batch/morsel boundaries and every
// few hundred rows in serial loops, stopping all of the query's workers and
// releasing its MVCC pin and pooled buffers. A canceled query fails with
// *QueryCanceledError; other queries on the graph are unaffected.
func (g *Graph) RunContext(ctx context.Context, query string, params map[string]any) (*Result, error) {
	return g.QueryContext(ctx, query, params, QueryOptions{})
}

// QueryContext is RunContext with per-query governance overrides.
func (g *Graph) QueryContext(ctx context.Context, query string, params map[string]any, opts QueryOptions) (*Result, error) {
	res, err := g.engine.RunContextWithGoParams(ctx, query, params, core.RunOptions{
		Timeout:      opts.Timeout,
		MemoryBudget: opts.MemoryBudget,
	})
	if err != nil {
		return nil, err
	}
	return &Result{inner: res}, nil
}

// GovernanceStats reports the graph's query-lifecycle counters. The
// queue-side fields (Queued, Admitted, Rejected) are filled by serving
// layers running admission control; embedded use sees them as zero.
func (g *Graph) GovernanceStats() GovernanceStats {
	return g.engine.GovernanceStats()
}

// MustRun executes a query and panics on error; intended for tests, examples
// and data loading scripts.
func (g *Graph) MustRun(query string, params map[string]any) *Result {
	res, err := g.Run(query, params)
	if err != nil {
		panic(fmt.Sprintf("cypher: query failed: %v\nquery: %s", err, query))
	}
	return res
}

// Explain compiles the query and returns a textual description of its
// execution plan without running it.
func (g *Graph) Explain(query string) (string, error) {
	return g.engine.Explain(query)
}

// CreateIndex declares a property index on (label, property); the planner
// uses it for NodeIndexSeek scans. On a durable graph the index declaration
// is journaled like any other mutation, and the returned error reports a
// WAL commit failure (always nil for in-memory graphs; the index is applied
// in memory either way). The return may be ignored by callers that predate
// persistence.
func (g *Graph) CreateIndex(label, property string) error {
	return g.engine.CreateIndex(label, property)
}

// ParseSyncMode parses a -sync style flag value: "always", "interval",
// "none" (or "off"); the empty string defaults to SyncAlways.
func ParseSyncMode(s string) (SyncMode, error) {
	return storage.ParseSyncMode(s)
}

// Stats summarises the graph's size and the statistics the cost-based
// planner works from.
type Stats struct {
	Nodes         int
	Relationships int
	Labels        map[string]int
	Types         map[string]int
	// AverageDegree is the mean number of incident relationship endpoints
	// per node (2*|R| / |N|).
	AverageDegree float64
	// Indexes reports every property index with its selectivity counters,
	// sorted by (label, property).
	Indexes []IndexStats
}

// IndexStats reports one property index's selectivity counters, maintained
// incrementally by the mutators (and WAL replay).
type IndexStats struct {
	Label    string
	Property string
	// Entries is the number of indexed nodes.
	Entries int
	// DistinctKeys is the number of distinct indexed values; Entries over
	// DistinctKeys is the expected result size of an equality seek.
	DistinctKeys int
}

// CacheStats reports the engine's plan-cache effectiveness: cached entries,
// hits, misses, and plans invalidated by graph mutations.
type CacheStats = core.CacheStats

// PlanCacheStats returns the engine's current plan-cache counters.
func (g *Graph) PlanCacheStats() CacheStats {
	return g.engine.PlanCacheStats()
}

// Stats returns the graph's current statistics.
func (g *Graph) Stats() Stats {
	s := g.store.Stats()
	out := Stats{
		Nodes:         s.NodeCount,
		Relationships: s.RelationshipCount,
		Labels:        s.NodesByLabel,
		Types:         s.RelationshipsByType,
		AverageDegree: s.AverageDegree,
	}
	for _, is := range s.Indexes {
		out.Indexes = append(out.Indexes, IndexStats{
			Label:        is.Label,
			Property:     is.Property,
			Entries:      is.Entries,
			DistinctKeys: is.DistinctKeys,
		})
	}
	return out
}
