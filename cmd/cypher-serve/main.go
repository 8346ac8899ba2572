// Command cypher-serve exposes a cypher.Graph over HTTP so many clients can
// query one in-memory property graph concurrently. The engine classifies
// each query as read-only or mutating at parse time: read-only queries run
// in parallel under a shared lock while mutating queries serialize, and
// compiled plans are cached per query text until a mutation invalidates
// them, so a hot read workload skips parsing and planning entirely.
//
// Endpoints:
//
//	POST /query             {"query": "...", "params": {...}} -> columns, rows, summary
//	GET  /explain           ?q=<query>                        -> the compiled plan
//	GET  /stats             -> graph + plan-cache + replication stats
//	GET  /healthz           -> JSON {status, role, position, lag}; 503 on a failed follower
//	POST /admin/checkpoint  -> force a snapshot + WAL truncation (durable; elected leader only with -peers)
//	POST /admin/resync      -> force a follower to rebuild from the leader's snapshot
//
// With -data DIR the graph is durable: every write query is journaled to a
// write-ahead log before its response is sent (fsync policy via -sync), the
// server checkpoints on graceful shutdown (SIGINT/SIGTERM) and optionally on
// a timer (-checkpoint-every), and a restart recovers the stored graph —
// snapshot plus WAL replay — before serving. A requested -dataset seeds the
// store only when it is empty, so restarts keep accumulated writes.
//
// -peers makes the node one member of a self-healing replication cluster:
// every node gets the full member list, the cluster elects its leader over
// a time-bounded lease (-election-timeout), and the leader serves its WAL
// as a replication stream under /repl. Followers tail it, serve reads from
// their own MVCC versions, and answer write queries with 307 redirects to
// the leader's advertised address. Writes are acknowledged only after a
// majority has journaled them, and a failed leader is replaced
// automatically with its stale generation fenced off. During a leaderless
// window writes answer 503 + Retry-After.
//
// Example self-healing 3-node cluster:
//
//	PEERS=http://127.0.0.1:7474,http://127.0.0.1:7475,http://127.0.0.1:7476
//	cypher-serve -addr :7474 -data ./n1 -peers $PEERS
//	cypher-serve -addr :7475 -data ./n2 -peers $PEERS
//	cypher-serve -addr :7476 -data ./n3 -peers $PEERS
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registered on the default mux, served only with -pprof
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	cypher "repro"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/value"
)

func main() {
	var (
		addr        = flag.String("addr", ":7474", "listen address")
		dataset     = flag.String("dataset", "empty", "initial dataset: empty, citations, social, datacenter, fraud")
		size        = flag.Int("size", 1000, "size parameter for the synthetic datasets")
		parallelism = flag.Int("parallelism", 1, "workers per read query (morsel-driven; 1 = serial, 0 = all CPUs)")
		batchSize   = flag.Int("batch-size", 0, "rows per batch in the vectorized pipeline (0 = default 1024, negative = row-at-a-time)")
		pprofAddr   = flag.String("pprof", "", "optional listen address for net/http/pprof (e.g. localhost:6060); empty disables")
		dataDir     = flag.String("data", "", "data directory; enables WAL + snapshot persistence")
		syncMode    = flag.String("sync", "always", "WAL fsync policy with -data: always, interval or none")
		ckptEvery   = flag.Duration("checkpoint-every", 0, "with -data, checkpoint on this interval (0 = only on shutdown)")
		peers       = flag.String("peers", "", "comma-separated base URLs of every cluster member (including this node); enables replication with leader election and automatic failover")
		electionTmo = flag.Duration("election-timeout", 0, "with -peers, leader silence tolerated before campaigning (0 = default 3s)")
		advertise   = flag.String("advertise", "", "with -peers, this node's public base URL (default derived from the listen address)")

		queryTimeout = flag.Duration("query-timeout", 0, "wall-clock cap per query; per-request timeoutMs may tighten but never exceed it (0 = no cap)")
		memoryBudget = flag.Int64("memory-budget", 0, "bytes of materialized state (sorts, aggregates, result rows) one query may hold; per-request memoryBudget may tighten it (0 = unlimited)")
		maxInflight  = flag.Int("max-inflight", 0, "admission control: maximum queries executing at once (0 = unlimited, no admission control)")
		queueDepth   = flag.Int("queue-depth", 0, "with -max-inflight, requests allowed to wait for a slot before 429 (0 = reject immediately at capacity)")
		queueWait    = flag.Duration("queue-wait", 5*time.Second, "with -max-inflight, how long a queued request waits for a slot before 503")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown: how long in-flight queries get to finish before the listener is torn down")
		slowQuery    = flag.Duration("slow-query-threshold", 0, "log queries slower than this (0 = disabled)")
	)
	flag.Parse()

	if *parallelism <= 0 {
		*parallelism = runtime.NumCPU()
	}
	if *ckptEvery > 0 && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "-checkpoint-every requires -data (an in-memory graph has nothing to checkpoint)")
		os.Exit(2)
	}
	// Validate durability flags unconditionally: a typo'd or pointless -sync
	// must not be silently accepted just because -data is absent.
	if _, err := cypher.ParseSyncMode(*syncMode); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *syncMode != "always" && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "-sync requires -data (an in-memory graph has no WAL to sync)")
		os.Exit(2)
	}
	if *peers != "" {
		// Every clustered node boots a follower and elections decide who
		// leads.
		if *dataDir == "" {
			fmt.Fprintln(os.Stderr, "-peers requires -data (replication ships the WAL)")
			os.Exit(2)
		}
		if *dataset != "" && *dataset != "empty" {
			fmt.Fprintln(os.Stderr, "-dataset cannot be used with -peers (all data comes from the elected leader)")
			os.Exit(2)
		}
		if *ckptEvery > 0 {
			fmt.Fprintln(os.Stderr, "-checkpoint-every cannot be used with -peers (the elected leader checkpoints at promotion)")
			os.Exit(2)
		}
	} else if *electionTmo != 0 {
		fmt.Fprintln(os.Stderr, "-election-timeout requires -peers")
		os.Exit(2)
	}
	if *maxInflight < 0 || *queueDepth < 0 || *queueWait < 0 || *drainTimeout < 0 {
		fmt.Fprintln(os.Stderr, "-max-inflight, -queue-depth, -queue-wait and -drain-timeout must be non-negative")
		os.Exit(2)
	}
	if *queueDepth > 0 && *maxInflight == 0 {
		fmt.Fprintln(os.Stderr, "-queue-depth requires -max-inflight (there is no admission queue without a slot limit)")
		os.Exit(2)
	}

	// Bind before building the graph so the actual address (-addr :0 picks a
	// free port) is known for logs and the advertise default.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *advertise == "" {
		*advertise = deriveAdvertise(ln.Addr())
	}

	if *pprofAddr != "" {
		// The blank pprof import registers its handlers on the default mux,
		// which the API server below never serves — profiling stays opt-in on
		// its own listener. Header/idle timeouts shed half-open connections;
		// the write timeout is generous because CPU/trace profiles stream for
		// their whole ?seconds window.
		pprofSrv := &http.Server{
			Addr:              *pprofAddr,
			Handler:           nil, // default mux, where pprof registered
			ReadHeaderTimeout: 10 * time.Second,
			WriteTimeout:      5 * time.Minute,
			IdleTimeout:       2 * time.Minute,
		}
		go func() {
			log.Printf("pprof: serving on http://%s/debug/pprof/", *pprofAddr)
			if err := pprofSrv.ListenAndServe(); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	topology := "single"
	if *peers != "" {
		topology = "cluster"
	}
	gopts := cypher.Options{
		Parallelism:     *parallelism,
		BatchSize:       *batchSize,
		DefaultTimeout:  *queryTimeout,
		MemoryBudget:    *memoryBudget,
		Advertise:       *advertise,
		Peers:           splitPeers(*peers),
		ElectionTimeout: *electionTmo,
	}
	g, err := buildGraph(*dataset, *size, *dataDir, *syncMode, gopts)
	if err != nil {
		ln.Close()
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	s := g.Stats()
	log.Printf("serving %s dataset (%d nodes, %d relationships) on %s as %s, per-query parallelism %d",
		*dataset, s.Nodes, s.Relationships, ln.Addr(), topology, *parallelism)
	if ds, ok := g.DurabilityStats(); ok {
		log.Printf("durable: dir=%s sync=%s generation=%d (recovered %d snapshot + %d WAL records%s)",
			ds.Dir, ds.SyncMode, ds.Generation, ds.Recovery.SnapshotRecords, ds.Recovery.WALRecords,
			tornNote(ds.Recovery.TornTail))
	}

	srv := newServer(serverConfig{
		graph:        g,
		parallelism:  *parallelism,
		queryTimeout: *queryTimeout,
		memoryBudget: *memoryBudget,
		maxInflight:  *maxInflight,
		queueDepth:   *queueDepth,
		queueWait:    *queueWait,
		slowQuery:    *slowQuery,
	})
	mux := srv.routes()
	if *peers != "" {
		h, err := g.ReplicationHandler(*advertise)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		mux.Handle("/repl/", http.StripPrefix("/repl", h))
		log.Printf("replication: serving /repl, advertising %s", *advertise)
		log.Printf("replication: clustered with %v (election timeout %v)", gopts.Peers, gopts.ElectionTimeout)
	}

	// Header/idle timeouts shed slowloris and half-open clients. The write
	// timeout must outlast the longest legitimate response: a query runs up
	// to -query-timeout before its body is even produced, so the deadline is
	// that plus slack (or a generous fixed window when queries are
	// unbounded). The replication stream under /repl outlives any fixed
	// deadline by design and pushes its own per-flush write deadline forward.
	writeTimeout := 5 * time.Minute
	if *queryTimeout > 0 && *queryTimeout+30*time.Second > writeTimeout {
		writeTimeout = *queryTimeout + 30*time.Second
	}
	httpSrv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *ckptEvery > 0 {
		go func() {
			t := time.NewTicker(*ckptEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if err := g.Checkpoint(); err != nil {
						log.Printf("periodic checkpoint failed: %v", err)
					} else {
						log.Printf("checkpoint written")
					}
				}
			}
		}()
	}

	go func() {
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()

	<-ctx.Done()
	log.Printf("shutting down: draining in-flight queries (up to %v)", *drainTimeout)
	// Graceful drain: stop accepting, let in-flight requests finish inside
	// -drain-timeout, then hard-close whatever is left so a wedged client
	// cannot hold up the shutdown checkpoint below.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("http shutdown: drain incomplete (%v), closing remaining connections", err)
		httpSrv.Close()
	}
	// Checkpoint so the next start recovers from a snapshot instead of
	// replaying the whole WAL, then release the files. Clustered nodes skip
	// this: the node may be (or become) a follower, whose WAL must stay a
	// byte-identical prefix of the leader's (truncating it locally would
	// fork the generation numbering), and an elected leader already
	// checkpointed at promotion.
	if *peers == "" {
		if err := g.Checkpoint(); err != nil {
			log.Printf("shutdown checkpoint: %v", err)
		}
	}
	if err := g.Close(); err != nil {
		log.Printf("close: %v", err)
	}
}

// deriveAdvertise turns the bound listen address into a client-reachable base
// URL: a wildcard host (":7474", "0.0.0.0", "::") becomes 127.0.0.1, which is
// right for single-machine clusters and tests; multi-host deployments set
// -advertise explicitly.
func deriveAdvertise(a net.Addr) string {
	host, port := "127.0.0.1", "7474"
	if tcp, ok := a.(*net.TCPAddr); ok {
		port = fmt.Sprint(tcp.Port)
		if ip := tcp.IP; len(ip) > 0 && !ip.IsUnspecified() {
			host = ip.String()
			if ip.To4() == nil {
				host = "[" + host + "]"
			}
		}
	}
	return "http://" + host + ":" + port
}

// splitPeers parses the -peers list, tolerating spaces and trailing slashes.
func splitPeers(csv string) []string {
	if csv == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(csv, ",") {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

func tornNote(torn bool) string {
	if torn {
		return ", torn tail truncated"
	}
	return ""
}

func buildGraph(dataset string, size int, dataDir, syncMode string, opts cypher.Options) (*cypher.Graph, error) {
	// Validate the dataset name up front: on a non-virgin durable directory
	// the seeding path is skipped entirely, and a typo must not be silently
	// accepted (and then seed on some later virgin restart).
	if !datasetKnown(dataset) {
		return nil, errUnknownDataset(dataset)
	}

	if len(opts.Peers) > 0 {
		mode, err := cypher.ParseSyncMode(syncMode)
		if err != nil {
			return nil, err
		}
		opts.SyncMode = mode
		return cypher.OpenCluster(dataDir, opts)
	}

	if dataDir != "" {
		mode, err := cypher.ParseSyncMode(syncMode)
		if err != nil {
			return nil, err
		}
		opts.SyncMode = mode
		g, err := cypher.Open(dataDir, opts)
		if err != nil {
			return nil, err
		}
		// Seed only a virgin directory — generation 0 with nothing replayed,
		// i.e. never checkpointed and never written. An empty graph does not
		// qualify: a client may have deleted everything (leaving delete
		// records in the WAL, or — after a checkpoint — an empty snapshot at
		// generation ≥ 1), and a restart must not resurrect the dataset.
		virgin := false
		if ds, ok := g.DurabilityStats(); ok {
			virgin = ds.Generation == 0 && ds.Recovery.SnapshotRecords+ds.Recovery.WALRecords == 0
		}
		if virgin {
			if store, err := datasetStore(dataset, size); err != nil {
				g.Close()
				return nil, err
			} else if store != nil {
				if err := g.ImportFrom(store); err != nil {
					g.Close()
					return nil, fmt.Errorf("seed dataset: %w", err)
				}
			}
		}
		return g, nil
	}

	store, err := datasetStore(dataset, size)
	if err != nil {
		return nil, err
	}
	if store == nil {
		return cypher.NewWithOptions(opts), nil
	}
	return cypher.Wrap(store, opts), nil
}

// datasetBuilders is the single source of valid -dataset names; "empty" maps
// to nil (no seeding).
var datasetBuilders = map[string]func(size int) *graph.Graph{
	"":      nil,
	"empty": nil,
	"citations": func(int) *graph.Graph {
		store, _ := datasets.Citations()
		return store
	},
	"social": func(size int) *graph.Graph {
		return datasets.SocialNetwork(datasets.SocialConfig{People: size, FriendsEach: 8, Seed: 42})
	},
	"datacenter": func(size int) *graph.Graph {
		return datasets.DataCenter(datasets.DataCenterConfig{Services: size, MaxDeps: 3, Seed: 5})
	},
	"fraud": func(size int) *graph.Graph {
		return datasets.FraudNetwork(datasets.FraudConfig{AccountHolders: size, SharingFraction: 0.15, Seed: 5})
	},
}

// datasetKnown reports whether name is a valid -dataset value.
func datasetKnown(name string) bool {
	_, ok := datasetBuilders[name]
	return ok
}

func errUnknownDataset(name string) error {
	return fmt.Errorf("unknown dataset %q (want empty, citations, social, datacenter or fraud)", name)
}

// datasetStore builds the requested example dataset, or nil for "empty".
func datasetStore(dataset string, size int) (*graph.Graph, error) {
	build, ok := datasetBuilders[dataset]
	if !ok {
		return nil, errUnknownDataset(dataset)
	}
	if build == nil {
		return nil, nil
	}
	return build(size), nil
}

// serverConfig bundles the governance knobs main parses from flags; tests
// construct it directly and serve the routes from httptest.
type serverConfig struct {
	graph        *cypher.Graph
	parallelism  int
	queryTimeout time.Duration // server-wide cap; requests may tighten, never loosen
	memoryBudget int64         // server-wide cap, same convention
	maxInflight  int           // 0 = no admission control
	queueDepth   int
	queueWait    time.Duration
	slowQuery    time.Duration // 0 = slow-query log disabled
}

type server struct {
	cfg     serverConfig
	graph   *cypher.Graph
	started time.Time
	adm     *admission
}

func newServer(cfg serverConfig) *server {
	return &server{
		cfg:     cfg,
		graph:   cfg.graph,
		started: time.Now(),
		adm:     newAdmission(cfg.maxInflight, cfg.queueDepth, cfg.queueWait),
	}
}

// routes builds the API mux (everything except the /repl mount, which main
// attaches because only a clustered node has one).
func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/explain", s.handleExplain)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/admin/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("/admin/resync", s.handleResync)
	return mux
}

// admission is the server's query gate: at most maxInflight queries execute
// at once, at most queueDepth more wait (bounded by queueWait) for a slot.
// Beyond that the server sheds load with 429/503 instead of stacking
// goroutines until memory runs out.
type admission struct {
	slots    chan struct{} // buffered to maxInflight; a held token = an executing query
	queueCap int64
	wait     time.Duration

	queued            atomic.Int64
	admitted          atomic.Uint64
	rejectedQueueFull atomic.Uint64
	rejectedWait      atomic.Uint64
}

func newAdmission(maxInflight, queueDepth int, wait time.Duration) *admission {
	if maxInflight <= 0 {
		return nil
	}
	return &admission{
		slots:    make(chan struct{}, maxInflight),
		queueCap: int64(queueDepth),
		wait:     wait,
	}
}

// admissionError is a load-shedding decision: the HTTP status to answer with
// and how long the client should back off before retrying.
type admissionError struct {
	status     int
	retryAfter time.Duration
	msg        string
}

func (e *admissionError) Error() string { return e.msg }

// acquire blocks until the query may run. On admission it returns the
// release func the caller must defer; otherwise an *admissionError (or the
// client's own cancellation). A nil admission admits everything.
func (a *admission) acquire(ctx context.Context) (func(), error) {
	if a == nil {
		return func() {}, nil
	}
	release := func() { <-a.slots }
	// Fast path: a free slot means no queueing accounting at all.
	select {
	case a.slots <- struct{}{}:
		a.admitted.Add(1)
		return release, nil
	default:
	}
	if n := a.queued.Add(1); n > a.queueCap {
		a.queued.Add(-1)
		a.rejectedQueueFull.Add(1)
		return nil, &admissionError{
			status:     http.StatusTooManyRequests,
			retryAfter: a.wait,
			msg:        fmt.Sprintf("admission queue full (%d executing, %d queued)", cap(a.slots), a.queueCap),
		}
	}
	defer a.queued.Add(-1)
	t := time.NewTimer(a.wait)
	defer t.Stop()
	select {
	case a.slots <- struct{}{}:
		a.admitted.Add(1)
		return release, nil
	case <-t.C:
		a.rejectedWait.Add(1)
		return nil, &admissionError{
			status:     http.StatusServiceUnavailable,
			retryAfter: a.wait,
			msg:        fmt.Sprintf("server saturated: no execution slot freed within %v", a.wait),
		}
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

type queryRequest struct {
	Query  string         `json:"query"`
	Params map[string]any `json:"params"`
	// TimeoutMs and MemoryBudget are per-request governance overrides. They
	// tighten the server's -query-timeout / -memory-budget caps but can
	// never exceed them; negative values are rejected.
	TimeoutMs    int64 `json:"timeoutMs"`
	MemoryBudget int64 `json:"memoryBudget"`
}

type queryResponse struct {
	Columns     []string `json:"columns"`
	Rows        [][]any  `json:"rows"`
	Count       int      `json:"count"`
	ReadOnly    bool     `json:"readOnly"`
	Parallelism int      `json:"parallelism"`
	TimeMs      float64  `json:"timeMs"`
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST a JSON body {\"query\": ..., \"params\": ...}")
		return
	}
	var req queryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Query == "" {
		httpError(w, http.StatusBadRequest, "missing \"query\"")
		return
	}
	if req.TimeoutMs < 0 || req.MemoryBudget < 0 {
		httpError(w, http.StatusBadRequest, "timeoutMs and memoryBudget must be non-negative")
		return
	}

	release, err := s.adm.acquire(r.Context())
	if err != nil {
		var ae *admissionError
		if errors.As(err, &ae) {
			w.Header().Set("Retry-After", fmt.Sprint(int(ae.retryAfter.Seconds()+1)))
			httpError(w, ae.status, "%v", ae)
		}
		// Otherwise the client hung up while queued; nobody is listening.
		return
	}
	defer release()

	qopts := cypher.QueryOptions{
		Timeout:      tighten(time.Duration(req.TimeoutMs)*time.Millisecond, s.cfg.queryTimeout),
		MemoryBudget: tightenBytes(req.MemoryBudget, s.cfg.memoryBudget),
	}
	start := time.Now()
	res, err := s.graph.QueryContext(r.Context(), req.Query, req.Params, qopts)
	elapsed := time.Since(start)
	if s.cfg.slowQuery > 0 && elapsed >= s.cfg.slowQuery {
		log.Printf("slow query (%.1fms, err=%v): %s", float64(elapsed.Microseconds())/1000, err, req.Query)
	}
	if err != nil {
		s.writeQueryError(w, r, err)
		return
	}
	if !res.ReadOnly() {
		// In clustered mode a write response must mean majority-committed:
		// wait for a quorum of followers to durably acknowledge the entry
		// before answering 200. Non-clustered graphs return immediately.
		if err := s.graph.WaitReplicated(r.Context()); err != nil {
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
	}
	rows := res.Rows()
	out := queryResponse{
		Columns:     res.Columns(),
		Rows:        make([][]any, len(rows)),
		Count:       len(rows),
		ReadOnly:    res.ReadOnly(),
		Parallelism: res.Parallelism(),
		TimeMs:      float64(elapsed.Microseconds()) / 1000,
	}
	for i, row := range rows {
		conv := make([]any, len(row))
		for j, v := range row {
			conv[j] = jsonValue(v)
		}
		out.Rows[i] = conv
	}
	writeJSON(w, http.StatusOK, out)
}

// tighten resolves a per-request timeout against the server-wide cap:
// requests may tighten governance but never loosen it. Zero request means
// "inherit the cap" (QueryOptions zero = inherit the graph default, which is
// the same -query-timeout value).
func tighten(req, cap time.Duration) time.Duration {
	if req <= 0 {
		return 0
	}
	if cap > 0 && req > cap {
		return cap
	}
	return req
}

// tightenBytes is tighten for memory budgets.
func tightenBytes(req, cap int64) int64 {
	if req <= 0 {
		return 0
	}
	if cap > 0 && req > cap {
		return cap
	}
	return req
}

// writeQueryError maps engine failures onto HTTP statuses so clients and
// load balancers can tell governance outcomes apart:
//
//	307  follower rejected a write; retry the POST at the leader
//	408  the client itself went away mid-query
//	422  the query is invalid (parse/plan/runtime error)
//	500  an operator panicked; the query died, the server did not
//	503  no leader right now (election in progress, or the leader lost its
//	     quorum lease); back off per Retry-After and retry
//	504  the query hit its deadline
//	507  the query hit its memory budget
func (s *server) writeQueryError(w http.ResponseWriter, r *http.Request, err error) {
	var ro *cypher.ReadOnlyReplicaError
	var exhausted *cypher.ResourceExhaustedError
	var panicked *cypher.QueryPanicError
	var canceled *cypher.QueryCanceledError
	switch {
	case errors.As(err, &ro):
		if ro.Leader == "" {
			// Leaderless window: mid-election, or a degraded leader that
			// cannot prove its writes commit. The condition is transient, so
			// shed the write instead of redirecting nowhere.
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable, "no leader right now, retry shortly: %v", err)
			return
		}
		// 307 preserves the method and body, so a client that follows
		// redirects replays the same POST at the leader.
		w.Header().Set("Location", ro.Leader+"/query")
		httpError(w, http.StatusTemporaryRedirect, "%v", err)
	case errors.As(err, &exhausted):
		httpError(w, http.StatusInsufficientStorage, "%v", err)
	case errors.As(err, &panicked):
		// The panic is contained to the query; log the stack server-side,
		// return only the summary.
		log.Printf("query panic contained: %v\n%s", err, panicked.Stack)
		httpError(w, http.StatusInternalServerError, "%v", err)
	case errors.As(err, &canceled):
		if errors.Is(err, context.DeadlineExceeded) {
			httpError(w, http.StatusGatewayTimeout, "%v", err)
		} else {
			// The request context is the only cancellation source wired in,
			// so a plain cancel means the client disconnected mid-query.
			httpError(w, http.StatusRequestTimeout, "%v", err)
		}
	default:
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
	}
}

func (s *server) handleExplain(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		httpError(w, http.StatusBadRequest, "missing ?q=<query>")
		return
	}
	plan, err := s.graph.Explain(q)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"query": q, "plan": plan})
}

// handleHealthz reports liveness plus the node's replication position: role,
// the last applied WAL offset and — on a follower — lag behind the leader.
// A failed follower (unrecoverable divergence) answers 503 so load balancers
// stop routing reads to a stale replica.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	gov := s.graph.GovernanceStats()
	out := map[string]any{
		"status":   "ok",
		"role":     "single",
		"inFlight": gov.InFlight,
	}
	if s.adm != nil {
		out["queued"] = s.adm.queued.Load()
	}
	status := http.StatusOK
	if rs, ok := s.graph.ReplicationStats(); ok {
		// Clustered nodes report their live election view: the current
		// term, which role this node holds right now, and the leader it
		// recognizes — the failover harness and load balancers key off
		// these.
		out["role"] = rs.Role
		out["term"] = rs.Term
		out["leader"] = rs.ClusterLeader
		out["state"] = rs.State
		out["position"] = rs.Local
		if rs.Role == "follower" || rs.Role == "candidate" {
			out["lagEntries"] = rs.LagEntries
			out["lagBytes"] = rs.LagBytes
			if rs.State == "failed" {
				out["status"] = "failed"
				out["error"] = rs.LastError
				status = http.StatusServiceUnavailable
			}
		}
	} else if ds, ok := s.graph.DurabilityStats(); ok {
		out["position"] = map[string]any{"gen": ds.Generation, "offset": ds.WALSizeBytes}
	}
	writeJSON(w, status, out)
}

// handleCheckpoint forces a snapshot + WAL truncation. Exposed so operators
// (and the replication CI harness) can push the stream past a stopped
// follower's position on demand. A clustered node must be the elected
// leader: a follower's log mirrors the leader's.
func (s *server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST to checkpoint")
		return
	}
	if rs, ok := s.graph.ReplicationStats(); ok && rs.Role != "leader" {
		httpError(w, http.StatusForbidden, "only the elected leader checkpoints; this node is a %s", rs.Role)
		return
	}
	if _, ok := s.graph.DurabilityStats(); !ok {
		httpError(w, http.StatusConflict, "not a durable graph (start with -data)")
		return
	}
	if err := s.graph.Checkpoint(); err != nil {
		httpError(w, http.StatusInternalServerError, "checkpoint: %v", err)
		return
	}
	ds, _ := s.graph.DurabilityStats()
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "generation": ds.Generation})
}

// handleResync recovers a fail-stopped follower in place: the parked stream
// tailer discards its divergent local state and catches up from a fresh
// leader snapshot, without restarting the process or touching the data
// directory by hand. 409 on nodes that are not currently followers.
func (s *server) handleResync(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST to resync")
		return
	}
	if err := s.graph.Resync(); err != nil {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	out := map[string]any{"status": "resync requested"}
	if rs, ok := s.graph.ReplicationStats(); ok {
		out["state"] = rs.State
		out["forcedResyncs"] = rs.ForcedResyncs
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	gs := s.graph.Stats()
	cs := s.graph.PlanCacheStats()
	ms := s.graph.MVCCStats()
	durability := map[string]any{"enabled": false}
	if ds, ok := s.graph.DurabilityStats(); ok {
		durability = map[string]any{
			"enabled":          true,
			"dir":              ds.Dir,
			"syncMode":         ds.SyncMode,
			"generation":       ds.Generation,
			"walRecords":       ds.Records,
			"walBatches":       ds.Batches,
			"walBytes":         ds.Bytes,
			"walSizeBytes":     ds.WALSizeBytes,
			"fsyncs":           ds.Syncs,
			"checkpoints":      ds.Checkpoints,
			"recoveredRecords": ds.Recovery.SnapshotRecords + ds.Recovery.WALRecords,
			"recoveredTorn":    ds.Recovery.TornTail,
		}
		if !ds.LastCheckpoint.IsZero() {
			durability["lastCheckpoint"] = ds.LastCheckpoint.UTC().Format(time.RFC3339)
		}
	}
	indexes := make([]map[string]any, 0, len(gs.Indexes))
	for _, is := range gs.Indexes {
		sel := 1.0
		if is.DistinctKeys > 0 {
			sel = 1.0 / float64(is.DistinctKeys)
		}
		indexes = append(indexes, map[string]any{
			"label":        is.Label,
			"property":     is.Property,
			"entries":      is.Entries,
			"distinctKeys": is.DistinctKeys,
			"selectivity":  sel,
		})
	}
	replication := map[string]any{"enabled": false, "role": "single"}
	if rs, ok := s.graph.ReplicationStats(); ok {
		replication = map[string]any{
			"enabled":       true,
			"role":          rs.Role,
			"state":         rs.State,
			"position":      rs.Local,
			"term":          rs.Term,
			"leader":        rs.ClusterLeader,
			"quorumSize":    rs.QuorumSize,
			"ackedPeers":    rs.AckedPeers,
			"elections":     rs.Elections,
			"forcedResyncs": rs.ForcedResyncs,
		}
		switch rs.Role {
		case "leader":
			followers := make([]map[string]any, 0, len(rs.Followers))
			for _, fs := range rs.Followers {
				followers = append(followers, map[string]any{
					"remote":         fs.Remote,
					"sent":           fs.Sent,
					"connectedSince": fs.ConnectedSince.UTC().Format(time.RFC3339),
				})
			}
			replication["advertise"] = rs.Advertise
			replication["followers"] = followers
			replication["streamedEntries"] = rs.StreamedEntries
			replication["streamedBytes"] = rs.StreamedBytes
			replication["snapshotsServed"] = rs.SnapshotsServed
		case "follower":
			replication["leader"] = rs.Leader
			replication["leaderPosition"] = rs.LeaderPos
			replication["lagEntries"] = rs.LagEntries
			replication["lagBytes"] = rs.LagBytes
			replication["appliedBatches"] = rs.AppliedBatches
			replication["appliedRecords"] = rs.AppliedRecords
			replication["appliedBytes"] = rs.AppliedBytes
			replication["snapshotCatchups"] = rs.SnapshotCatchups
			replication["reconnects"] = rs.Reconnects
			replication["lastError"] = rs.LastError
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"durability":  durability,
		"replication": replication,
		"graph": map[string]any{
			"nodes":         gs.Nodes,
			"relationships": gs.Relationships,
			"labels":        gs.Labels,
			"types":         gs.Types,
			"averageDegree": gs.AverageDegree,
			"indexes":       indexes,
		},
		"planCache": map[string]any{
			"entries":       cs.Entries,
			"hits":          cs.Hits,
			"misses":        cs.Misses,
			"invalidations": cs.Invalidations,
		},
		"mvcc": map[string]any{
			"enabled":          ms.Enabled,
			"versions":         ms.Versions,
			"publishedEpoch":   ms.PublishedEpoch,
			"liveEpoch":        ms.LiveEpoch,
			"activePins":       ms.ActivePins,
			"pins":             ms.Pins,
			"publishes":        ms.Publishes,
			"writerDrainWaits": ms.WriterDrainWaits,
			"rebuilds":         ms.Rebuilds,
			"backlogLength":    ms.BacklogLen,
		},
		"governance": s.governance(),
		"execution": map[string]any{
			"parallelism": s.cfg.parallelism,
			"cpus":        runtime.NumCPU(),
		},
		"uptimeSeconds": time.Since(s.started).Seconds(),
	})
}

// governance merges the engine's per-query counters with the serving layer's
// admission numbers into one /stats section.
func (s *server) governance() map[string]any {
	gov := s.graph.GovernanceStats()
	out := map[string]any{
		"inFlight":         gov.InFlight,
		"canceled":         gov.Canceled,
		"deadlineExceeded": gov.DeadlineExceeded,
		"memoryExhausted":  gov.MemoryExhausted,
		"panicsRecovered":  gov.PanicsRecovered,
		"peakQueryBytes":   gov.PeakQueryBytes,
		"queryTimeout":     s.cfg.queryTimeout.String(),
		"memoryBudget":     s.cfg.memoryBudget,
		"slowQueryLog":     s.cfg.slowQuery > 0,
		"admission":        map[string]any{"enabled": false},
	}
	if s.adm != nil {
		out["admission"] = map[string]any{
			"enabled":           true,
			"maxInflight":       cap(s.adm.slots),
			"queueDepth":        s.adm.queueCap,
			"queueWait":         s.adm.wait.String(),
			"queued":            s.adm.queued.Load(),
			"admitted":          s.adm.admitted.Load(),
			"rejectedQueueFull": s.adm.rejectedQueueFull.Load(),
			"rejectedWait":      s.adm.rejectedWait.Load(),
		}
	}
	return out
}

// jsonValue converts a native Go result value (as produced by Result.Rows)
// into something json.Marshal renders faithfully: graph entities become
// explicit objects rather than opaque interface views.
func jsonValue(v any) any {
	switch t := v.(type) {
	case cypher.Node:
		return map[string]any{
			"id":         t.ID(),
			"labels":     t.Labels(),
			"properties": entityProps(t.PropertyKeys(), t.Property),
		}
	case cypher.Relationship:
		return map[string]any{
			"id":         t.ID(),
			"type":       t.RelType(),
			"start":      t.StartNodeID(),
			"end":        t.EndNodeID(),
			"properties": entityProps(t.PropertyKeys(), t.Property),
		}
	case cypher.Path:
		nodes := make([]any, len(t.Nodes))
		for i, n := range t.Nodes {
			nodes[i] = jsonValue(n)
		}
		rels := make([]any, len(t.Rels))
		for i, rel := range t.Rels {
			rels[i] = jsonValue(rel)
		}
		return map[string]any{"nodes": nodes, "relationships": rels}
	case []any:
		out := make([]any, len(t))
		for i, e := range t {
			out[i] = jsonValue(e)
		}
		return out
	case map[string]any:
		out := make(map[string]any, len(t))
		for k, e := range t {
			out[k] = jsonValue(e)
		}
		return out
	default:
		return v
	}
}

func entityProps(keys []string, get func(string) cypher.Value) map[string]any {
	out := make(map[string]any, len(keys))
	for _, k := range keys {
		out[k] = jsonValue(value.ToGo(get(k)))
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("encode response: %v", err)
	}
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]any{"error": fmt.Sprintf(format, args...)})
}
