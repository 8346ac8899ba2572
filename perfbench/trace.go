package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"time"

	cypher "repro"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/planner"
	"repro/internal/semantic"
	"repro/internal/storage"
	"repro/internal/value"
)

// A span is one timed call into a layer, recorded by this program around
// the layer's public function. Spans of one request share req; parent is
// the index of the enclosing span, -1 for the request span itself.
type span struct {
	name       string
	start, end time.Duration // since the recorder's origin
	parent     int
	req        int
}

// A recorder keeps spans in memory; they are written out when the run ends.
// A recorder that is off records nothing, which is how the same replay code
// runs untraced.
type recorder struct {
	on    bool
	t0    time.Time
	spans []span
}

func newRecorder(on bool) *recorder { return &recorder{on: on, t0: time.Now()} }

func (r *recorder) begin(name string, parent, req int) int {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{name: name, start: time.Since(r.t0), parent: parent, req: req})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if i >= 0 {
		r.spans[i].end = time.Since(r.t0)
	}
}

// layerOf maps span names to the repository's layers.
var layerOf = map[string]string{
	"request":     "request",
	"parse":       "lexer+parser",
	"check":       "semantic",
	"convert":     "core",
	"query":       "core",
	"plan":        "planner+plan",
	"pin":         "graph",
	"unpin":       "graph",
	"begin_write": "graph",
	"publish":     "graph",
	"execute":     "exec+eval+result",
	"append":      "storage",
	"sync":        "storage",
	"quorum_wait": "replica",
}

// durations returns, per request, the summed duration of its spans whose
// name is in names (one entry per request that has any).
func (r *recorder) durations(names ...string) []time.Duration {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	per := map[int]time.Duration{}
	var order []int
	for _, s := range r.spans {
		if !want[s.name] {
			continue
		}
		if _, ok := per[s.req]; !ok {
			order = append(order, s.req)
		}
		per[s.req] += s.end - s.start
	}
	out := make([]time.Duration, len(order))
	for i, id := range order {
		out[i] = per[id]
	}
	return out
}

// selfTimes returns each layer's self time: its spans' durations minus the
// part their child spans cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range r.spans {
		out[layerOf[s.name]] += s.end - s.start - child[i]
	}
	return out
}

// coverage is the share of request-span time the layer spans inside it
// account for; the rest is the replay loop's own bookkeeping.
func (r *recorder) coverage() float64 {
	var req, covered time.Duration
	for _, s := range r.spans {
		switch {
		case s.parent < 0:
			req += s.end - s.start
		case r.spans[s.parent].parent < 0:
			covered += s.end - s.start
		}
	}
	return ratio(float64(covered), float64(req))
}

// printLayers prints each layer's self time and its share of request time.
func (r *recorder) printLayers(label string) {
	self := r.selfTimes()
	var total time.Duration
	for _, s := range r.spans {
		if s.parent < 0 {
			total += s.end - s.start
		}
	}
	for _, l := range sortedKeys(self) {
		fmt.Printf("layer %s %-18s self=%10.3f ms share=%.4f\n", label, l, ms(self[l]), ratio(float64(self[l]), float64(total)))
	}
}

// write appends the spans as tab-separated lines: replay, request, span,
// layer, parent, start and end in microseconds.
func (r *recorder) write(w *bufio.Writer, label string) {
	for i, s := range r.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%s\t%s\t%d\t%.3f\t%.3f\n", label, s.req, i, s.name, layerOf[s.name], s.parent, us(s.start), us(s.end))
	}
}

// cacheEntries is core's plan and AST cache size (defaultPlanCacheSize).
const cacheEntries = 1024

// A replayer runs queries in-process through the same layer calls, in the
// same order, as core.Engine does: parse, check, pin, plan, execute, unpin
// for a read; parse, check, BeginWrite, plan, execute, Append, Publish,
// Sync for a write. Its AST and plan caches follow the engine's rules
// (keyed by query text, reset when 1024 entries are full, a plan valid for
// one graph epoch), so hits and misses fall where the server's would.
type replayer struct {
	vs    *graph.VersionedStore
	wal   *storage.Store // nil for an in-memory graph
	opts  exec.Options
	asts  map[string]*ast.Query
	plans map[string]cachedPlan

	planHits, planMisses int
	facts                []queryFacts
}

type cachedPlan struct {
	pl    *plan.Plan
	epoch uint64
}

// queryFacts are what a traced replay learns about one executed query.
type queryFacts struct {
	class       string
	exec        time.Duration
	allocBytes  uint64
	rows        int
	parallelism int
}

func newReplayer(vs *graph.VersionedStore, wal *storage.Store, parallelism int) *replayer {
	return &replayer{
		vs: vs, wal: wal,
		opts:  exec.Options{Parallelism: parallelism},
		asts:  map[string]*ast.Query{},
		plans: map[string]cachedPlan{},
	}
}

// fresh returns a replayer over the same graph with empty caches.
func (e *replayer) fresh() *replayer {
	return newReplayer(e.vs, e.wal, e.opts.Parallelism)
}

var allocSample = []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs reads the cumulative bytes allocated on the heap.
func heapAllocs() uint64 {
	rtmetrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

func (e *replayer) run(rec *recorder, id int, r request) error {
	root := rec.begin("request", -1, id)
	defer rec.end(root)
	q, ok := e.asts[r.query]
	if !ok {
		s := rec.begin("parse", root, id)
		parsed, err := parser.Parse(r.query)
		rec.end(s)
		if err != nil {
			return err
		}
		s = rec.begin("check", root, id)
		err = semantic.Check(parsed)
		rec.end(s)
		if err != nil {
			return err
		}
		if len(e.asts) > cacheEntries {
			e.asts = map[string]*ast.Query{}
		}
		e.asts[r.query], q = parsed, parsed
	}
	s := rec.begin("convert", root, id)
	params, err := core.ConvertParams(r.params)
	rec.end(s)
	if err != nil {
		return err
	}
	if q.IsReadOnly() {
		s = rec.begin("pin", root, id)
		g := e.vs.Pin()
		rec.end(s)
		err = e.execute(rec, root, id, r, g, q, params)
		s = rec.begin("unpin", root, id)
		e.vs.Unpin(g)
		rec.end(s)
		return err
	}
	s = rec.begin("begin_write", root, id)
	g := e.vs.BeginWrite()
	rec.end(s)
	err = e.execute(rec, root, id, r, g, q, params)
	var ticket storage.CommitTicket
	if e.wal != nil {
		s = rec.begin("append", root, id)
		t, aerr := e.wal.Append()
		rec.end(s)
		if aerr != nil && err == nil {
			err = aerr
		}
		ticket = t
	}
	s = rec.begin("publish", root, id)
	e.vs.Publish()
	rec.end(s)
	if e.wal != nil {
		s = rec.begin("sync", root, id)
		serr := e.wal.Sync(ticket)
		rec.end(s)
		if serr != nil && err == nil {
			err = serr
		}
	}
	return err
}

func (e *replayer) execute(rec *recorder, root, id int, r request, g *graph.Graph, q *ast.Query, params map[string]value.Value) error {
	c, ok := e.plans[r.query]
	if ok && c.epoch == g.Epoch() {
		e.planHits++
	} else {
		e.planMisses++
		s := rec.begin("plan", root, id)
		pl, err := planner.New(g).Plan(q)
		rec.end(s)
		if err != nil {
			return err
		}
		if !ok && len(e.plans) >= cacheEntries {
			e.plans = map[string]cachedPlan{}
		}
		c = cachedPlan{pl: pl, epoch: g.Epoch()}
		e.plans[r.query] = c
	}
	s := rec.begin("execute", root, id)
	var a0 uint64
	if rec.on {
		a0 = heapAllocs()
	}
	start := time.Now()
	ex := exec.New(g, params, e.opts)
	tbl, err := ex.Execute(c.pl)
	if err == nil {
		tbl.DetachEntities()
	}
	took := time.Since(start)
	if rec.on && err == nil {
		e.facts = append(e.facts, queryFacts{
			class: r.class, exec: took, allocBytes: heapAllocs() - a0,
			rows: tbl.Len(), parallelism: ex.UsedParallelism(),
		})
	}
	rec.end(s)
	return err
}

// replay runs the workload's streams (clients interleaved) through e: for
// budget when n is 0, otherwise exactly n requests. It returns how many
// requests ran and how long they took.
func replay(e *replayer, rec *recorder, w *workload, seed int64, budget time.Duration, n int) (int, time.Duration, error) {
	streams := newStreams(w, seed)
	start := time.Now()
	i := 0
	for ; n == 0 && time.Since(start) < budget || n > 0 && i < n; i++ {
		if err := e.run(rec, i, streams[i%len(streams)].next()); err != nil {
			return i, 0, fmt.Errorf("replay request %d: %w", i, err)
		}
	}
	return i, time.Since(start), nil
}

// durableReplayer opens a single-node durable graph (WAL, fsync at every
// commit) under dir and loads write-cluster's accounts through it.
func durableReplayer(dir string) (*replayer, func(), error) {
	store := graph.NewNamed("graph")
	wal, err := storage.Open(dir, store, storage.Options{SyncMode: storage.SyncAlways})
	if err != nil {
		return nil, nil, err
	}
	vs := graph.NewVersionedStore(store)
	// The engine's mutation hook: journal every change and feed the MVCC
	// replica backlog.
	store.SetMutationHook(func(m graph.Mutation) {
		wal.Record(m)
		vs.Capture(m)
	})
	e := newReplayer(vs, wal, 1)
	closeFn := func() { _ = wal.Close() } // the directory is removed right after
	if err := e.run(newRecorder(false), 0, request{query: acctLoad}); err != nil {
		closeFn()
		return nil, nil, err
	}
	return e, closeFn, nil
}

// passResult is a workload replay: untraced passes for throughput around
// a traced pass over the same requests.
type passResult struct {
	rec                    *recorder
	traced                 *replayer
	n                      int
	untracedQPS, tracedQPS float64
	gcPauseMsPerS          float64
}

// passes replays the workload untraced for budget, then traced over the
// same requests, then untraced again; each pass starts with empty caches.
// The untraced throughput is the mean of the two untraced passes, so that
// warming up does not count as tracing overhead.
func passes(e *replayer, w *workload, seed int64, budget time.Duration) (*passResult, error) {
	n, took, err := replay(e.fresh(), newRecorder(false), w, seed, budget, 0)
	if err != nil {
		return nil, err
	}
	p := &passResult{traced: e.fresh(), rec: newRecorder(true), n: n}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, ttook, err := replay(p.traced, p.rec, w, seed, 0, n)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	_, took2, err := replay(e.fresh(), newRecorder(false), w, seed, 0, n)
	if err != nil {
		return nil, err
	}
	p.untracedQPS = 2 * float64(n) / (took + took2).Seconds()
	p.tracedQPS = float64(n) / ttook.Seconds()
	p.gcPauseMsPerS = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6 / ttook.Seconds()
	return p, nil
}

// probeResult is what the in-process cluster probe measured.
type probeResult struct {
	recs     []*recorder
	counters metrics
	lagMax   int64
	catchup  time.Duration
}

// clusterProbe sends write-cluster's writes for dur, from as many writers as
// the workload has clients, to an in-process three-node cypher.OpenCluster
// whose nodes talk over loopback HTTP servers mounting ReplicationHandler.
// It records spans around QueryContext and WaitReplicated, the two calls
// cypher-serve makes for a write.
func clusterProbe(cfg *config, wc *workload, dur time.Duration) (*probeResult, error) {
	dir := filepath.Join(cfg.workdir, "probe")
	var (
		lns   []net.Listener
		urls  []string
		gs    []*cypher.Graph
		srvs  []*http.Server
		serve sync.WaitGroup
	)
	defer func() {
		for _, s := range srvs {
			s.Close()
		}
		serve.Wait()
		for _, g := range gs {
			g.Close()
		}
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < 3; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	for i, u := range urls {
		g, err := cypher.OpenCluster(filepath.Join(dir, fmt.Sprintf("n%d", i)), cypher.Options{
			Advertise: u, Peers: urls, SyncMode: cypher.SyncAlways, ElectionTimeout: electionTimeout,
		})
		if err != nil {
			return nil, err
		}
		gs = append(gs, g)
		h, err := g.ReplicationHandler(u)
		if err != nil {
			return nil, err
		}
		mux := http.NewServeMux()
		mux.Handle("/repl/", http.StripPrefix("/repl", h))
		srv := &http.Server{Handler: mux}
		srvs = append(srvs, srv)
		serve.Add(1)
		go func(ln net.Listener) {
			defer serve.Done()
			_ = srv.Serve(ln) // returns http.ErrServerClosed once Close runs
		}(lns[i])
	}
	// Bound every probe write, so that a cluster that lost its quorum fails
	// the run instead of hanging it.
	ctx, cancel := context.WithTimeout(context.Background(), dur+time.Minute)
	defer cancel()
	lead, followers, err := probeLeader(ctx, gs)
	if err != nil {
		return nil, err
	}
	for _, f := range followers {
		if err := waitCount(f, acctKeys, 60*time.Second); err != nil {
			return nil, err
		}
	}

	roles := make([]string, len(gs))
	before := make([]counters, len(gs))
	for i, g := range gs {
		before[i] = graphCounters(g)
		roles[i] = "follower"
		if g == lead {
			roles[i] = "leader"
		}
	}
	p := &probeResult{}
	stopLag := make(chan struct{})
	var lagWG sync.WaitGroup
	lagWG.Add(1)
	go func() {
		defer lagWG.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopLag:
				return
			case <-t.C:
				for _, f := range followers {
					if rs, ok := f.ReplicationStats(); ok && rs.LagEntries > p.lagMax {
						p.lagMax = rs.LagEntries
					}
				}
			}
		}
	}()
	start := time.Now()
	deadline := start.Add(dur)
	errs := make([]error, wc.clients)
	acked := make([]int, wc.clients)
	var writers sync.WaitGroup
	for c := 0; c < wc.clients; c++ {
		rec := newRecorder(true)
		p.recs = append(p.recs, rec)
		writers.Add(1)
		go func(c int, rec *recorder) {
			defer writers.Done()
			s := newStream(wc, cfg.seed, c)
			for id := 0; time.Now().Before(deadline); {
				r := s.next()
				if !r.write {
					continue
				}
				root := rec.begin("request", -1, id)
				sp := rec.begin("query", root, id)
				_, err := lead.QueryContext(ctx, r.query, r.params, cypher.QueryOptions{})
				rec.end(sp)
				if err == nil {
					sp = rec.begin("quorum_wait", root, id)
					err = lead.WaitReplicated(ctx)
					rec.end(sp)
				}
				rec.end(root)
				if err != nil {
					errs[c] = fmt.Errorf("probe write %q: %w", r.query, err)
					return
				}
				acked[c]++
				id++
			}
		}(c, rec)
	}
	writers.Wait()
	elapsed := time.Since(start)
	after := make([]counters, len(gs))
	for i, g := range gs {
		after[i] = graphCounters(g)
	}
	catchStart := time.Now()
	for !probeConverged(lead, followers) {
		if time.Since(catchStart) > 60*time.Second {
			close(stopLag)
			lagWG.Wait()
			return nil, fmt.Errorf("probe followers did not catch up")
		}
		time.Sleep(100 * time.Microsecond)
	}
	p.catchup = time.Since(catchStart)
	close(stopLag)
	lagWG.Wait()
	writes := 0
	for c := range errs {
		if errs[c] != nil {
			return nil, errs[c]
		}
		writes += acked[c]
	}
	fmt.Printf("probe in-process 3-node cluster: %d quorum writes in %.3f s from %d writers, catch-up %.3f ms\n", writes, elapsed.Seconds(), wc.clients, ms(p.catchup))
	p.counters = counterMetrics("probe", roles, before, after, elapsed, writes)
	return p, nil
}

// probeLeader waits until one node leads, every node names it, and it
// accepts the account load, which it then commits to a quorum.
func probeLeader(ctx context.Context, gs []*cypher.Graph) (*cypher.Graph, []*cypher.Graph, error) {
	for ctx.Err() == nil {
		var lead *cypher.Graph
		var followers []*cypher.Graph
		for _, g := range gs {
			if rs, ok := g.ReplicationStats(); ok && rs.Role == "leader" {
				lead = g
			} else {
				followers = append(followers, g)
			}
		}
		if lead != nil && len(followers) == len(gs)-1 {
			_, err := lead.QueryContext(ctx, acctLoad, nil, cypher.QueryOptions{})
			var ro *cypher.ReadOnlyReplicaError
			switch {
			case err == nil:
				if err := lead.WaitReplicated(ctx); err != nil {
					return nil, nil, fmt.Errorf("probe account load: %w", err)
				}
				return lead, followers, nil
			case !errors.As(err, &ro):
				return nil, nil, fmt.Errorf("probe account load: %w", err)
			}
			// Still promoting: nothing was applied; try again.
		}
		time.Sleep(20 * time.Millisecond)
	}
	return nil, nil, fmt.Errorf("probe cluster elected no writable leader: %w", ctx.Err())
}

func waitCount(g *cypher.Graph, want int64, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		res, err := g.Run("MATCH (a:Acct) RETURN count(a) AS n", nil)
		if err != nil {
			return err
		}
		if n, ok := res.Rows()[0][0].(int64); ok && n == want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("probe follower does not see the %d accounts", want)
		}
		time.Sleep(time.Millisecond)
	}
}

func probeConverged(lead *cypher.Graph, followers []*cypher.Graph) bool {
	ls, _ := lead.ReplicationStats()
	for _, f := range followers {
		if fs, _ := f.ReplicationStats(); fs.Local != ls.Local {
			return false
		}
	}
	return true
}

// graphCounters reads one in-process node's layer counters through the
// accessors GET /stats renders.
func graphCounters(g *cypher.Graph) counters {
	cs, ms := g.PlanCacheStats(), g.MVCCStats()
	c := counters{
		Hits: cs.Hits, Misses: cs.Misses, Invalidations: cs.Invalidations,
		Publishes: ms.Publishes, DrainWaits: ms.WriterDrainWaits,
	}
	if ds, ok := g.DurabilityStats(); ok {
		c.WALBatches, c.WALBytes, c.Fsyncs = ds.Batches, ds.Bytes, ds.Syncs
	}
	if rs, ok := g.ReplicationStats(); ok {
		c.Streamed, c.Applied = rs.StreamedEntries, rs.AppliedBatches
	}
	return c
}

// perLayer are the metrics a traced run reports, in BENCHMARK.json order.
var perLayer = []string{
	"serve.overhead_ms_p50", "serve.overhead_ms_p99", "serve.resp_bytes_mean",
	"parser.parse_us_p50", "semantic.check_us_p50",
	"core.plancache_hit_ratio", "core.plancache_invalidations_per_write",
	"planner.plan_us_p50", "planner.plan_us_p99",
	"exec.execute_ms_p50", "exec.execute_ms_p99", "exec.execute_ms_p50.slowest_class",
	"exec.parallelism_mean", "exec.alloc_bytes_per_query", "exec.rows_out_per_query",
	"runtime.gc_pause_ms_per_s",
	"graph.pin_us_p50", "graph.begin_write_us_p50", "graph.begin_write_us_p99", "graph.publish_us_p50",
	"graph.writer_drain_waits_per_write",
	"storage.wal_append_us_p50", "storage.wal_sync_us_p50", "storage.wal_sync_us_p99",
	"storage.fsyncs_per_batch", "storage.wal_bytes_per_write",
	"replica.quorum_wait_ms_p50", "replica.quorum_wait_ms_p99",
	"replica.follower_apply_per_s", "replica.streamed_per_applied",
	"replica.lag_entries_max", "replica.catchup_ms",
	"trace.overhead_qps", "trace.span_coverage",
}

// minCoverage is the least share of request time the layer spans must
// account for; below it the trace misses a layer and the run fails.
const minCoverage = 0.9

func durationsIn(ds []time.Duration, unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = unit(d)
	}
	return out
}

// setQuantiles sets name_p50 (and name_p99 when p99) from durations.
func (m metrics) setQuantiles(name string, ds []time.Duration, unit func(time.Duration) float64, unitName string, p99 bool) {
	xs := durationsIn(ds, unit)
	m.set(name+"_p50", quantile(xs, 0.5), unitName, len(xs))
	if p99 {
		m.set(name+"_p99", quantile(xs, 0.99), unitName, len(xs))
	}
}

// tracedRun is the separate traced run. It serves the workload over HTTP
// once (for the serving layer's overhead and the counter deltas), replays
// the workload's stream in-process through the layers with spans, replays
// write-cluster's writes on a durable single node (the read workloads send
// none), and probes the quorum wait on an in-process cluster.
func tracedRun(cfg *config, w *workload) (result, error) {
	d, setup, err := deployTimed(cfg, w, 1)
	if err != nil {
		return result{}, err
	}
	s, err := serve(cfg, w, d, true, w.cluster)
	if err != nil {
		return result{}, err
	}
	var store *graph.Graph
	if !w.cluster {
		store = socialStore(w.people)
		if err := checkOracle(s, cypher.Wrap(store, cypher.Options{Parallelism: 1})); err != nil {
			return result{}, err
		}
	}
	endToEndMetrics(w, s, setup, 1).print("served")
	m := metrics{}
	if err := serveOverhead(m, s.timed.outcomes); err != nil {
		return result{}, err
	}

	budget := time.Duration(cfg.seconds) * time.Second / 6
	wc := workloads(runtime.NumCPU())["write-cluster"]
	var work *replayer
	if w.cluster {
		dw, closeFn, err := durableReplayer(filepath.Join(cfg.workdir, "replay"))
		if err != nil {
			return result{}, err
		}
		defer closeFn()
		work = dw
	} else {
		work = newReplayer(graph.NewVersionedStore(store), nil, w.parallelism)
	}
	p, err := passes(work, w, cfg.seed, budget)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("replay %s: %d requests, untraced %.1f req/s, traced %.1f req/s; plan cache hits=%d misses=%d\n",
		w.name, p.n, p.untracedQPS, p.tracedQPS, p.traced.planHits, p.traced.planMisses)
	writeRec := p.rec
	if !w.cluster {
		dw, closeFn, err := durableReplayer(filepath.Join(cfg.workdir, "replay"))
		if err != nil {
			return result{}, err
		}
		writeRec = newRecorder(true)
		n, _, err := replay(dw, writeRec, wc, cfg.seed, budget/2, 0)
		closeFn()
		if err != nil {
			return result{}, err
		}
		fmt.Printf("replay write-cluster stream on a durable single node (sync %s): %d requests\n", syncPolicy, n)
	}
	probe, err := clusterProbe(cfg, wc, budget/2)
	if err != nil {
		return result{}, err
	}

	rec := p.rec
	m.setQuantiles("parser.parse_us", rec.durations("parse"), us, "us", false)
	m.setQuantiles("semantic.check_us", rec.durations("check"), us, "us", false)
	m.setQuantiles("planner.plan_us", rec.durations("plan"), us, "us", true)
	m.setQuantiles("graph.pin_us", rec.durations("pin", "unpin"), us, "us", false)
	var execs []time.Duration
	var par, alloc, rows []float64
	byClass := map[string][]time.Duration{}
	allocByClass := map[string][]float64{}
	for _, f := range p.traced.facts {
		execs = append(execs, f.exec)
		byClass[f.class] = append(byClass[f.class], f.exec)
		allocByClass[f.class] = append(allocByClass[f.class], float64(f.allocBytes))
		par = append(par, float64(f.parallelism))
		alloc = append(alloc, float64(f.allocBytes))
		rows = append(rows, float64(f.rows))
	}
	m.setQuantiles("exec.execute_ms", execs, ms, "ms", true)
	slowest := metric{value: math.Inf(-1)}
	for _, c := range sortedKeys(byClass) {
		xs := durationsIn(byClass[c], ms)
		v := metric{value: quantile(xs, 0.5), unit: "ms", n: len(xs)}
		fmt.Printf("class %-16s exec.execute_ms_p50=%.4f exec.alloc_bytes_per_query=%.0f n=%d\n", c, v.value, mean(allocByClass[c]), v.n)
		if v.value > slowest.value {
			slowest = v
		}
	}
	m["exec.execute_ms_p50.slowest_class"] = slowest
	m.set("exec.parallelism_mean", mean(par), "workers", len(par))
	m.set("exec.alloc_bytes_per_query", mean(alloc), "bytes", len(alloc))
	m.set("exec.rows_out_per_query", mean(rows), "rows", len(rows))
	m.set("runtime.gc_pause_ms_per_s", p.gcPauseMsPerS, "ms/s", p.n)

	m.setQuantiles("graph.begin_write_us", writeRec.durations("begin_write"), us, "us", true)
	m.setQuantiles("graph.publish_us", writeRec.durations("publish"), us, "us", false)
	m.setQuantiles("storage.wal_append_us", writeRec.durations("append"), us, "us", false)
	m.setQuantiles("storage.wal_sync_us", writeRec.durations("sync"), us, "us", true)
	var quorum []time.Duration
	for _, r := range probe.recs {
		quorum = append(quorum, r.durations("quorum_wait")...)
	}
	m.setQuantiles("replica.quorum_wait_ms", quorum, ms, "ms", true)

	// Counter ratios come from the served phase where the workload has the
	// traffic (reads always; writes on write-cluster only), else from the
	// in-process cluster probe.
	for k, v := range probe.counters {
		m[k] = v
	}
	for k, v := range s.counters {
		m[k] = v
	}
	lagMax, catchup := probe.lagMax, probe.catchup
	if w.cluster {
		lagMax, catchup = s.lagMax, s.catchup
	}
	m.set("replica.lag_entries_max", float64(lagMax), "entries", 1)
	m.set("replica.catchup_ms", ms(catchup), "ms", 1)

	m.set("trace.overhead_qps", p.tracedQPS-p.untracedQPS, "1/s", p.n)
	m.set("trace.span_coverage", rec.coverage(), "ratio", p.n)

	rec.printLayers(w.name)
	if writeRec != rec {
		writeRec.printLayers("write-path")
	}
	for i, r := range probe.recs {
		r.printLayers(fmt.Sprintf("probe-writer-%d", i))
	}
	recs := map[string]*recorder{"workload": rec}
	if writeRec != rec {
		recs["write-path"] = writeRec
	}
	if err := writeSpans(cfg, w, recs, probe.recs); err != nil {
		return result{}, err
	}
	m.print("layer-metric")
	res, err := newResult(s.all(), m, perLayer)
	if err != nil {
		return res, err
	}
	recs["probe"] = probe.recs[0]
	for label, r := range recs {
		if c := r.coverage(); !(c >= minCoverage) {
			fmt.Printf("check span coverage FAILED: %s layer spans cover %.4f of request time, want >= %.2f\n", label, c, minCoverage)
			res.Correct = false
		}
	}
	return res, nil
}

// serveOverhead sets the serving layer's share of each read: the client's
// latency minus the server's own timeMs, and the reply size.
func serveOverhead(m metrics, outs []outcome) error {
	var over, size []float64
	for _, o := range outs {
		if !o.ok {
			continue
		}
		size = append(size, float64(o.bytes))
		if o.req.write {
			continue
		}
		r, err := decodeReply(o.body)
		if err != nil {
			return err
		}
		over = append(over, ms(o.lat)-r.TimeMs)
	}
	m.set("serve.overhead_ms_p50", quantile(over, 0.5), "ms", len(over))
	m.set("serve.overhead_ms_p99", quantile(over, 0.99), "ms", len(over))
	m.set("serve.resp_bytes_mean", mean(size), "bytes", len(size))
	return nil
}

// writeSpans writes every recorded span, tab-separated, next to the run
// directory so that it survives the run's cleanup.
func writeSpans(cfg *config, w *workload, recs map[string]*recorder, probe []*recorder) error {
	dir := filepath.Join(filepath.Dir(cfg.workdir), "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.tsv", w.name, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "replay\treq\tspan\tname\tlayer\tparent\tstart_us\tend_us")
	for _, l := range sortedKeys(recs) {
		recs[l].write(bw, l)
	}
	for i, r := range probe {
		r.write(bw, fmt.Sprintf("probe-writer-%d", i))
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("spans written to %s\n", path)
	return nil
}
