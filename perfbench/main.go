// Command perfbench is the repository's end-to-end benchmark. It starts
// cypher-serve as a single node or as a three-node -peers cluster, drives it
// over POST /query with closed-loop clients whose requests come from a
// seeded stream, checks the answers, and prints every metric by name with
// its unit and sample count. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced.
// With -trace 1 a separate traced run reports the per-layer metrics: it
// replays the workload's stream through each layer's public functions with
// spans recorded in this program, and reads the layers' counters.
//
// Run it through run.sh, which builds cypher-serve and this program from the
// checkout:
//
//	bash perfbench/run.sh --workload read-oltp --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	cypher "repro"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	serve    string
	workdir  string
}

// warmup runs before the timed phase so that caches fill and the servers'
// lazy set-up is done; it is not part of setup_s.
const warmup = 2 * time.Second

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "read-oltp, scan-olap or write-cluster")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the request stream")
	flag.IntVar(&cfg.seconds, "seconds", 30, "length of the timed phase")
	flag.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.StringVar(&cfg.serve, "serve", "", "path of the cypher-serve binary")
	flag.StringVar(&cfg.workdir, "workdir", "", "scratch directory for server data and logs (removed on exit)")
	flag.Parse()

	ws := workloads(runtime.NumCPU())
	w, ok := ws[cfg.workload]
	if !ok || cfg.serve == "" || cfg.workdir == "" || cfg.seconds < 1 || (cfg.trace != 0 && cfg.trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench -serve BIN -workdir DIR --workload {read-oltp|scan-olap|write-cluster} --seed N --seconds S --trace {0|1}\n")
		os.Exit(2)
	}
	// A previous run that was killed outright may have left its directory.
	if err := os.RemoveAll(cfg.workdir); err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fatal(err)
	}
	track(cfg.workdir)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		s := <-sigs
		fmt.Fprintf(os.Stderr, "perfbench: %v: stopping servers\n", s)
		cleanup()
		os.Exit(130)
	}()

	printEnv(&cfg, w)
	var (
		res result
		err error
	)
	if cfg.trace == 1 {
		res, err = tracedRun(&cfg, w)
	} else {
		res, err = timedRun(&cfg, w)
	}
	cleanup()
	if err != nil {
		fatal(err)
	}
	res.print()
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	cleanup()
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func printEnv(cfg *config, w *workload) {
	fmt.Printf("env nproc=%d GOMAXPROCS=%d go=%s os=%s/%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("run workload=%s seed=%d seconds=%d trace=%d warmup=%v setup_reps=%d\n", w.name, cfg.seed, cfg.seconds, cfg.trace, warmup, w.setupReps)
	if w.cluster {
		fmt.Printf("topology 3-node -peers cluster, -data, -sync %s on every node, election timeout %v; %d :Acct nodes loaded at set-up; %d closed-loop clients, writes to the leader, reads round-robin over the followers\n",
			syncPolicy, electionTimeout, acctKeys, w.clients)
	} else {
		fmt.Printf("topology single in-memory node, -dataset social -size %d (degree 8), -parallelism %d; %d closed-loop client(s)\n", w.people, w.parallelism, w.clients)
	}
	counts := map[string]int{}
	for _, c := range w.deck {
		counts[c]++
	}
	var mix []string
	for _, c := range w.classes() {
		mix = append(mix, fmt.Sprintf("%s=%d/%d", c, counts[c], len(w.deck)))
	}
	fmt.Printf("mix %s\n", strings.Join(mix, " "))
}

// result is the final JSON line.
type result struct {
	Correct   bool                       `json:"correct"`
	Attempted int                        `json:"attempted"`
	Failed    int                        `json:"failed"`
	Metrics   map[string]json.RawMessage `json:"metrics"`
}

func newResult(outs []outcome, m metrics, names []string) (result, error) {
	r := result{Correct: true, Metrics: map[string]json.RawMessage{}}
	for _, o := range outs {
		r.Attempted++
		if !o.ok {
			r.Failed++
		}
	}
	for _, name := range names {
		v, ok := m[name]
		if !ok || math.IsNaN(v.value) || math.IsInf(v.value, 0) {
			return r, fmt.Errorf("metric %s was not measured (%v)", name, v.value)
		}
		b, err := json.Marshal(map[string]any{"value": v.value, "unit": v.unit})
		if err != nil {
			return r, err
		}
		r.Metrics[name] = b
	}
	return r, nil
}

func (r result) print() {
	b, err := json.Marshal(r)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// endToEnd are the metrics a timed run reports, in BENCHMARK.json order.
var endToEnd = []string{"setup_s", "qps", "p50_ms", "p99_ms", "read_p50_ms", "read_p99_ms", "rss_mb"}

// deployTimed deploys setupReps times and keeps the last deployment; it
// returns the median set-up time.
func deployTimed(cfg *config, w *workload, reps int) (*deployment, float64, error) {
	var times []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		d, err := deploy(cfg, w, i)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < reps-1 {
			d.stop()
			continue
		}
		fmt.Printf("setup times_s=%v\n", fmtFloats(times))
		return d, median(times), nil
	}
	return nil, 0, fmt.Errorf("no deployment")
}

func fmtFloats(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.4f", x)
	}
	return "[" + strings.Join(s, " ") + "]"
}

func newStreams(w *workload, seed int64) []*stream {
	s := make([]*stream, w.clients)
	for c := range s {
		s[c] = newStream(w, seed, c)
	}
	return s
}

// served is the outcome of driving one deployment: the warm-up and timed
// phases, the counter deltas around the timed phase and the checks.
type served struct {
	warm, timed phase
	counters    metrics
	rssMB       float64 // summed over nodes
	nodes       int
	catchup     time.Duration
	lagMax      int64
}

func (s *served) all() []outcome {
	return append(append([]outcome(nil), s.warm.outcomes...), s.timed.outcomes...)
}

// serve drives the deployment through warm-up and the timed phase and, on
// write-cluster, runs the convergence and follower-read checks. It stops
// the deployment before returning, so that the oracle's copy of the dataset
// (checkOracle) never shares memory with the servers.
func serve(cfg *config, w *workload, d *deployment, keepBodies, sampleLag bool) (*served, error) {
	defer d.stop()
	streams := newStreams(w, cfg.seed)
	s := &served{}
	s.warm = drive(d, streams, warmup, keepBodies)
	before, err := snapshot(d)
	if err != nil {
		return nil, err
	}
	var lag *lagSampler
	if sampleLag {
		lag = startLagSampler(d)
	}
	s.timed = drive(d, streams, time.Duration(cfg.seconds)*time.Second, keepBodies)
	if lag != nil {
		s.lagMax = lag.stop()
	}
	after, err := snapshot(d)
	if err != nil {
		return nil, err
	}
	s.nodes = len(d.nodes)
	if s.rssMB, err = d.peakRSSMB(); err != nil {
		return nil, err
	}
	tally := tallyWrites(s.timed.outcomes)
	s.counters = counterMetrics("served", d.roles(), before, after, s.timed.elapsed, tally.createsAcked+tally.updatesAcked)
	if w.cluster {
		if s.catchup, err = d.waitConverged(60 * time.Second); err != nil {
			return nil, err
		}
		all := tallyWrites(s.all())
		if err := checkConverged(d, all, 30*time.Second); err != nil {
			return nil, fmt.Errorf("convergence check: %w", err)
		}
		n, err := checkFollowerReads(s.all(), all)
		if err != nil {
			return nil, fmt.Errorf("follower read check: %w", err)
		}
		fmt.Printf("check convergence ok: creates acked=%d tried=%d, updates acked=%d tried=%d, catch-up %.3f ms; follower reads checked=%d\n",
			all.createsAcked, all.createsTried, all.updatesAcked, all.updatesTried, ms(s.catchup), n)
	}
	return s, nil
}

// checkOracle compares the sampled read replies of a single-node workload
// with the serial engine.
func checkOracle(s *served, oracle *cypher.Graph) error {
	n, err := checkAnswers(oracle, s.all())
	if err != nil {
		return fmt.Errorf("answer check: %w", err)
	}
	if n == 0 {
		return fmt.Errorf("answer check: no sampled reply to check")
	}
	fmt.Printf("check answers ok: %d sampled replies equal the serial engine's\n", n)
	return nil
}

func timedRun(cfg *config, w *workload) (result, error) {
	t0 := time.Now()
	d, setup, err := deployTimed(cfg, w, w.setupReps)
	if err != nil {
		return result{}, err
	}
	t1 := time.Now()
	s, err := serve(cfg, w, d, false, false)
	if err != nil {
		return result{}, err
	}
	t2 := time.Now()
	if !w.cluster {
		if err := checkOracle(s, cypher.Wrap(socialStore(w.people), cypher.Options{Parallelism: 1})); err != nil {
			return result{}, err
		}
	}
	fmt.Printf("wall set-ups=%.1fs load+checks=%.1fs oracle=%.1fs\n", t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), time.Since(t2).Seconds())
	m := endToEndMetrics(w, s, setup, w.setupReps)
	m.print("metric")
	s.counters.print("counter")
	return newResult(s.all(), m, endToEnd)
}

// windowCount is how many equal windows the timed phase is cut into. qps and
// the p50s are the median over the windows, so that a burst of outside
// interference (another tenant's work on a shared machine, a collection of
// the server's large heap) that hits a few windows moves them less. A p99
// is the median over as many windows as each still hold tailSamples
// samples, so that every window's p99 rests on at least ten samples beyond
// it; with fewer samples the p99 pools the whole phase.
const (
	windowCount = 10
	tailSamples = 1000
)

// endToEndMetrics computes the user-visible metrics of the timed phase.
func endToEndMetrics(w *workload, s *served, setup float64, setupN int) metrics {
	outs := s.timed.outcomes
	m := metrics{}
	m.set("setup_s", setup, "s", setupN)
	failed := 0
	for _, o := range outs {
		if !o.ok {
			failed++
		}
	}
	m.set("error_rate", float64(failed)/float64(len(outs)), "ratio", len(outs))
	if failed > 0 {
		byStatus := map[int]int{}
		for _, o := range outs {
			if !o.ok {
				byStatus[o.status]++
			}
		}
		fmt.Printf("failures by HTTP status (0 = no reply): %v\n", byStatus)
	}
	rates := windowRates(s.timed, windowCount)
	fmt.Printf("timeline qps per window: %s\n", fmtFloats(rates))
	m.set("qps", median(rates), "1/s", len(outs)-failed)

	isRead := func(o outcome) bool { return !o.req.write }
	isWrite := func(o outcome) bool { return o.req.write }
	// p50_ms and p99_ms time the workload's primary class: its reads, or on
	// write-cluster the quorum-committed writes.
	primary := isRead
	if w.cluster {
		primary = isWrite
		setLatency(m, "write", s.timed, isWrite)
	}
	setLatency(m, "read", s.timed, isRead)
	pm := metrics{}
	setLatency(pm, "", s.timed, primary)
	m["p50_ms"], m["p99_ms"] = pm["_p50_ms"], pm["_p99_ms"]
	m.set("rss_mb", s.rssMB, "MiB", s.nodes)
	for _, c := range w.classes() {
		lat := latencies(outs, func(o outcome) bool { return o.req.class == c })
		m.set("class_p50_ms."+c, quantile(lat, 0.5), "ms", len(lat))
	}
	return m
}

// setLatency sets <prefix>_p50_ms and <prefix>_p99_ms from the outcomes
// keep selects, each as the median over windows of the per-window quantile
// (see windowCount).
func setLatency(m metrics, prefix string, p phase, keep func(outcome) bool) {
	n := len(latencies(p.outcomes, keep))
	tailWindows := min(max(n/tailSamples, 1), windowCount)
	m.set(prefix+"_p50_ms", windowedQuantile(p, windowCount, keep, 0.5), "ms", n)
	m.set(prefix+"_p99_ms", windowedQuantile(p, tailWindows, keep, 0.99), "ms", n)
}

// windowedQuantile is the median over n equal windows of the phase of each
// window's q-quantile latency.
func windowedQuantile(p phase, n int, keep func(outcome) bool, q float64) float64 {
	var qs []float64
	for _, win := range windows(p, n) {
		if lat := latencies(win, keep); len(lat) > 0 {
			qs = append(qs, quantile(lat, q))
		}
	}
	return median(qs)
}

// start is when the phase's first request was sent.
func (p phase) start() time.Time {
	start := p.outcomes[0].started
	for _, o := range p.outcomes {
		if o.started.Before(start) {
			start = o.started
		}
	}
	return start
}

// windows cuts the phase into n equal windows by request start time.
func windows(p phase, n int) [][]outcome {
	out := make([][]outcome, n)
	if len(p.outcomes) == 0 {
		return out
	}
	start := p.start()
	width := p.elapsed / time.Duration(n)
	for _, o := range p.outcomes {
		i := int(o.started.Sub(start) / width)
		if i >= n {
			i = n - 1
		}
		out[i] = append(out[i], o)
	}
	return out
}

// windowRates returns the successful requests per second completed in each
// of n equal windows of the phase.
func windowRates(p phase, n int) []float64 {
	rates := make([]float64, n)
	if len(p.outcomes) == 0 {
		return rates
	}
	start := p.start()
	width := p.elapsed / time.Duration(n)
	for _, o := range p.outcomes {
		i := int(o.started.Add(o.lat).Sub(start) / width)
		if o.ok && i < n {
			rates[i]++
		}
	}
	for i := range rates {
		rates[i] /= width.Seconds()
	}
	return rates
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
