package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (which it sorts).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is num/den, or NaN when there is no base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return math.NaN()
	}
	return num / den
}

// A metric is one reported number with its unit and the count it rests on.
type metric struct {
	value float64
	unit  string
	n     int
	base  string // for ratios: the counts it was derived from
}

type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string, n int) {
	m[name] = metric{value: value, unit: unit, n: n}
}

func (m metrics) setRatio(name string, num, den float64, unit string) {
	m[name] = metric{value: ratio(num, den), unit: unit, n: int(den), base: fmt.Sprintf("%.0f/%.0f", num, den)}
}

// print writes one line per metric: name, value, unit and sample count.
func (m metrics) print(prefix string) {
	for _, k := range sortedKeys(m) {
		v := m[k]
		if v.base != "" {
			fmt.Printf("%s %-40s %14.4f %-6s base=%s\n", prefix, k, v.value, v.unit, v.base)
		} else {
			fmt.Printf("%s %-40s %14.4f %-6s n=%d\n", prefix, k, v.value, v.unit, v.n)
		}
	}
}

// latencies returns the latencies in milliseconds of the outcomes keep
// selects. A failed request counts as missing every latency mark, so it
// enters as +Inf.
func latencies(outs []outcome, keep func(outcome) bool) []float64 {
	var out []float64
	for _, o := range outs {
		if !keep(o) {
			continue
		}
		if o.ok {
			out = append(out, ms(o.lat))
		} else {
			out = append(out, math.Inf(1))
		}
	}
	return out
}

// counterMetrics derives the counter-based layer ratios from counter
// snapshots of each node taken around a phase, prints them per node with
// their bases, and returns the ones the report uses. roles[i] is node i's
// role: single, leader or follower; writes is the number of acknowledged
// writes in the phase.
func counterMetrics(label string, roles []string, before, after []counters, elapsed time.Duration, writes int) metrics {
	m := metrics{}
	var rh, rl float64
	var followerApplied []float64
	var lead counters
	for i, role := range roles {
		c := after[i].minus(before[i])
		fmt.Printf("counters %s node=%d role=%s plancache hits=%d misses=%d invalidations=%d hit_ratio=%.4f | mvcc publishes=%d drain_waits=%d | wal batches=%d bytes=%d fsyncs=%d | repl streamed=%d applied=%d\n",
			label, i, role, c.Hits, c.Misses, c.Invalidations, ratio(float64(c.Hits), float64(c.Hits+c.Misses)),
			c.Publishes, c.DrainWaits, c.WALBatches, c.WALBytes, c.Fsyncs, c.Streamed, c.Applied)
		switch role {
		case "leader":
			lead = c
		case "follower":
			followerApplied = append(followerApplied, float64(c.Applied))
			fmt.Printf("counters %s node=%d follower drain_waits_per_applied=%.4f (%d/%d) fsyncs_per_batch=%.4f (%d/%d)\n",
				label, i, ratio(float64(c.DrainWaits), float64(c.Applied)), c.DrainWaits, c.Applied,
				ratio(float64(c.Fsyncs), float64(c.WALBatches)), c.Fsyncs, c.WALBatches)
		}
		if role != "leader" {
			rh += float64(c.Hits)
			rl += float64(c.Hits + c.Misses)
		}
	}
	m.setRatio("core.plancache_hit_ratio", rh, rl, "ratio")
	if len(followerApplied) == 0 {
		return m
	}
	w := float64(writes)
	m.setRatio("core.plancache_invalidations_per_write", float64(lead.Invalidations), w, "ratio")
	m.setRatio("graph.writer_drain_waits_per_write", float64(lead.DrainWaits), w, "ratio")
	m.setRatio("storage.fsyncs_per_batch", float64(lead.Fsyncs), float64(lead.WALBatches), "ratio")
	m.setRatio("storage.wal_bytes_per_write", float64(lead.WALBytes), w, "bytes")
	var applied float64
	for _, a := range followerApplied {
		applied += a
	}
	m.setRatio("replica.follower_apply_per_s", applied/float64(len(followerApplied)), elapsed.Seconds(), "1/s")
	m.setRatio("replica.streamed_per_applied", float64(lead.Streamed), applied, "ratio")
	return m
}
