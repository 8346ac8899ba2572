package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"
)

// An outcome is what one client saw for one request.
type outcome struct {
	req     request
	lat     time.Duration
	status  int
	ok      bool
	bytes   int
	body    []byte // kept for sampled requests and traced runs only
	started time.Time
}

// A phase is one closed-loop stretch of load: every client sends its next
// request only after the previous reply.
type phase struct {
	outcomes []outcome
	elapsed  time.Duration
}

// route picks the node a request goes to: writes to the leader, reads to
// the followers in turn (or to the single node).
func route(d *deployment, r request, client, seq int) *node {
	if r.write || len(d.followers) == 0 {
		return d.leader
	}
	return d.followers[(client+seq)%len(d.followers)]
}

// drive runs the clients against the deployment for dur. keepBodies keeps
// every reply body (traced runs parse them for the server's timing).
func drive(d *deployment, streams []*stream, dur time.Duration, keepBodies bool) phase {
	var wg sync.WaitGroup
	per := make([][]outcome, len(streams))
	start := time.Now()
	deadline := start.Add(dur)
	for c, s := range streams {
		wg.Add(1)
		go func(c int, s *stream) {
			defer wg.Done()
			var buf bytes.Buffer
			for seq := 0; time.Now().Before(deadline); seq++ {
				r := s.next()
				o := send(route(d, r, c, seq).url, r, &buf)
				if r.sample || keepBodies {
					o.body = append([]byte(nil), buf.Bytes()...)
				}
				per[c] = append(per[c], o)
			}
		}(c, s)
	}
	wg.Wait()
	p := phase{elapsed: time.Since(start)}
	for _, o := range per {
		p.outcomes = append(p.outcomes, o...)
	}
	return p
}

func send(base string, r request, buf *bytes.Buffer) outcome {
	o := outcome{req: r, started: time.Now()}
	body, err := json.Marshal(map[string]any{"query": r.query, "params": r.params})
	if err != nil {
		return o
	}
	resp, err := httpc.Post(base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		o.lat = time.Since(o.started)
		return o
	}
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	o.lat = time.Since(o.started)
	o.status = resp.StatusCode
	o.bytes = buf.Len()
	o.ok = err == nil && resp.StatusCode == http.StatusOK
	return o
}

// counters are one node's layer counters, read from GET /stats or, for the
// in-process cluster, from the same accessors /stats renders.
type counters struct {
	Hits, Misses, Invalidations uint64
	Publishes, DrainWaits       uint64
	WALBatches, WALBytes        uint64
	Fsyncs                      uint64
	Streamed, Applied           uint64
}

type statsDoc struct {
	PlanCache struct {
		Hits, Misses, Invalidations uint64
	} `json:"planCache"`
	MVCC struct {
		Publishes        uint64 `json:"publishes"`
		WriterDrainWaits uint64 `json:"writerDrainWaits"`
	} `json:"mvcc"`
	Durability struct {
		WALBatches uint64 `json:"walBatches"`
		WALBytes   uint64 `json:"walBytes"`
		Fsyncs     uint64 `json:"fsyncs"`
	} `json:"durability"`
	Replication struct {
		StreamedEntries uint64 `json:"streamedEntries"`
		AppliedBatches  uint64 `json:"appliedBatches"`
	} `json:"replication"`
}

func snapshot(d *deployment) ([]counters, error) {
	out := make([]counters, len(d.nodes))
	for i, n := range d.nodes {
		var s statsDoc
		if err := getJSON(n.url+"/stats", &s); err != nil {
			return nil, err
		}
		out[i] = counters{
			Hits: s.PlanCache.Hits, Misses: s.PlanCache.Misses, Invalidations: s.PlanCache.Invalidations,
			Publishes: s.MVCC.Publishes, DrainWaits: s.MVCC.WriterDrainWaits,
			WALBatches: s.Durability.WALBatches, WALBytes: s.Durability.WALBytes, Fsyncs: s.Durability.Fsyncs,
			Streamed: s.Replication.StreamedEntries, Applied: s.Replication.AppliedBatches,
		}
	}
	return out, nil
}

func (a counters) minus(b counters) counters {
	return counters{
		Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses, Invalidations: a.Invalidations - b.Invalidations,
		Publishes: a.Publishes - b.Publishes, DrainWaits: a.DrainWaits - b.DrainWaits,
		WALBatches: a.WALBatches - b.WALBatches, WALBytes: a.WALBytes - b.WALBytes, Fsyncs: a.Fsyncs - b.Fsyncs,
		Streamed: a.Streamed - b.Streamed, Applied: a.Applied - b.Applied,
	}
}
