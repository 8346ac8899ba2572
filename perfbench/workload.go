package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// A request is one query the closed-loop clients send, generated from the
// workload's seeded stream. The program only ever sees the query text and
// its parameters.
type request struct {
	class  string
	query  string
	params map[string]any
	write  bool
	// sample marks a request whose reply body is kept and checked against
	// the oracle after the run.
	sample bool
	// ordered is true when the query has ORDER BY, so its rows are compared
	// as a sequence rather than as a multiset.
	ordered bool
	// k is the Acct key a write-cluster read or update targets.
	k int
}

// A workload is a traffic mix against one server topology.
type workload struct {
	name string
	// people is the social dataset size; 0 means the write-cluster topology.
	people      int
	parallelism int
	clients     int
	cluster     bool
	// setupReps is how many times a timed run deploys the servers; setup_s
	// is the median, and the last deployment takes the load.
	setupReps int
	// deck lists one shuffled round of request classes. Each client deals
	// itself whole decks, so every client's mix matches the stated shares
	// exactly over each round instead of drifting with the draw.
	deck []string
	// sampleRate is the share of requests whose replies go to the oracle.
	sampleRate float64
	gen        func(class string, rng *rand.Rand, c, seq int) request
}

// acctKeys is the number of :Acct nodes write-cluster loads at set-up.
const acctKeys = 2000

// share is how many slots of a deck one request class takes.
type share struct {
	class string
	n     int
}

func deck(shares ...share) []string {
	var d []string
	for _, s := range shares {
		for i := 0; i < s.n; i++ {
			d = append(d, s.class)
		}
	}
	return d
}

func workloads(nproc int) map[string]*workload {
	return map[string]*workload{
		"read-oltp": {
			name: "read-oltp", people: 20000, parallelism: 1, clients: 2, setupReps: 5,
			deck:       deck(share{"point-literal", 6}, share{"expand1", 6}, share{"expand2", 7}, share{"expand1-inline", 1}),
			sampleRate: 0.02,
			gen:        readOLTP(20000),
		},
		"scan-olap": {
			name: "scan-olap", people: 100000, parallelism: nproc, clients: 1, setupReps: 3,
			deck:       deck(share{"agg", 1}, share{"range-sort", 1}, share{"join", 1}, share{"varlength", 1}),
			sampleRate: 0.08,
			gen:        scanOLAP(100000),
		},
		"write-cluster": {
			name: "write-cluster", parallelism: 1, clients: 2, cluster: true, setupReps: 7,
			deck:       deck(share{"create", 1}, share{"update", 1}, share{"read", 2}),
			sampleRate: 1,
			gen:        writeCluster,
		},
	}
}

func person(rng *rand.Rand, people int) string {
	return fmt.Sprintf("person-%d", rng.Intn(people))
}

func readOLTP(people int) func(string, *rand.Rand, int, int) request {
	return func(class string, rng *rand.Rand, _, _ int) request {
		r := request{class: class}
		switch class {
		case "point-literal":
			// The literal is inlined, so nearly every text is new to the
			// server's 1024-entry AST and plan caches.
			r.query = fmt.Sprintf("MATCH (a:Person {name: '%s'}) RETURN a.age AS age", person(rng, people))
		case "expand1":
			r.query = "MATCH (a:Person)-[:KNOWS]->(b) WHERE a.name = $n RETURN count(b) AS n"
			r.params = map[string]any{"n": person(rng, people)}
		case "expand2":
			r.query = "MATCH (a:Person)-[:KNOWS]->(b)-[:KNOWS]->(c) WHERE a.name = $n RETURN count(DISTINCT c) AS n"
			r.params = map[string]any{"n": person(rng, people)}
		case "expand1-inline":
			r.query = "MATCH (a:Person {name: $n})-[:KNOWS]->(b) RETURN count(b) AS n"
			r.params = map[string]any{"n": person(rng, people)}
		}
		return r
	}
}

func scanOLAP(people int) func(string, *rand.Rand, int, int) request {
	return func(class string, rng *rand.Rand, _, _ int) request {
		r := request{class: class}
		age := int64(18 + rng.Intn(55))
		switch class {
		case "agg":
			r.query = "MATCH (p:Person) WHERE p.age >= $lo RETURN p.age AS age, count(*) AS n"
			r.params = map[string]any{"lo": age}
		case "range-sort":
			r.query = "MATCH (p:Person) WHERE p.age >= $lo AND p.age < $hi RETURN p.name AS name, p.age AS age ORDER BY name LIMIT 100"
			r.params = map[string]any{"lo": age, "hi": age + 5}
		case "join":
			r.query = "MATCH (a:Person)-[:KNOWS]->(b) WHERE a.age >= $lo AND a.age < $hi RETURN a.age AS age, count(b) AS friends, max(b.age) AS oldest"
			r.params = map[string]any{"lo": age, "hi": age + 3}
		case "varlength":
			r.query = "MATCH (a:Person)-[:KNOWS*1..3]->(b) WHERE a.name = $n RETURN count(DISTINCT b) AS reach"
			r.params = map[string]any{"n": person(rng, people)}
		}
		return r
	}
}

func writeCluster(class string, rng *rand.Rand, c, seq int) request {
	r := request{class: class, k: rng.Intn(acctKeys)}
	switch class {
	case "create":
		r.query = "CREATE (:Ev {c: $c, n: $n, t: $t})"
		r.params = map[string]any{"c": int64(c), "n": int64(seq), "t": rng.Int63n(1 << 40)}
		r.write = true
	case "update":
		r.query = "MATCH (a:Acct {k: $k}) SET a.v = a.v + 1"
		r.params = map[string]any{"k": int64(r.k)}
		r.write = true
	case "read":
		r.query = "MATCH (a:Acct) WHERE a.k = $k RETURN a.v AS v"
		r.params = map[string]any{"k": int64(r.k)}
	}
	return r
}

// acctLoad is the set-up write that creates write-cluster's accounts.
var acctLoad = fmt.Sprintf("UNWIND range(0, %d) AS k CREATE (:Acct {k: k, v: 0})", acctKeys-1)

// stream deals one client's requests: whole shuffled decks, with every
// parameter drawn from a generator seeded by (seed, workload, client).
type stream struct {
	w    *workload
	rng  *rand.Rand
	c    int
	seq  int
	hand []string
}

func newStream(w *workload, seed int64, client int) *stream {
	h := seed*1_000_003 + int64(client)*7919
	for _, ch := range w.name {
		h = h*31 + int64(ch)
	}
	return &stream{w: w, rng: rand.New(rand.NewSource(h)), c: client}
}

func (s *stream) next() request {
	if len(s.hand) == 0 {
		s.hand = append([]string(nil), s.w.deck...)
		s.rng.Shuffle(len(s.hand), func(i, j int) { s.hand[i], s.hand[j] = s.hand[j], s.hand[i] })
	}
	class := s.hand[0]
	s.hand = s.hand[1:]
	r := s.w.gen(class, s.rng, s.c, s.seq)
	r.sample = s.rng.Float64() < s.w.sampleRate
	r.ordered = strings.Contains(r.query, "ORDER BY")
	s.seq++
	return r
}

// classes lists the workload's request classes in deck order.
func (w *workload) classes() []string {
	var out []string
	seen := map[string]bool{}
	for _, c := range w.deck {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}
