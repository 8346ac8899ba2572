package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/value"
)

// explainGraph is the fixed dataset behind the golden EXPLAIN tests: 10
// Company nodes (cid 0..9), 100 Person nodes (age 0..99, name p00..p99, one
// WORKS_AT relationship each), indexes on (Person, age) and (Person, name).
func explainGraph() *graph.Graph {
	g := graph.New()
	companies := make([]*graph.Node, 10)
	for i := range companies {
		companies[i] = g.CreateNode([]string{"Company"}, map[string]value.Value{"cid": value.NewInt(int64(i))})
	}
	for i := 0; i < 100; i++ {
		p := g.CreateNode([]string{"Person"}, map[string]value.Value{
			"age":  value.NewInt(int64(i)),
			"name": value.NewString(fmt.Sprintf("p%02d", i)),
		})
		if _, err := g.CreateRelationship(p, companies[i%10], "WORKS_AT", nil); err != nil {
			panic(err)
		}
	}
	g.CreateIndex("Person", "age")
	g.CreateIndex("Person", "name")
	return g
}

// TestGoldenExplainPlans pins the exact EXPLAIN output — operator shape,
// access-path choice and the cost model's estimated rows/cost per operator —
// for the representative query shapes of the cost-based planner: range,
// prefix, IN and equality seeks, label-in-WHERE selection, residual filters,
// seek-vs-scan choice with and without an index, expansion direction, and
// ExpandInto. A diff here means the planner changed its mind; update the
// golden only after confirming the new plan is intentional.
func TestGoldenExplainPlans(t *testing.T) {
	e := NewEngine(explainGraph(), Options{})
	cases := []struct {
		query string
		want  string
	}{
		{
			query: "MATCH (n:Person) WHERE n.age > 90 RETURN n",
			want: `+ SelectColumns(n) [rows~25 cost~75]
  + Project(n AS n) [rows~25 cost~50]
    + NodeIndexRangeSeek(n:Person {age > 90}) [rows~25 cost~25]
      + Start [rows~1.0 cost~0.0]
parallel: eligible (morsel-driven NodeIndexRangeSeek(n:Person {age > 90}))
vectorized: eligible (batched NodeIndexRangeSeek(n:Person {age > 90}) -> project -> select)
runtime parallelism: 1
`,
		},
		{
			query: "MATCH (n:Person) WHERE n.age > 90 AND n.age <= 95 RETURN count(n) AS c",
			want: `+ SelectColumns(c) [rows~1.0 cost~23]
  + SelectColumns(c) [rows~1.0 cost~22]
    + Project(  agg#1 AS c) [rows~1.0 cost~21]
      + Aggregate(  agg#1: count(n)) [rows~1.0 cost~20]
        + NodeIndexRangeSeek(n:Person {age > 90, age <= 95}) [rows~10 cost~10]
          + Start [rows~1.0 cost~0.0]
parallel: eligible (morsel-driven NodeIndexRangeSeek(n:Person {age > 90, age <= 95}), partial aggregation)
vectorized: row-at-a-time (Aggregate materializes groups row-at-a-time)
runtime parallelism: 1
`,
		},
		{
			query: "MATCH (n:Person) WHERE n.name STARTS WITH 'p1' RETURN n",
			want: `+ SelectColumns(n) [rows~5.0 cost~15]
  + Project(n AS n) [rows~5.0 cost~10]
    + NodeIndexPrefixSeek(n:Person {name STARTS WITH 'p1'}) [rows~5.0 cost~5.0]
      + Start [rows~1.0 cost~0.0]
parallel: eligible (morsel-driven NodeIndexPrefixSeek(n:Person {name STARTS WITH 'p1'}))
vectorized: eligible (batched NodeIndexPrefixSeek(n:Person {name STARTS WITH 'p1'}) -> project -> select)
runtime parallelism: 1
`,
		},
		{
			query: "MATCH (n:Person) WHERE n.age IN [1, 2, 3] RETURN n",
			want: `+ SelectColumns(n) [rows~3.0 cost~9.0]
  + Project(n AS n) [rows~3.0 cost~6.0]
    + NodeIndexSeek(n:Person {age IN [1, 2, 3]}) [rows~3.0 cost~3.0]
      + Start [rows~1.0 cost~0.0]
parallel: eligible (morsel-driven NodeIndexSeek(n:Person {age IN [1, 2, 3]}))
vectorized: eligible (batched NodeIndexSeek(n:Person {age IN [1, 2, 3]}) -> project -> select)
runtime parallelism: 1
`,
		},
		{
			query: "MATCH (n:Person {age: 30}) RETURN n",
			want: `+ SelectColumns(n) [rows~1.0 cost~3.0]
  + Project(n AS n) [rows~1.0 cost~2.0]
    + NodeIndexSeek(n:Person {age = 30}) [rows~1.0 cost~1.0]
      + Start [rows~1.0 cost~0.0]
parallel: eligible (morsel-driven NodeIndexSeek(n:Person {age = 30}))
vectorized: eligible (batched NodeIndexSeek(n:Person {age = 30}) -> project -> select)
runtime parallelism: 1
`,
		},
		{
			query: "MATCH (n:Person) WHERE n.age > 90 AND n.name <> 'p95' RETURN n",
			want: `+ SelectColumns(n) [rows~12 cost~75]
  + Project(n AS n) [rows~12 cost~62]
    + Filter(n.name <> 'p95') [rows~12 cost~50]
      + NodeIndexRangeSeek(n:Person {age > 90}) [rows~25 cost~25]
        + Start [rows~1.0 cost~0.0]
parallel: eligible (morsel-driven NodeIndexRangeSeek(n:Person {age > 90}))
vectorized: eligible (batched NodeIndexRangeSeek(n:Person {age > 90}) -> filter -> project -> select)
runtime parallelism: 1
`,
		},
		{
			query: "MATCH (n) WHERE n:Person AND n.age = 5 RETURN n",
			want: `+ SelectColumns(n) [rows~1.0 cost~3.0]
  + Project(n AS n) [rows~1.0 cost~2.0]
    + NodeIndexSeek(n:Person {age = 5}) [rows~1.0 cost~1.0]
      + Start [rows~1.0 cost~0.0]
parallel: eligible (morsel-driven NodeIndexSeek(n:Person {age = 5}))
vectorized: eligible (batched NodeIndexSeek(n:Person {age = 5}) -> project -> select)
runtime parallelism: 1
`,
		},
		{
			query: "MATCH (c:Company) WHERE c.cid > 3 RETURN c",
			want: `+ SelectColumns(c) [rows~2.5 cost~25]
  + Project(c AS c) [rows~2.5 cost~22]
    + Filter(c.cid > 3) [rows~2.5 cost~20]
      + NodeByLabelScan(c:Company) [rows~10 cost~10]
        + Start [rows~1.0 cost~0.0]
parallel: eligible (morsel-driven NodeByLabelScan(c:Company))
vectorized: eligible (batched NodeByLabelScan(c:Company) -> filter -> project -> select)
runtime parallelism: 1
`,
		},
		{
			query: "MATCH (p:Person)-[:WORKS_AT]->(c:Company) RETURN c.cid AS cid, count(p) AS n",
			want: `+ SelectColumns(cid, n) [rows~1.0 cost~39]
  + SelectColumns(cid, n) [rows~1.0 cost~38]
    + Project(cid AS cid,   agg#1 AS n) [rows~1.0 cost~37]
      + Aggregate(cid,   agg#1: count(p)) [rows~1.0 cost~36]
        + Filter(p:Person) [rows~8.3 cost~28]
          + Expand((c)<--[  rel#1:WORKS_AT](p)) [rows~9.1 cost~19]
            + NodeByLabelScan(c:Company) [rows~10 cost~10]
              + Start [rows~1.0 cost~0.0]
parallel: eligible (morsel-driven NodeByLabelScan(c:Company), partial aggregation)
vectorized: eligible (batched NodeByLabelScan(c:Company) -> expand -> filter; Aggregate materializes groups row-at-a-time)
runtime parallelism: 1
`,
		},
		{
			query: "MATCH (a:Person {age: 1}) MATCH (b:Person {age: 11}) MATCH (a)-[:WORKS_AT]->(c)<-[:WORKS_AT]-(b) RETURN count(c) AS c",
			want: `+ SelectColumns(c) [rows~1.0 cost~6.8]
  + SelectColumns(c) [rows~1.0 cost~5.8]
    + Project(  agg#1 AS c) [rows~1.0 cost~4.8]
      + Aggregate(  agg#1: count(c)) [rows~1.0 cost~3.8]
        + ExpandInto((c)<--[  rel#2:WORKS_AT](b)) [rows~0.0 cost~3.8]
          + Expand((a)-->[  rel#1:WORKS_AT](c)) [rows~0.9 cost~2.9]
            + NodeIndexSeek(b:Person {age = 11}) [rows~1.0 cost~2.0]
              + NodeIndexSeek(a:Person {age = 1}) [rows~1.0 cost~1.0]
                + Start [rows~1.0 cost~0.0]
parallel: serial (no per-row work above the scan)
vectorized: row-at-a-time (NodeIndexSeek(b:Person {age = 11}) keeps the row path)
runtime parallelism: 1
`,
		},
		{
			query: "MATCH (n:Person) RETURN n",
			want: `+ SelectColumns(n) [rows~100 cost~300]
  + Project(n AS n) [rows~100 cost~200]
    + NodeByLabelScan(n:Person) [rows~100 cost~100]
      + Start [rows~1.0 cost~0.0]
parallel: eligible (morsel-driven NodeByLabelScan(n:Person))
vectorized: eligible (batched NodeByLabelScan(n:Person) -> project -> select)
runtime parallelism: 1
`,
		},
	}
	for _, c := range cases {
		got, err := e.Explain(c.query)
		if err != nil {
			t.Fatalf("explain %q: %v", c.query, err)
		}
		if got != c.want {
			t.Errorf("EXPLAIN drifted for %q\ngot:\n%s\nwant:\n%s", c.query, got, c.want)
		}
	}
}

// socialExplainEngine is the read-oltp graph of perfbench: 20k Person nodes
// with 8 outgoing KNOWS relationships each and no property index.
func socialExplainEngine() *Engine {
	g := datasets.SocialNetwork(datasets.SocialConfig{People: 20000, FriendsEach: 8, Seed: 42})
	return NewEngine(g, Options{Parallelism: 1})
}

// TestGoldenExplainBenchmarkClasses pins the EXPLAIN of every read class of
// the perfbench workloads (query texts copied from perfbench/workload.go):
// read-oltp's point-literal, expand1, expand2 and expand1-inline, and
// scan-olap's agg, range-sort, join and varlength, whose operator trees are
// the ones the planner chose before inline maps became conjuncts. The last
// case puts the inline map on the far end of expand1: the plan must anchor
// there, at the filtered node, and expand backwards. Filters
// carry the planner's conjunct selectivity (equality 0.1, one-sided range
// 0.25), so `Filter(a.name = $n)` on 20k people estimates 2 000 rows.
func TestGoldenExplainBenchmarkClasses(t *testing.T) {
	e := socialExplainEngine()
	cases := []struct {
		class string
		query string
		want  string
	}{
		{
			class: "point-literal",
			query: "MATCH (a:Person {name: 'person-17'}) RETURN a.age AS age",
			want: `+ SelectColumns(age) [rows~2000 cost~44000]
  + Project(a.age AS age) [rows~2000 cost~42000]
    + Filter(a.name = 'person-17') [rows~2000 cost~40000]
      + NodeByLabelScan(a:Person) [rows~20000 cost~20000]
        + Start [rows~1.0 cost~0.0]
parallel: eligible (morsel-driven NodeByLabelScan(a:Person))
vectorized: eligible (batched NodeByLabelScan(a:Person) -> filter -> project -> select)
runtime parallelism: 1
`,
		},
		{
			class: "expand1",
			query: "MATCH (a:Person)-[:KNOWS]->(b) WHERE a.name = $n RETURN count(b) AS n",
			want: `+ SelectColumns(n) [rows~1.0 cost~72001]
  + SelectColumns(n) [rows~1.0 cost~72000]
    + Project(  agg#1 AS n) [rows~1.0 cost~71999]
      + Aggregate(  agg#1: count(b)) [rows~1.0 cost~71998]
        + Expand((a)-->[  rel#1:KNOWS](b)) [rows~15999 cost~55999]
          + Filter(a.name = $n) [rows~2000 cost~40000]
            + NodeByLabelScan(a:Person) [rows~20000 cost~20000]
              + Start [rows~1.0 cost~0.0]
parallel: eligible (morsel-driven NodeByLabelScan(a:Person), partial aggregation)
vectorized: eligible (batched NodeByLabelScan(a:Person) -> filter -> expand; Aggregate materializes groups row-at-a-time)
runtime parallelism: 1
`,
		},
		{
			class: "expand2",
			query: "MATCH (a:Person)-[:KNOWS]->(b)-[:KNOWS]->(c) WHERE a.name = $n RETURN count(DISTINCT c) AS n",
			want: `+ SelectColumns(n) [rows~1.0 cost~311963]
  + SelectColumns(n) [rows~1.0 cost~311962]
    + Project(  agg#1 AS n) [rows~1.0 cost~311961]
      + Aggregate(  agg#1: count(c)) [rows~1.0 cost~311960]
        + Expand((b)-->[  rel#2:KNOWS](c)) [rows~127981 cost~183980]
          + Expand((a)-->[  rel#1:KNOWS](b)) [rows~15999 cost~55999]
            + Filter(a.name = $n) [rows~2000 cost~40000]
              + NodeByLabelScan(a:Person) [rows~20000 cost~20000]
                + Start [rows~1.0 cost~0.0]
parallel: eligible (morsel-driven NodeByLabelScan(a:Person), partial aggregation)
vectorized: eligible (batched NodeByLabelScan(a:Person) -> filter -> expand -> expand; Aggregate materializes groups row-at-a-time)
runtime parallelism: 1
`,
		},
		{
			class: "expand1-inline",
			query: "MATCH (a:Person {name: $n})-[:KNOWS]->(b) RETURN count(b) AS n",
			want: `+ SelectColumns(n) [rows~1.0 cost~72001]
  + SelectColumns(n) [rows~1.0 cost~72000]
    + Project(  agg#1 AS n) [rows~1.0 cost~71999]
      + Aggregate(  agg#1: count(b)) [rows~1.0 cost~71998]
        + Expand((a)-->[  rel#1:KNOWS](b)) [rows~15999 cost~55999]
          + Filter(a.name = $n) [rows~2000 cost~40000]
            + NodeByLabelScan(a:Person) [rows~20000 cost~20000]
              + Start [rows~1.0 cost~0.0]
parallel: eligible (morsel-driven NodeByLabelScan(a:Person), partial aggregation)
vectorized: eligible (batched NodeByLabelScan(a:Person) -> filter -> expand; Aggregate materializes groups row-at-a-time)
runtime parallelism: 1
`,
		},
		{
			class: "agg",
			query: "MATCH (p:Person) WHERE p.age >= $lo RETURN p.age AS age, count(*) AS n",
			want: `+ SelectColumns(age, n) [rows~500 cost~46500]
  + SelectColumns(age, n) [rows~500 cost~46000]
    + Project(age AS age,   agg#1 AS n) [rows~500 cost~45500]
      + Aggregate(age,   agg#1: count(*)) [rows~500 cost~45000]
        + Filter(p.age >= $lo) [rows~5000 cost~40000]
          + NodeByLabelScan(p:Person) [rows~20000 cost~20000]
            + Start [rows~1.0 cost~0.0]
parallel: eligible (morsel-driven NodeByLabelScan(p:Person), partial aggregation)
vectorized: eligible (batched NodeByLabelScan(p:Person) -> filter; Aggregate materializes groups row-at-a-time)
runtime parallelism: 1
`,
		},
		{
			class: "range-sort",
			query: "MATCH (p:Person) WHERE p.age >= $lo AND p.age < $hi RETURN p.name AS name, p.age AS age ORDER BY name LIMIT 100",
			want: `+ SelectColumns(name, age) [rows~100 cost~48850]
  + Limit(100) [rows~100 cost~48750]
    + Sort(name) [rows~1250 cost~47500]
      + Project(p.name AS name, p.age AS age) [rows~1250 cost~46250]
        + Filter(p.age < $hi) [rows~1250 cost~45000]
          + Filter(p.age >= $lo) [rows~5000 cost~40000]
            + NodeByLabelScan(p:Person) [rows~20000 cost~20000]
              + Start [rows~1.0 cost~0.0]
parallel: eligible (morsel-driven NodeByLabelScan(p:Person))
vectorized: eligible (batched NodeByLabelScan(p:Person) -> filter -> filter -> project; Sort materializes rows)
runtime parallelism: 1
`,
		},
		{
			class: "join",
			query: "MATCH (a:Person)-[:KNOWS]->(b) WHERE a.age >= $lo AND a.age < $hi RETURN a.age AS age, count(b) AS friends, max(b.age) AS oldest",
			want: `+ SelectColumns(age, friends, oldest) [rows~1000 cost~67998]
  + SelectColumns(age, friends, oldest) [rows~1000 cost~66998]
    + Project(age AS age,   agg#1 AS friends,   agg#2 AS oldest) [rows~1000 cost~65998]
      + Aggregate(age,   agg#1: count(b),   agg#2: max(b.age)) [rows~1000 cost~64998]
        + Expand((a)-->[  rel#1:KNOWS](b)) [rows~9999 cost~54999]
          + Filter(a.age < $hi) [rows~1250 cost~45000]
            + Filter(a.age >= $lo) [rows~5000 cost~40000]
              + NodeByLabelScan(a:Person) [rows~20000 cost~20000]
                + Start [rows~1.0 cost~0.0]
parallel: eligible (morsel-driven NodeByLabelScan(a:Person), partial aggregation)
vectorized: eligible (batched NodeByLabelScan(a:Person) -> filter -> filter -> expand; Aggregate materializes groups row-at-a-time)
runtime parallelism: 1
`,
		},
		{
			class: "varlength",
			query: "MATCH (a:Person)-[:KNOWS*1..3]->(b) WHERE a.name = $n RETURN count(DISTINCT b) AS reach",
			want: `+ SelectColumns(reach) [rows~1.0 cost~103998]
  + SelectColumns(reach) [rows~1.0 cost~103997]
    + Project(  agg#1 AS reach) [rows~1.0 cost~103996]
      + Aggregate(  agg#1: count(b)) [rows~1.0 cost~103995]
        + VarLengthExpand((a)-->[  rel#1:KNOWS](b)) [rows~31998 cost~71998]
          + Filter(a.name = $n) [rows~2000 cost~40000]
            + NodeByLabelScan(a:Person) [rows~20000 cost~20000]
              + Start [rows~1.0 cost~0.0]
parallel: eligible (morsel-driven NodeByLabelScan(a:Person), partial aggregation)
vectorized: eligible (batched NodeByLabelScan(a:Person) -> filter; variable-length expand keeps the row path)
runtime parallelism: 1
`,
		},
		{
			class: "expand1, map on the far end",
			query: "MATCH (a:Person)-[:KNOWS]->(b:Person {name: $n}) RETURN count(a) AS n",
			want: `+ SelectColumns(n) [rows~1.0 cost~87999]
  + SelectColumns(n) [rows~1.0 cost~87998]
    + Project(  agg#1 AS n) [rows~1.0 cost~87997]
      + Aggregate(  agg#1: count(a)) [rows~1.0 cost~87996]
        + Filter(a:Person) [rows~15999 cost~71998]
          + Expand((b)<--[  rel#1:KNOWS](a)) [rows~15999 cost~55999]
            + Filter(b.name = $n) [rows~2000 cost~40000]
              + NodeByLabelScan(b:Person) [rows~20000 cost~20000]
                + Start [rows~1.0 cost~0.0]
parallel: eligible (morsel-driven NodeByLabelScan(b:Person), partial aggregation)
vectorized: eligible (batched NodeByLabelScan(b:Person) -> filter -> expand -> filter; Aggregate materializes groups row-at-a-time)
runtime parallelism: 1
`,
		},
	}
	explain := func(q string) string {
		t.Helper()
		got, err := e.Explain(q)
		if err != nil {
			t.Fatalf("explain %q: %v", q, err)
		}
		return got
	}
	for _, c := range cases {
		if got := explain(c.query); got != c.want {
			t.Errorf("EXPLAIN drifted for %s: %q\ngot:\n%s\nwant:\n%s", c.class, c.query, got, c.want)
		}
	}

	// The inline map and its WHERE twin take one predicate path: the same
	// operator tree, with the same estimates.
	inline := explain("MATCH (a:Person {name: $n})-[:KNOWS]->(b) RETURN count(b) AS n")
	where := explain("MATCH (a:Person)-[:KNOWS]->(b) WHERE a.name = $n RETURN count(b) AS n")
	if inline != where {
		t.Errorf("inline map and WHERE twin plan differently\ninline:\n%s\nwhere:\n%s", inline, where)
	}
	for _, bad := range []string{"AllNodesScan", "Filter(a:Person"} {
		if strings.Contains(inline, bad) {
			t.Errorf("inline expand1 must anchor at the labelled, filtered start node, found %s:\n%s", bad, inline)
		}
	}
}

// Estimates must be recomputed when the data changes: after the graph grows,
// a recompiled plan reflects the new statistics (the plan cache invalidates
// on the mutation epoch).
func TestExplainEstimatesTrackMutations(t *testing.T) {
	g := graph.New()
	e := NewEngine(g, Options{})
	g.CreateIndex("P", "k")
	run(t, e, "CREATE (:P {k: 1})")
	before, err := e.Explain("MATCH (n:P) RETURN n")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 99; i++ {
		run(t, e, "CREATE (:P {k: 2})")
	}
	after, err := e.Explain("MATCH (n:P) RETURN n")
	if err != nil {
		t.Fatal(err)
	}
	if before == after {
		t.Errorf("estimates should move with the data:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}
