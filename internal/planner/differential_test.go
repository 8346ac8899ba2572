package planner

import (
	"fmt"
	"testing"

	"repro/internal/datasets"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/parser"
	"repro/internal/refsem"
	"repro/internal/result"
	"repro/internal/value"
)

// planChoiceCorpus exercises every plan shape the cost-based planner can
// choose: conjunct pushdown, equality/IN/range/prefix index seeks, label
// predicates in WHERE, cost-ordered cartesian parts, ExpandInto cycles,
// OPTIONAL MATCH with pushdown inside the optional side, and parameterised
// bounds. Each equality WHERE also appears in its inline-map spelling, which
// plans through the same conjunct path.
var planChoiceCorpus = []struct {
	query  string
	params map[string]value.Value
}{
	{query: "MATCH (n:Person) WHERE n.age > 80 RETURN n.name AS name"},
	{query: "MATCH (n:Person) WHERE n.age > 80 AND n.age <= 90 RETURN n.name AS name"},
	{query: "MATCH (n:Person) WHERE 80 < n.age RETURN count(n) AS c"},
	{query: "MATCH (n:Person) WHERE n.age >= $k RETURN count(n) AS c", params: map[string]value.Value{"k": value.NewInt(95)}},
	{query: "MATCH (n:Person) WHERE n.name STARTS WITH 'p1' RETURN n.name AS name"},
	{query: "MATCH (n:Person) WHERE n.age IN [1, 2.0, 300] RETURN n.name AS name"},
	{query: "MATCH (n:Person) WHERE n.name = 'p07' RETURN n.age AS age"},
	{query: "MATCH (n) WHERE n:Person AND n.age = 5 RETURN n.name AS name"},
	{query: "MATCH (n) WHERE n:Person RETURN count(n) AS c"},
	{query: "MATCH (n:Person) WHERE n.age > 95 AND n.name <> 'p97' RETURN n.name AS name"},
	{query: "MATCH (a:Person), (b:Person) WHERE a.age = 1 AND b.age < 3 RETURN a.name AS a, b.name AS b"},
	{query: "MATCH (p:Person)-[:WORKS_AT]->(c:Company) WHERE p.age > 90 RETURN c.cid AS cid, count(p) AS n"},
	{query: "MATCH (p:Person) OPTIONAL MATCH (p)-[:WORKS_AT]->(c:Company) WHERE c.cid > 5 RETURN p.name AS name, c.cid AS cid"},
	{query: "MATCH (a:Person {age: 1})-[:WORKS_AT]->(c)<-[:WORKS_AT]-(b:Person {age: 11}) RETURN count(c) AS c"},
	{query: "MATCH (n:Person) WHERE n.age > 42 RETURN n.name AS name ORDER BY name LIMIT 5"},
	{query: "MATCH (n:Person) WHERE n.age = null RETURN count(n) AS c"},
	{query: "MATCH (n:Person) WHERE n.age > $missing RETURN count(n) AS c", params: map[string]value.Value{"missing": value.Null()}},
	// Inline-map spellings of the equality WHEREs above, and the WHERE
	// spelling of the inline ExpandInto query.
	{query: "MATCH (n:Person {name: 'p07'}) RETURN n.age AS age"},
	{query: "MATCH (n:Person {age: 5}) RETURN n.name AS name"},
	{query: "MATCH (a:Person {age: 1}), (b:Person) WHERE b.age < 3 RETURN a.name AS a, b.name AS b"},
	{query: "MATCH (n:Person {age: null}) RETURN count(n) AS c"},
	{query: "MATCH (n:Person {age: $missing}) RETURN count(n) AS c", params: map[string]value.Value{"missing": value.Null()}},
	{query: "MATCH (a:Person)-[:WORKS_AT]->(c)<-[:WORKS_AT]-(b:Person) WHERE a.age = 1 AND b.age = 11 RETURN count(c) AS c"},
	{query: "MATCH (p:Person) OPTIONAL MATCH (p)-[:WORKS_AT]->(c:Company {cid: 5}) RETURN p.name AS name, c.cid AS cid"},
	// An inline value that reads a variable bound earlier in the walk: the
	// map must not seek before that variable is bound.
	{query: "MATCH (p:Person)-[:WORKS_AT]->(c:Company {cid: p.age}) RETURN p.name AS name"},
	{query: "MATCH (p:Person)-[:WORKS_AT]->(c:Company) WHERE c.cid = p.age RETURN p.name AS name"},
	{query: "MATCH (a:Person)-[:WORKS_AT]->(c)<-[:WORKS_AT]-(b:Person {name: a.name}) RETURN count(*) AS c"},
	{query: "MATCH (a:Person)-[:WORKS_AT]->(c)<-[:WORKS_AT]-(b:Person) WHERE b.name = a.name RETURN count(*) AS c"},
}

// diffGraph is an indexed dataset where seeks and scans genuinely diverge in
// cost: 100 Person nodes (age 0..99, name p00..p99), 10 Company nodes,
// everyone employed.
func diffGraph() *graph.Graph {
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

// canonical renders a table in a deterministic order-independent form.
func canonical(t *result.Table) string {
	t.SortByAllColumns()
	return t.String()
}

// TestDifferentialCostPlansVsRefsem proves plan choice is invisible to
// results: every corpus query, compiled by the cost-based planner and
// executed by the engine, returns the same canonicalised result table as the
// paper's reference semantics (internal/refsem), which matches patterns by
// naive enumeration without any planning.
func TestDifferentialCostPlansVsRefsem(t *testing.T) {
	graphs := []struct {
		name  string
		build func() *graph.Graph
	}{
		{name: "indexed", build: diffGraph},
		{name: "teachers", build: func() *graph.Graph { g, _ := datasets.Teachers(); return g }},
		{name: "social", build: func() *graph.Graph {
			g := datasets.SocialNetwork(datasets.SocialConfig{People: 20, FriendsEach: 3, Seed: 7})
			g.CreateIndex("Person", "name")
			return g
		}},
	}
	for _, gc := range graphs {
		t.Run(gc.name, func(t *testing.T) {
			g := gc.build()
			for _, c := range planChoiceCorpus {
				q, err := parser.Parse(c.query)
				if err != nil {
					t.Fatalf("parse %q: %v", c.query, err)
				}
				costPlan, err := New(g).Plan(q)
				if err != nil {
					t.Fatalf("cost plan %q: %v", c.query, err)
				}
				costTbl, err := exec.New(g, c.params, exec.Options{}).Execute(costPlan)
				if err != nil {
					t.Fatalf("cost exec %q: %v\nplan:\n%s", c.query, err, costPlan)
				}
				refTbl, err := refsem.Evaluate(q, g, c.params)
				if err != nil {
					t.Fatalf("refsem %q: %v", c.query, err)
				}
				got, want := canonical(costTbl), canonical(refTbl)
				if got != want {
					t.Errorf("cost plan disagrees with refsem on %q\ncost plan:\n%s\ncost result:\n%s\nrefsem result:\n%s",
						c.query, costPlan, got, want)
				}
			}
		})
	}
}
