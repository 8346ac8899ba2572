package planner

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/value"
)

func planFor(t *testing.T, g *graph.Graph, src string) *plan.Plan {
	t.Helper()
	q, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := New(g).Plan(q)
	if err != nil {
		t.Fatalf("plan %q: %v", src, err)
	}
	return p
}

func operators(p *plan.Plan) []string {
	var out []string
	for op := p.Root; op != nil; op = op.Source() {
		out = append(out, op.Describe())
	}
	return out
}

func hasOperator(p *plan.Plan, substr string) bool {
	for _, d := range operators(p) {
		if strings.Contains(d, substr) {
			return true
		}
	}
	return false
}

func TestScanSelection(t *testing.T) {
	g, _ := datasets.Citations()
	// No label: all nodes scan.
	p := planFor(t, g, "MATCH (n) RETURN n")
	if !hasOperator(p, "AllNodesScan") {
		t.Errorf("expected AllNodesScan:\n%s", p)
	}
	// Label: label scan.
	p = planFor(t, g, "MATCH (n:Researcher) RETURN n")
	if !hasOperator(p, "NodeByLabelScan(n:Researcher)") {
		t.Errorf("expected NodeByLabelScan:\n%s", p)
	}
	// Label + property + index: index seek.
	g.CreateIndex("Researcher", "name")
	p = planFor(t, g, "MATCH (n:Researcher {name: 'Elin'}) RETURN n")
	if !hasOperator(p, "NodeIndexSeek") {
		t.Errorf("expected NodeIndexSeek:\n%s", p)
	}
	// Label + property without index: label scan plus filter.
	p = planFor(t, g, "MATCH (n:Publication {acmid: 220}) RETURN n")
	if !hasOperator(p, "NodeByLabelScan(n:Publication)") || !hasOperator(p, "Filter(n.acmid = 220") {
		t.Errorf("expected label scan + filter:\n%s", p)
	}
}

func TestStartNodeSelectionBySelectivity(t *testing.T) {
	g := graph.New()
	// 100 Common nodes, 2 Rare nodes.
	var rare *graph.Node
	for i := 0; i < 100; i++ {
		g.CreateNode([]string{"Common"}, nil)
	}
	for i := 0; i < 2; i++ {
		rare = g.CreateNode([]string{"Rare"}, nil)
	}
	_ = rare
	// The planner should start from the Rare side of the pattern.
	p := planFor(t, g, "MATCH (c:Common)-[:R]->(r:Rare) RETURN c")
	ops := operators(p)
	leaf := ops[len(ops)-2] // the operator just above Start
	if !strings.Contains(leaf, "NodeByLabelScan(r:Rare)") {
		t.Errorf("expected the scan to start from the rare label, got %q in\n%s", leaf, p)
	}
	// And expand in the reverse direction of the pattern arrow.
	if !hasOperator(p, "Expand((r)<--") {
		t.Errorf("expected a reversed expand:\n%s", p)
	}
}

func TestBoundVariableBecomesExpandInto(t *testing.T) {
	g, _ := datasets.Teachers()
	p := planFor(t, g, "MATCH (a)-[:KNOWS]->(b) MATCH (a)-[:KNOWS]->(b) RETURN a, b")
	// The second MATCH has both endpoints bound: it must check rather than
	// rebind, i.e. use ExpandInto.
	if !hasOperator(p, "ExpandInto") {
		t.Errorf("expected ExpandInto for the re-matched pattern:\n%s", p)
	}
	// A cyclic pattern inside one part also needs ExpandInto.
	p = planFor(t, g, "MATCH (a)-[:KNOWS]->(b)-[:KNOWS]->(a) RETURN a")
	if !hasOperator(p, "ExpandInto") {
		t.Errorf("expected ExpandInto for the cyclic pattern:\n%s", p)
	}
}

func TestOptionalAndUnionPlans(t *testing.T) {
	g, _ := datasets.Citations()
	p := planFor(t, g, "MATCH (r:Researcher) OPTIONAL MATCH (r)-[:AUTHORS]->(p:Publication) RETURN r, p")
	if !hasOperator(p, "Optional") {
		t.Errorf("expected an Optional operator:\n%s", p)
	}
	p = planFor(t, g, "MATCH (r:Researcher) RETURN r.name AS n UNION MATCH (s:Student) RETURN s.name AS n")
	if _, ok := p.Root.(*plan.Union); !ok {
		t.Errorf("expected a Union root:\n%s", p)
	}
	if p.Columns[0] != "n" {
		t.Errorf("union columns wrong: %v", p.Columns)
	}
}

func TestAggregationPlanShape(t *testing.T) {
	g, _ := datasets.Citations()
	p := planFor(t, g, "MATCH (r:Researcher)-[:AUTHORS]->(p:Publication) RETURN r.name AS name, count(p) AS pubs ORDER BY pubs DESC LIMIT 1")
	if !hasOperator(p, "Aggregate(name") {
		t.Errorf("expected Aggregate with grouping key:\n%s", p)
	}
	if !hasOperator(p, "Sort") || !hasOperator(p, "Limit(1)") {
		t.Errorf("expected Sort and Limit:\n%s", p)
	}
	if p.Columns[0] != "name" || p.Columns[1] != "pubs" {
		t.Errorf("columns wrong: %v", p.Columns)
	}
	// count(*) + 1 is rewritten into an aggregate column plus projection.
	p = planFor(t, g, "MATCH (n) RETURN count(*) + 1 AS c")
	if !hasOperator(p, "Aggregate(") || !hasOperator(p, "Project(") {
		t.Errorf("expected aggregate + projection:\n%s", p)
	}
}

func TestUniquenessListsInExpand(t *testing.T) {
	g, _ := datasets.Teachers()
	q, err := parser.Parse("MATCH (a)-[r1:KNOWS]->(b)-[r2:KNOWS]->(c) RETURN a")
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(g).Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	// Find the second expand and check it lists the first relationship
	// variable for the uniqueness check.
	var second *plan.Expand
	for op := p.Root; op != nil; op = op.Source() {
		if e, ok := op.(*plan.Expand); ok {
			second = e
			break // the topmost expand in the chain is the last planned
		}
	}
	if second == nil {
		t.Fatalf("no expand found:\n%s", p)
	}
	if len(second.UniqueRels) != 1 {
		t.Errorf("the second expand should carry one earlier relationship variable, got %v", second.UniqueRels)
	}
}

func TestPlannerErrors(t *testing.T) {
	g, _ := datasets.Teachers()
	bad := []string{
		"MATCH (n) RETURN m",
		"MATCH (n) WITH n RETURN q",
		"MATCH (a)-[r]->(b)-[r]->(c) RETURN a",
		"RETURN *",
		"MATCH (n) RETURN n.a AS x, n.b AS x",
		"MATCH (a) RETURN a UNION MATCH (b) RETURN b",
		"MATCH (a) RETURN a AS x UNION MATCH (b) RETURN b AS x, b AS y",
		"UNWIND q AS x RETURN x",
		"MATCH (n) DELETE q",
	}
	for _, src := range bad {
		q, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := New(g).Plan(q); err == nil {
			t.Errorf("Plan(%q) should fail", src)
		}
	}
}

func TestReadOnlyFlagAndColumns(t *testing.T) {
	g, _ := datasets.Teachers()
	p := planFor(t, g, "MATCH (n) RETURN n.name AS name, id(n)")
	if !p.ReadOnly {
		t.Errorf("read query should be read-only")
	}
	if len(p.Columns) != 2 || p.Columns[0] != "name" || p.Columns[1] != "id(n)" {
		t.Errorf("columns = %v", p.Columns)
	}
	p = planFor(t, g, "CREATE (x:New {v: 1})")
	if p.ReadOnly {
		t.Errorf("create should not be read-only")
	}
	if len(p.Columns) != 0 {
		t.Errorf("update-only query has no columns, got %v", p.Columns)
	}
	p = planFor(t, g, "MATCH (n) RETURN *")
	if len(p.Columns) != 1 || p.Columns[0] != "n" {
		t.Errorf("RETURN * columns = %v", p.Columns)
	}
}

func TestValueLiteralInPlanDescription(t *testing.T) {
	g := graph.New()
	g.CreateNode([]string{"L"}, map[string]value.Value{"k": value.NewInt(1)})
	p := planFor(t, g, "MATCH (n:L) WHERE n.k = 1 RETURN n")
	if !hasOperator(p, "Filter(n.k = 1)") {
		t.Errorf("WHERE should appear as a filter:\n%s", p)
	}
}

// --- PR 5: cost-based planning ---

// rangeGraph builds a labelled, indexed dataset large enough that seeks are
// estimated cheaper than scans.
func rangeGraph() *graph.Graph {
	g := graph.New()
	for i := 0; i < 100; i++ {
		g.CreateNode([]string{"Person"}, map[string]value.Value{
			"age":  value.NewInt(int64(i)),
			"name": value.NewString(fmt.Sprintf("p%02d", i)),
		})
	}
	g.CreateIndex("Person", "age")
	g.CreateIndex("Person", "name")
	return g
}

func TestWherePredicatesBecomeIndexSeeks(t *testing.T) {
	g := rangeGraph()
	cases := []struct{ query, operator string }{
		{"MATCH (n:Person) WHERE n.age > 30 RETURN n", "NodeIndexRangeSeek(n:Person {age > 30})"},
		{"MATCH (n:Person) WHERE n.age > 30 AND n.age <= 40 RETURN n", "NodeIndexRangeSeek(n:Person {age > 30, age <= 40})"},
		{"MATCH (n:Person) WHERE 30 < n.age RETURN n", "NodeIndexRangeSeek(n:Person {age > 30})"},
		{"MATCH (n:Person) WHERE n.age >= $k RETURN n", "NodeIndexRangeSeek(n:Person {age >= $k})"},
		{"MATCH (n:Person) WHERE n.name STARTS WITH 'p1' RETURN n", "NodeIndexPrefixSeek(n:Person {name STARTS WITH 'p1'})"},
		{"MATCH (n:Person) WHERE n.age IN [1, 2, 3] RETURN n", "NodeIndexSeek(n:Person {age IN [1, 2, 3]})"},
		{"MATCH (n:Person) WHERE n.name = 'p07' RETURN n", "NodeIndexSeek(n:Person {name = 'p07'})"},
	}
	for _, c := range cases {
		p := planFor(t, g, c.query)
		if !hasOperator(p, c.operator) {
			t.Errorf("%s:\nexpected %s in\n%s", c.query, c.operator, p)
		}
		if hasOperator(p, "Filter(n.age") && c.operator != "NodeIndexSeek(n:Person {age IN [1, 2, 3]})" &&
			(c.query == cases[0].query || c.query == cases[1].query) {
			t.Errorf("%s: consumed range conjuncts must not reappear as filters:\n%s", c.query, p)
		}
	}
	// The residual part of the WHERE stays a filter.
	p := planFor(t, g, "MATCH (n:Person) WHERE n.age > 30 AND n.name <> 'x' RETURN n")
	if !hasOperator(p, "NodeIndexRangeSeek") || !hasOperator(p, "Filter(n.name <> 'x')") {
		t.Errorf("range conjunct should seek, the rest should filter:\n%s", p)
	}
}

// Satellite (PR 5): `WHERE n:Label` participates in label-scan selection
// rather than always filtering after an AllNodesScan.
func TestWhereLabelPredicateSelectsLabelScan(t *testing.T) {
	g := rangeGraph()
	p := planFor(t, g, "MATCH (n) WHERE n:Person RETURN n")
	if !hasOperator(p, "NodeByLabelScan(n:Person)") {
		t.Errorf("WHERE n:Person should drive a label scan:\n%s", p)
	}
	if hasOperator(p, "AllNodesScan") {
		t.Errorf("no AllNodesScan expected:\n%s", p)
	}
	// Combined with an indexed property predicate it becomes a seek.
	p = planFor(t, g, "MATCH (n) WHERE n:Person AND n.age = 30 RETURN n")
	if !hasOperator(p, "NodeIndexSeek(n:Person {age = 30})") {
		t.Errorf("WHERE n:Person AND n.age = 30 should seek:\n%s", p)
	}
	// A label predicate on an already-bound variable stays a filter.
	p = planFor(t, g, "MATCH (n) WITH n MATCH (m) WHERE n:Person RETURN m")
	if !hasOperator(p, "Filter(n:Person)") {
		t.Errorf("bound-variable label predicate should remain a filter:\n%s", p)
	}
}

// An inline map is a conjunct like its WHERE twin, and stays pushed to its
// node even when an error-capable WHERE keeps its single final Filter.
func TestInlineMapConjunctsPushedUnderUnsplitWhere(t *testing.T) {
	g := graph.New()
	for i := 0; i < 100; i++ {
		a := g.CreateNode([]string{"Person"}, map[string]value.Value{"name": value.NewString(fmt.Sprintf("p%02d", i))})
		b := g.CreateNode(nil, nil)
		if _, err := g.CreateRelationship(a, b, "KNOWS", nil); err != nil {
			t.Fatal(err)
		}
	}
	p := planFor(t, g, "MATCH (a:Person {name: 'p07'})-[:KNOWS]->(b) WHERE 1 / b.x = 1 RETURN b")
	ops := operators(p)
	want := []string{"Filter(1 / b.x = 1)", "Expand((a)", "Filter(a.name = 'p07')", "NodeByLabelScan(a:Person)", "Start"}
	at := 0
	for _, d := range ops {
		if at < len(want) && strings.HasPrefix(d, want[at]) {
			at++
		}
	}
	if at != len(want) {
		t.Errorf("want the inline conjunct below the Expand and the unsplit WHERE on top (%q in order):\n%s", want, p)
	}
}

// Predicates are pushed below later pattern parts: a conjunct mentioning
// only the first part's variables must filter before the second part's scan.
func TestPredicatePushdownBelowCartesianPart(t *testing.T) {
	g := rangeGraph()
	p := planFor(t, g, "MATCH (a:Person), (b:Person) WHERE a.age = 1 AND b.age = 2 RETURN a, b")
	// Both conjuncts become index seeks — no residual filters at all.
	if hasOperator(p, "Filter(") {
		t.Errorf("both conjuncts should be consumed by seeks:\n%s", p)
	}
	seeks := 0
	for _, d := range operators(p) {
		if strings.Contains(d, "NodeIndexSeek") {
			seeks++
		}
	}
	if seeks != 2 {
		t.Errorf("expected two index seeks, got %d:\n%s", seeks, p)
	}
}

func TestEstimatesAnnotateExplain(t *testing.T) {
	g := rangeGraph()
	p := planFor(t, g, "MATCH (n:Person) WHERE n.age > 30 RETURN n")
	if p.Est == nil {
		t.Fatalf("cost-based plans must carry estimates")
	}
	if !strings.Contains(p.String(), "rows~") || !strings.Contains(p.String(), "cost~") {
		t.Errorf("EXPLAIN should surface estimates:\n%s", p)
	}
}

// The greedy part ordering starts with the cheapest pattern part and lets
// connected parts follow the parts that bind their variables.
func TestPatternPartOrderingByCost(t *testing.T) {
	g := graph.New()
	for i := 0; i < 100; i++ {
		g.CreateNode([]string{"Common"}, nil)
	}
	rare := g.CreateNode([]string{"Rare"}, nil)
	common := g.NodesByLabel("Common")[0]
	if _, err := g.CreateRelationship(rare, common, "R", nil); err != nil {
		t.Fatal(err)
	}
	p := planFor(t, g, "MATCH (c:Common), (r:Rare) RETURN c, r")
	ops := operators(p)
	// The leaf (last scan before Start) must be the rare side.
	if !strings.Contains(ops[len(ops)-2], "NodeByLabelScan(r:Rare)") {
		t.Errorf("the cheapest part should be solved first:\n%s", p)
	}
}

// Review fix: a long IN list over a low-cardinality index must not be
// overcosted past the label scan — the seek can never return more than the
// index's entries.
func TestInSeekEstimateCappedAtEntries(t *testing.T) {
	g := graph.New()
	for i := 0; i < 200; i++ {
		g.CreateNode([]string{"P"}, map[string]value.Value{"k": value.NewInt(int64(i % 2))})
	}
	g.CreateIndex("P", "k")
	list := make([]string, 40)
	for i := range list {
		list[i] = fmt.Sprintf("%d", i)
	}
	p := planFor(t, g, "MATCH (n:P) WHERE n.k IN ["+strings.Join(list, ", ")+"] RETURN n")
	if !hasOperator(p, "NodeIndexSeek(n:P {k IN") {
		t.Errorf("long IN list should still seek (estimate capped at entries):\n%s", p)
	}
	for op, est := range p.Est {
		if strings.Contains(op.Describe(), "NodeIndexSeek") && est.Rows > 200 {
			t.Errorf("IN-seek estimate %f exceeds the index's %d entries", est.Rows, 200)
		}
	}
}

// Review fix: RETURN * column order must follow the source pattern, not the
// solve order the cost model happens to pick.
func TestReturnStarOrderIndependentOfSolveOrder(t *testing.T) {
	g := graph.New()
	for i := 0; i < 100; i++ {
		g.CreateNode([]string{"Common"}, nil)
	}
	g.CreateNode([]string{"Rare"}, nil)
	p := planFor(t, g, "MATCH (c:Common), (r:Rare) RETURN *")
	if len(p.Columns) != 2 || p.Columns[0] != "c" || p.Columns[1] != "r" {
		t.Errorf("RETURN * columns = %v (want [c r] regardless of solve order)\n%s", p.Columns, p)
	}
	// The rare part is still solved first (leaf closest to Start).
	ops := operators(p)
	if !strings.Contains(ops[len(ops)-2], "Rare") {
		t.Errorf("solve order should still start from the rare part:\n%s", p)
	}
	// Anonymous nodes in a chain must not be miscosted as ExpandInto probes
	// (they are distinct fresh bindings); the plan stays a plain expand chain.
	p = planFor(t, g, "MATCH (a:Common)-->()-->() RETURN a")
	for _, d := range operators(p) {
		if strings.Contains(d, "ExpandInto") {
			t.Errorf("anonymous targets must not plan as ExpandInto:\n%s", p)
		}
	}
}

// Two indexed range properties with equal estimates must pick the same seek
// on every planning run: the one whose conjunct comes first in the WHERE.
func TestEqualCostRangeSeekIsDeterministic(t *testing.T) {
	g := graph.New()
	for i := 0; i < 100; i++ {
		g.CreateNode([]string{"L"}, map[string]value.Value{
			"a": value.NewInt(int64(i)),
			"b": value.NewInt(int64(i)),
		})
	}
	g.CreateIndex("L", "a")
	g.CreateIndex("L", "b")
	const q = "MATCH (n:L) WHERE n.a > 1 AND n.b > 1 RETURN n"
	want := planFor(t, g, q).String()
	if !strings.Contains(want, "NodeIndexRangeSeek(n:L {a > 1})") {
		t.Fatalf("expected the seek on the first conjunct's property:\n%s", want)
	}
	for i := 0; i < 50; i++ {
		if got := planFor(t, g, q).String(); got != want {
			t.Fatalf("plan %d differs:\n%s\nwant:\n%s", i, got, want)
		}
	}
}
