package plan

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/value"
)

func analyzed(root Operator, readOnly bool) *ParallelInfo {
	return AnalyzeParallelism(&Plan{Root: root, Columns: []string{"x"}, ReadOnly: readOnly})
}

func TestAnalyzeParallelismStreaming(t *testing.T) {
	v := func(n string) ast.Expr { return &ast.Variable{Name: n} }
	scan := &NodeByLabelScan{Input: &Start{}, Var: "n", Label: "Person"}
	filter := &Filter{Input: scan, Predicate: v("ok")}
	expand := &Expand{Input: filter, FromVar: "n", RelVar: "r", ToVar: "m", Direction: ast.DirOutgoing}
	project := &Project{Input: expand, Items: []ProjectionItem{{Name: "x", Expr: v("m")}}}
	sel := &SelectColumns{Input: project, Columns: []string{"x"}}

	info := analyzed(sel, true)
	if !info.Safe {
		t.Fatalf("streaming pipeline should be parallel-safe, got: %s", info.Reason)
	}
	if info.Scan != scan {
		t.Errorf("scan not identified")
	}
	if len(info.Streaming) != 4 || info.Agg != nil || len(info.Rest) != 0 {
		t.Errorf("decomposition wrong: %d streaming, agg=%v, %d rest",
			len(info.Streaming), info.Agg, len(info.Rest))
	}
}

func TestAnalyzeParallelismAggregateAndSort(t *testing.T) {
	v := func(n string) ast.Expr { return &ast.Variable{Name: n} }
	lit := func(i int64) ast.Expr { return &ast.Literal{Value: value.NewInt(i)} }
	scan := &AllNodesScan{Input: &Start{}, Var: "n"}
	agg := &Aggregate{Input: scan, Grouping: []ProjectionItem{{Name: "g", Expr: v("g")}},
		Aggregations: []AggregationItem{{Name: "c", Func: "count"}}}
	project := &Project{Input: agg, Items: []ProjectionItem{{Name: "x", Expr: v("c")}}}
	sortOp := &Sort{Input: project, Keys: []SortKey{{Expr: v("x")}}}
	limit := &Limit{Input: sortOp, Count: lit(1)}
	sel := &SelectColumns{Input: limit, Columns: []string{"x"}}

	info := analyzed(sel, true)
	if !info.Safe {
		t.Fatalf("aggregate+sort+limit plan should be parallel-safe, got: %s", info.Reason)
	}
	if info.Agg != agg {
		t.Errorf("aggregate not captured for partial aggregation")
	}
	if len(info.Rest) != 4 { // Project, Sort, Limit, SelectColumns
		t.Errorf("rest should hold the 4 serial tail operators, got %d", len(info.Rest))
	}
}

func TestAnalyzeParallelismAggregateInRestForcesOrderedMerge(t *testing.T) {
	v := func(n string) ast.Expr { return &ast.Variable{Name: n} }
	scan := &NodeByLabelScan{Input: &Start{}, Var: "p", Label: "Person"}
	filter := &Filter{Input: scan, Predicate: v("ok")}
	// A second scan ends the streaming segment, so the aggregate lands in
	// Rest instead of being captured for partial aggregation.
	scan2 := &NodeByLabelScan{Input: filter, Var: "t", Label: "Team"}
	agg := &Aggregate{Input: scan2, Grouping: []ProjectionItem{{Name: "g", Expr: v("t")}},
		Aggregations: []AggregationItem{{Name: "names", Func: "collect", Arg: v("p")}}}

	info := analyzed(agg, true)
	if !info.Safe {
		t.Fatalf("plan should stay parallel-safe, got: %s", info.Reason)
	}
	if info.Agg != nil {
		t.Errorf("aggregate behind a second scan must not use partial aggregation")
	}
	// Every merge joins morsels in order, so the serial aggregate sees the
	// serial row order (collect/group order are input-order-sensitive).
	if len(info.Rest) != 2 || info.Rest[0] != scan2 || info.Rest[1] != agg {
		t.Errorf("the second scan and the aggregate should run serially above the merge, got %d rest operators", len(info.Rest))
	}
}

func TestAnalyzeParallelismFallbacks(t *testing.T) {
	v := func(n string) ast.Expr { return &ast.Variable{Name: n} }
	lit := func(i int64) ast.Expr { return &ast.Literal{Value: value.NewInt(i)} }
	scan := &NodeByLabelScan{Input: &Start{}, Var: "n", Label: "Person"}
	project := &Project{Input: scan, Items: []ProjectionItem{{Name: "x", Expr: v("n")}}}

	cases := []struct {
		name   string
		root   Operator
		ro     bool
		reason string
	}{
		{"updating", &CreateOp{Input: &Start{}}, false, "updating"},
		{"union", &Union{Left: project, Right: project, Columns: []string{"x"}}, true, "UNION"},
		{"limit-early-exit", &Limit{Input: project, Count: lit(3)}, true, "early exit"},
		{"skip-early-exit", &Skip{Input: project, Count: lit(3)}, true, "early exit"},
		{"argument-leaf", &Project{Input: &Argument{}, Items: []ProjectionItem{{Name: "x", Expr: v("n")}}}, true, "leaf is not Start"},
		{"bare-scan", scan, true, "no per-row work"},
	}
	for _, c := range cases {
		info := analyzed(c.root, c.ro)
		if info.Safe {
			t.Errorf("%s: should not be parallel-safe", c.name)
			continue
		}
		if !strings.Contains(info.Reason, c.reason) {
			t.Errorf("%s: reason %q should mention %q", c.name, info.Reason, c.reason)
		}
	}
}

func TestAnalyzeParallelismSeekLeaves(t *testing.T) {
	v := func(n string) ast.Expr { return &ast.Variable{Name: n} }
	lit := func(i int64) ast.Expr { return &ast.Literal{Value: value.NewInt(i)} }
	items := []ProjectionItem{{Name: "x", Expr: v("n")}}
	leaves := []Operator{
		&NodeIndexSeek{Input: &Start{}, Var: "n", Label: "P", Property: "k", Value: lit(1)},
		&NodeIndexRangeSeek{Input: &Start{}, Var: "n", Label: "P", Property: "k", Lo: lit(1)},
		&NodeIndexPrefixSeek{Input: &Start{}, Var: "n", Label: "P", Property: "k", Prefix: lit(1)},
	}
	for _, leaf := range leaves {
		info := analyzed(&Project{Input: leaf, Items: items}, true)
		if !info.Safe {
			t.Errorf("%s leaf should be a partitionable scan: %s", leaf.Describe(), info.Reason)
		} else if info.Scan != leaf {
			t.Errorf("%s: partitionable leaf should be the seek itself", leaf.Describe())
		}
	}
}

func TestPlanStringReportsParallel(t *testing.T) {
	v := func(n string) ast.Expr { return &ast.Variable{Name: n} }
	scan := &NodeByLabelScan{Input: &Start{}, Var: "n", Label: "Person"}
	project := &Project{Input: scan, Items: []ProjectionItem{{Name: "x", Expr: v("n")}}}
	p := &Plan{Root: project, Columns: []string{"x"}, ReadOnly: true}
	if strings.Contains(p.String(), "parallel:") {
		t.Errorf("un-analysed plan should not print a parallel line:\n%s", p.String())
	}
	p.Parallel = AnalyzeParallelism(p)
	if !strings.Contains(p.String(), "parallel: eligible") {
		t.Errorf("analysed plan should print its eligibility:\n%s", p.String())
	}
}
