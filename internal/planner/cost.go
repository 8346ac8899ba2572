package planner

import (
	"math"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/value"
)

// Cost model. The planner's decisions — which access path binds a node
// pattern, which end of a path pattern to solve first, in which order to
// solve the parts of a pattern tuple — all compare estimated row counts
// derived from the graph's incremental statistics (graph.Statistics). The
// same estimators annotate the finished plan for EXPLAIN. The default
// selectivity factors below follow the classic Selinger-style constants;
// they matter only relative to each other (an equality seek must look
// cheaper than a range seek, a range seek cheaper than a scan).
const (
	// selHalfRange estimates a one-sided range predicate (p > x).
	selHalfRange = 0.25
	// selClosedRange estimates a two-sided range predicate (x < p < y).
	selClosedRange = 0.1
	// selPrefix estimates a STARTS WITH predicate.
	selPrefix = 0.05
	// selFilter estimates a generic, unanalysed filter predicate.
	selFilter = 0.5
	// selEqProp estimates an equality property predicate without an index.
	selEqProp = 0.1
	// defaultInListSize is assumed for IN lists whose length is not known at
	// plan time (parameters, computed lists).
	defaultInListSize = 10
	// varLengthFudge multiplies the single-hop degree to approximate a
	// variable-length expansion's fan-out.
	varLengthFudge = 2
)

// accessKind enumerates the ways an unbound node pattern can be bound.
type accessKind int

const (
	accessAllNodes accessKind = iota
	accessLabelScan
	accessEqSeek
	accessInSeek
	accessRangeSeek
	accessPrefixSeek
)

// preference orders access kinds for estimate ties (lower wins): a seek
// whose estimate equals a scan's — common on small graphs where every
// cardinality is 1 — should still use the index, like the pre-cost-based
// planner did.
func (k accessKind) preference() int {
	switch k {
	case accessEqSeek:
		return 0
	case accessInSeek:
		return 1
	case accessRangeSeek:
		return 2
	case accessPrefixSeek:
		return 3
	case accessLabelScan:
		return 4
	default:
		return 5
	}
}

// accessPath is one candidate way to bind an unbound node pattern, with its
// estimated output cardinality and the WHERE conjuncts it would consume.
type accessPath struct {
	kind     accessKind
	label    string
	property string
	// value is the comparison operand: the equality value, the IN list or
	// the prefix, depending on kind.
	value        ast.Expr
	lo, hi       ast.Expr
	loInc, hiInc bool
	conjs        []*conjunct
	est          float64
}

// build constructs the scan/seek operator for the path.
func (ap accessPath) build(input plan.Operator, varName string) plan.Operator {
	switch ap.kind {
	case accessAllNodes:
		return &plan.AllNodesScan{Input: input, Var: varName}
	case accessLabelScan:
		return &plan.NodeByLabelScan{Input: input, Var: varName, Label: ap.label}
	case accessEqSeek:
		return &plan.NodeIndexSeek{Input: input, Var: varName, Label: ap.label, Property: ap.property, Value: ap.value}
	case accessInSeek:
		return &plan.NodeIndexSeek{Input: input, Var: varName, Label: ap.label, Property: ap.property, Value: ap.value, In: true}
	case accessRangeSeek:
		return &plan.NodeIndexRangeSeek{Input: input, Var: varName, Label: ap.label, Property: ap.property,
			Lo: ap.lo, Hi: ap.hi, LoInc: ap.loInc, HiInc: ap.hiInc}
	default:
		return &plan.NodeIndexPrefixSeek{Input: input, Var: varName, Label: ap.label, Property: ap.property, Prefix: ap.value}
	}
}

// consume marks the conjuncts the path covers as used, so they are not
// re-applied as filters.
func (ap accessPath) consume() {
	for _, c := range ap.conjs {
		c.used = true
	}
}

// coveredLabel returns the label the access path guarantees ("" for an
// all-nodes scan), for exclusion from the residual predicate.
func (ap accessPath) coveredLabel() string {
	if ap.kind == accessAllNodes {
		return ""
	}
	return ap.label
}

// bestAccess selects the cheapest access path for an unbound node pattern,
// considering the label statistics, the available property indexes and the
// conjuncts (inline map entries and WHERE terms alike) that compare a
// property of this variable against an expression already evaluable (all its
// variables bound before this pattern). It does not mutate the conjunct set;
// the caller consumes the winner's conjuncts when it actually builds the
// operator.
func (p *Planner) bestAccess(np ast.NodePattern, bound *scope, cs *conjunctSet) accessPath {
	if len(np.Labels) == 0 {
		return accessPath{kind: accessAllNodes, est: float64(p.stats.NodeCount)}
	}
	// Baseline: label scan on the most selective label.
	best := accessPath{kind: accessLabelScan, label: np.Labels[0], est: float64(p.stats.LabelCardinality(np.Labels[0]))}
	for _, l := range np.Labels[1:] {
		if c := float64(p.stats.LabelCardinality(l)); c < best.est {
			best = accessPath{kind: accessLabelScan, label: l, est: c}
		}
	}
	consider := func(ap accessPath) {
		if ap.est < best.est || (ap.est == best.est && ap.kind.preference() < best.kind.preference()) {
			best = ap
		}
	}
	for _, l := range np.Labels {
		// Conjuncts on this variable. Range bounds on the same indexed
		// property combine into one seek; every other shape stands alone.
		type rangeBounds struct {
			lo, hi       *conjunct
			loE, hiE     ast.Expr
			loInc, hiInc bool
		}
		ranges := map[string]*rangeBounds{}
		for _, c := range cs.items {
			if c.used {
				continue
			}
			prop, op, rhs, ok := propComparison(c.expr, np.Variable, bound)
			if !ok {
				continue
			}
			is, ok := p.stats.Index(l, prop)
			if !ok {
				continue
			}
			switch op {
			case ast.OpEq:
				consider(accessPath{kind: accessEqSeek, label: l, property: prop,
					value: rhs, conjs: []*conjunct{c}, est: is.RowsPerKey()})
			case ast.OpIn:
				consider(accessPath{kind: accessInSeek, label: l, property: prop,
					value: rhs, conjs: []*conjunct{c}, est: inSeekEst(rhs, is)})
			case ast.OpStartsWith:
				consider(accessPath{kind: accessPrefixSeek, label: l, property: prop,
					value: rhs, conjs: []*conjunct{c}, est: math.Max(1, selPrefix*float64(is.Entries))})
			case ast.OpGt, ast.OpGe:
				rb := ranges[prop]
				if rb == nil {
					rb = &rangeBounds{}
					ranges[prop] = rb
				}
				if rb.lo == nil {
					rb.lo, rb.loE, rb.loInc = c, rhs, op == ast.OpGe
				}
			case ast.OpLt, ast.OpLe:
				rb := ranges[prop]
				if rb == nil {
					rb = &rangeBounds{}
					ranges[prop] = rb
				}
				if rb.hi == nil {
					rb.hi, rb.hiE, rb.hiInc = c, rhs, op == ast.OpLe
				}
			}
		}
		for prop, rb := range ranges {
			is, _ := p.stats.Index(l, prop)
			sel := selHalfRange
			ap := accessPath{kind: accessRangeSeek, label: l, property: prop,
				loInc: rb.loInc, hiInc: rb.hiInc}
			if rb.lo != nil {
				ap.lo = rb.loE
				ap.conjs = append(ap.conjs, rb.lo)
			}
			if rb.hi != nil {
				ap.hi = rb.hiE
				ap.conjs = append(ap.conjs, rb.hi)
			}
			if rb.lo != nil && rb.hi != nil {
				sel = selClosedRange
			}
			ap.est = math.Max(1, sel*float64(is.Entries))
			consider(ap)
		}
	}
	return best
}

// inSeekEst estimates an IN-list seek: list length (known for literals,
// defaultInListSize otherwise) times the average bucket size, capped at the
// index's total entries — the seek can never return more nodes than are
// indexed, however long the list.
func inSeekEst(rhs ast.Expr, is graph.IndexStatistics) float64 {
	k := float64(defaultInListSize)
	if ll, ok := rhs.(*ast.ListLiteral); ok {
		k = float64(len(ll.Elems))
	}
	return math.Max(1, math.Min(k*is.RowsPerKey(), float64(is.Entries)))
}

// propComparison recognises a WHERE conjunct of the shape `v.prop OP rhs`
// (or the flipped `rhs OP v.prop` for comparisons), where every variable of
// rhs is already bound — so the seek operand can be evaluated when the scan
// runs. The returned operator is normalised to have the property access on
// the left.
func propComparison(e ast.Expr, varName string, bound *scope) (prop string, op ast.BinaryOperator, rhs ast.Expr, ok bool) {
	b, isBin := e.(*ast.BinaryOp)
	if !isBin {
		return "", 0, nil, false
	}
	side := func(e ast.Expr) (string, bool) {
		pa, ok := e.(*ast.PropertyAccess)
		if !ok {
			return "", false
		}
		v, ok := pa.Subject.(*ast.Variable)
		if !ok || v.Name != varName {
			return "", false
		}
		return pa.Key, true
	}
	evaluable := func(e ast.Expr) bool {
		for _, v := range eval.Variables(e) {
			if !bound.has(v) {
				return false
			}
		}
		return true
	}
	if p, isProp := side(b.LHS); isProp && evaluable(b.RHS) {
		switch b.Op {
		case ast.OpEq, ast.OpIn, ast.OpStartsWith, ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe:
			return p, b.Op, b.RHS, true
		}
		return "", 0, nil, false
	}
	if p, isProp := side(b.RHS); isProp && evaluable(b.LHS) {
		// Flip the comparison so the property is on the left; IN and STARTS
		// WITH are not symmetric and cannot be flipped.
		switch b.Op {
		case ast.OpEq:
			return p, ast.OpEq, b.LHS, true
		case ast.OpLt:
			return p, ast.OpGt, b.LHS, true
		case ast.OpLe:
			return p, ast.OpGe, b.LHS, true
		case ast.OpGt:
			return p, ast.OpLt, b.LHS, true
		case ast.OpGe:
			return p, ast.OpLe, b.LHS, true
		}
	}
	return "", 0, nil, false
}

// --- Conjuncts ---

// conjunct is one AND-term of a MATCH clause's predicates: an inline
// property-map entry or a WHERE conjunct.
type conjunct struct {
	expr ast.Expr
	vars []string
	used bool
}

// conjunctSet tracks the conjuncts of one MATCH clause through pattern
// planning: access-path selection consumes some, predicate pushdown attaches
// the rest as Filter operators at the earliest point their variables are all
// bound. where holds a WHERE that could not be split; it is attached whole,
// after everything else.
type conjunctSet struct {
	items []*conjunct
	where ast.Expr
}

// newConjunctSet collects the inline-map conjuncts and splits the WHERE
// expression on top-level ANDs. Under ternary logic `a AND b` is true
// exactly when both a and b are true, so applying the conjuncts as separate
// filters (in any order, at any point where their variables are bound) is
// equivalent to one combined filter — PROVIDED evaluation cannot raise a
// runtime error. Pushdown evaluates predicates on a superset of the rows the
// single post-pattern filter would see (rows a later expansion eliminates, or
// the unit row when the pattern matches nothing), so an error-capable
// expression like `1/0 = 1` could abort queries that used to succeed. The
// WHERE is therefore kept whole, as one filter after the pattern, unless
// every conjunct passes pushSafe. Inline conjuncts are always pushed: the
// pattern itself evaluates them at their node.
func newConjunctSet(inline []ast.Expr, where ast.Expr) *conjunctSet {
	cs := &conjunctSet{}
	add := func(e ast.Expr) {
		cs.items = append(cs.items, &conjunct{expr: e, vars: eval.Variables(e)})
	}
	for _, e := range inline {
		add(e)
	}
	if where == nil {
		return cs
	}
	var terms []ast.Expr
	var split func(e ast.Expr)
	split = func(e ast.Expr) {
		if b, ok := e.(*ast.BinaryOp); ok && b.Op == ast.OpAnd {
			split(b.LHS)
			split(b.RHS)
			return
		}
		terms = append(terms, e)
	}
	split(where)
	for _, e := range terms {
		if !pushSafe(e) {
			cs.where = where
			return cs
		}
	}
	for _, e := range terms {
		add(e)
	}
	return cs
}

// pushSafe conservatively recognises expressions whose evaluation cannot
// raise a runtime error, so evaluating them earlier (on more rows) than the
// single post-pattern filter is observationally equivalent: comparisons and
// string predicates are ternary-total, boolean connectives and label checks
// never error, and literals/parameters/variables are plain lookups.
// Arithmetic (division by zero), regex matches (bad patterns), function
// calls, subscripts and everything else unknown are excluded. Two narrow
// edges remain and are accepted: property access on a non-entity value and
// `IN $param` with a non-list parameter type-error on the pushed plan even
// when the pattern would have matched zero rows.
func pushSafe(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Literal, *ast.Parameter, *ast.Variable:
		return true
	case *ast.PropertyAccess:
		_, ok := x.Subject.(*ast.Variable)
		return ok
	case *ast.HasLabels:
		return pushSafe(x.Subject)
	case *ast.ListLiteral:
		for _, el := range x.Elems {
			if !pushSafe(el) {
				return false
			}
		}
		return true
	case *ast.UnaryOp:
		return x.Op == ast.OpNot && pushSafe(x.Operand)
	case *ast.BinaryOp:
		switch x.Op {
		case ast.OpEq, ast.OpNeq, ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe,
			ast.OpAnd, ast.OpOr, ast.OpXor,
			ast.OpStartsWith, ast.OpEndsWith, ast.OpContains:
			return pushSafe(x.LHS) && pushSafe(x.RHS)
		case ast.OpIn:
			if !pushSafe(x.LHS) {
				return false
			}
			switch x.RHS.(type) {
			case *ast.Parameter, *ast.ListLiteral:
				return pushSafe(x.RHS)
			}
			return false
		}
		return false
	default:
		return false
	}
}

// ready reports whether every variable of the conjunct is bound.
func (c *conjunct) ready(bound func(string) bool) bool {
	for _, v := range c.vars {
		if !bound(v) {
			return false
		}
	}
	return true
}

// attachReady wraps op in a Filter for every unused conjunct whose variables
// are all bound, in original conjunct order, marking them used.
func (cs *conjunctSet) attachReady(op plan.Operator, bound *scope) plan.Operator {
	for _, c := range cs.items {
		if !c.used && c.ready(bound.has) {
			c.used = true
			op = &plan.Filter{Input: op, Predicate: c.expr}
		}
	}
	return op
}

// attachRemaining appends every still-unused conjunct, then the unsplit
// WHERE if there is one, as Filters (the WHERE's variables have been checked
// against the final scope by the caller).
func (cs *conjunctSet) attachRemaining(op plan.Operator) plan.Operator {
	for _, c := range cs.items {
		if !c.used {
			c.used = true
			op = &plan.Filter{Input: op, Predicate: c.expr}
		}
	}
	if cs.where != nil {
		op = &plan.Filter{Input: op, Predicate: cs.where}
	}
	return op
}

// --- Pattern-part cost estimation ---

// toGraphDir maps a pattern direction (already flipped for reversed
// traversal) onto the statistics' direction.
func toGraphDir(d ast.Direction) graph.Direction {
	switch d {
	case ast.DirOutgoing:
		return graph.Outgoing
	case ast.DirIncoming:
		return graph.Incoming
	default:
		return graph.Both
	}
}

// labelsSelectivity multiplies the per-label selectivities (independence
// assumption).
func (p *Planner) labelsSelectivity(labels []string) float64 {
	sel := 1.0
	for _, l := range labels {
		sel *= p.stats.LabelSelectivity(l)
	}
	return sel
}

// conjunctSelectivity estimates the fraction of rows a predicate keeps. It
// is the one selectivity function of the planner: partCost applies it to
// each conjunct where attachReady would attach it, and annotatePlan to each
// Filter, so EXPLAIN shows the numbers the planner compared.
func (p *Planner) conjunctSelectivity(e ast.Expr) float64 {
	switch x := e.(type) {
	case *ast.HasLabels:
		return p.labelsSelectivity(x.Labels)
	case *ast.BinaryOp:
		switch x.Op {
		case ast.OpAnd:
			return p.conjunctSelectivity(x.LHS) * p.conjunctSelectivity(x.RHS)
		case ast.OpEq:
			return selEqProp
		case ast.OpIn:
			k := float64(defaultInListSize)
			if ll, ok := x.RHS.(*ast.ListLiteral); ok {
				k = float64(len(ll.Elems))
			}
			return math.Min(1, k*selEqProp)
		case ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe:
			return selHalfRange
		case ast.OpStartsWith:
			return selPrefix
		}
	}
	return selFilter
}

// partCost estimates the rows touched when solving the path pattern starting
// from node index start: the start node's access-path cardinality, then the
// fan-out of every expansion to the right and to the left — exactly the walk
// planPart performs. Expansions into an already-bound endpoint are costed as
// a probe (ExpandInto). After each operator, the conjuncts attachReady would
// attach there shrink the rows that flow on by their conjunctSelectivity;
// the operator itself is costed at the rows it produces before filtering.
func (p *Planner) partCost(part ast.PatternPart, start int, bound *scope, cs *conjunctSet) float64 {
	n := math.Max(1, float64(p.stats.NodeCount))
	// seen tracks the variables bound within this walk, applied the
	// conjuncts already accounted for (by the access path or a filter).
	seen := map[string]bool{}
	has := func(v string) bool { return bound.has(v) || seen[v] }
	applied := map[*conjunct]bool{}
	filter := func(rows float64) float64 {
		for _, c := range cs.items {
			if !c.used && !applied[c] && c.ready(has) {
				applied[c] = true
				rows *= p.conjunctSelectivity(c.expr)
			}
		}
		return rows
	}
	np := part.Nodes[start]
	rows := 1.0
	if !bound.has(np.Variable) {
		ap := p.bestAccess(np, bound, cs)
		rows = ap.est
		for _, c := range ap.conjs {
			applied[c] = true
		}
		seen[np.Variable] = true
	}
	cost := rows
	rows = filter(rows)
	step := func(i int, reversed bool) {
		rp := part.Rels[i]
		toNP := part.Nodes[i+1]
		dir := rp.Direction
		if reversed {
			toNP = part.Nodes[i]
			switch dir {
			case ast.DirOutgoing:
				dir = ast.DirIncoming
			case ast.DirIncoming:
				dir = ast.DirOutgoing
			}
		}
		deg := p.stats.TypeDegree(rp.Types, toGraphDir(dir))
		if rp.VarLength {
			deg *= varLengthFudge
		}
		seen[rp.Variable] = true
		if has(toNP.Variable) {
			// ExpandInto: one adjacency probe per row, few survivors.
			cost += rows
			rows = rows * deg / n
		} else {
			seen[toNP.Variable] = true
			rows *= deg * p.labelsSelectivity(toNP.Labels)
			cost += rows
		}
		rows = filter(rows)
	}
	for i := start; i < len(part.Rels); i++ {
		step(i, false)
	}
	for i := start - 1; i >= 0; i-- {
		step(i, true)
	}
	return cost
}

// --- Plan-wide estimate annotation (EXPLAIN) ---

// annotatePlan walks the finished operator tree and records an estimated
// row count and cumulative cost for every operator. Estimates use the same
// statistics and selectivity constants as the planning decisions, so EXPLAIN
// shows the numbers the planner actually compared.
func (p *Planner) annotatePlan(pl *plan.Plan) {
	est := make(map[plan.Operator]plan.Estimate)
	n := float64(p.stats.NodeCount)
	var walk func(op plan.Operator) (rows, cost float64)
	record := func(op plan.Operator, rows, cost float64) (float64, float64) {
		est[op] = plan.Estimate{Rows: rows, Cost: cost}
		return rows, cost
	}
	walk = func(op plan.Operator) (float64, float64) {
		if op == nil {
			return 0, 0
		}
		switch o := op.(type) {
		case *plan.Start, *plan.Argument:
			return record(op, 1, 0)
		case *plan.AllNodesScan:
			in, c := walk(o.Input)
			rows := in * n
			return record(op, rows, c+rows)
		case *plan.NodeByLabelScan:
			in, c := walk(o.Input)
			rows := in * float64(p.stats.LabelCardinality(o.Label))
			return record(op, rows, c+rows)
		case *plan.NodeIndexSeek:
			in, c := walk(o.Input)
			per := 1.0
			if is, ok := p.stats.Index(o.Label, o.Property); ok {
				if o.In {
					per = inSeekEst(o.Value, is)
				} else {
					per = is.RowsPerKey()
				}
			}
			rows := in * per
			return record(op, rows, c+rows)
		case *plan.NodeIndexRangeSeek:
			in, c := walk(o.Input)
			sel := selHalfRange
			if o.Lo != nil && o.Hi != nil {
				sel = selClosedRange
			}
			entries := 0
			if is, ok := p.stats.Index(o.Label, o.Property); ok {
				entries = is.Entries
			}
			rows := in * math.Max(1, sel*float64(entries))
			return record(op, rows, c+rows)
		case *plan.NodeIndexPrefixSeek:
			in, c := walk(o.Input)
			entries := 0
			if is, ok := p.stats.Index(o.Label, o.Property); ok {
				entries = is.Entries
			}
			rows := in * math.Max(1, selPrefix*float64(entries))
			return record(op, rows, c+rows)
		case *plan.Expand:
			in, c := walk(o.Input)
			deg := p.stats.TypeDegree(o.Types, toGraphDir(o.Direction))
			if o.VarLength {
				deg *= varLengthFudge
			}
			if o.ExpandInto {
				rows := in * deg / math.Max(1, n)
				return record(op, rows, c+in+rows)
			}
			rows := in * deg
			return record(op, rows, c+rows)
		case *plan.Filter:
			in, c := walk(o.Input)
			return record(op, in*p.conjunctSelectivity(o.Predicate), c+in)
		case *plan.Optional:
			in, c := walk(o.Input)
			innerRows, innerCost := walk(o.Inner)
			rows := in * math.Max(1, innerRows)
			return record(op, rows, c+in*innerCost+rows)
		case *plan.ProjectPath:
			in, c := walk(o.Input)
			return record(op, in, c+in)
		case *plan.Unwind:
			in, c := walk(o.Input)
			rows := in * defaultInListSize
			return record(op, rows, c+rows)
		case *plan.Project:
			in, c := walk(o.Input)
			return record(op, in, c+in)
		case *plan.Aggregate:
			in, c := walk(o.Input)
			rows := 1.0
			if len(o.Grouping) > 0 {
				rows = math.Max(1, in*0.1)
			}
			return record(op, rows, c+in)
		case *plan.Distinct:
			in, c := walk(o.Input)
			return record(op, math.Max(1, in*0.8), c+in)
		case *plan.Sort:
			in, c := walk(o.Input)
			return record(op, in, c+in)
		case *plan.Skip:
			in, c := walk(o.Input)
			rows := in * selFilter
			if k, ok := literalCount(o.Count); ok {
				rows = math.Max(0, in-k)
			}
			return record(op, rows, c+in)
		case *plan.Limit:
			in, c := walk(o.Input)
			rows := in * selFilter
			if k, ok := literalCount(o.Count); ok {
				rows = math.Min(in, k)
			}
			return record(op, rows, c+in)
		case *plan.SelectColumns:
			in, c := walk(o.Input)
			return record(op, in, c+in)
		case *plan.Union:
			lr, lc := walk(o.Left)
			rr, rc := walk(o.Right)
			rows := lr + rr
			if !o.All {
				rows *= 0.8
			}
			return record(op, rows, lc+rc+lr+rr)
		case *plan.CreateOp, *plan.MergeOp, *plan.DeleteOp, *plan.SetOp, *plan.RemoveOp:
			in, c := walk(op.Source())
			return record(op, in, c+in)
		default:
			in, c := walk(op.Source())
			return record(op, in, c+in)
		}
	}
	walk(pl.Root)
	pl.Est = est
}

// literalCount extracts a non-negative integer literal (SKIP/LIMIT counts).
func literalCount(e ast.Expr) (float64, bool) {
	if lit, ok := e.(*ast.Literal); ok {
		if n, ok := value.AsInt(lit.Value); ok && n >= 0 {
			return float64(n), true
		}
	}
	return 0, false
}
