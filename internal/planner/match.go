package planner

import (
	"fmt"
	"math"

	"repro/internal/ast"
	"repro/internal/plan"
)

// matchContext accumulates state across the pattern tuple of one MATCH
// clause: the relationship and node variables bound so far, which drive the
// relationship-isomorphism uniqueness checks of Section 4.2.
type matchContext struct {
	relVars  []string
	nodeVars []string
}

// planMatch compiles a MATCH or OPTIONAL MATCH clause.
//
// Every node's inline property map is rewritten into `v.k = e` conjuncts
// (see inlinePredicates) and the WHERE expression is split into its
// AND-conjuncts. All of them take one predicate path before anything is
// left to a plain post-pattern filter:
//
//   - `n:Label` WHERE conjuncts merge into the pattern's node labels, so they
//     join label-scan selection instead of always filtering after the scan;
//   - property comparisons against already-evaluable expressions feed the
//     access-path choice (equality, IN, range and prefix index seeks);
//   - everything else is pushed down to the earliest operator at which all
//     of its variables are bound, and shrinks the cost model's row estimate
//     there.
//
// A WHERE with an error-capable conjunct stays one Filter above the pattern
// (see newConjunctSet); the inline conjuncts are still pushed.
//
// OPTIONAL MATCH plans the pattern (and its WHERE, per Figure 7) over an
// Argument that is evaluated per driving row; rows without any match get
// null bindings for the variables the pattern introduces.
func (p *Planner) planMatch(input plan.Operator, m *ast.Match, sc *scope) (plan.Operator, error) {
	inner, innerScope := input, sc
	if m.Optional {
		inner, innerScope = &plan.Argument{}, sc.clone()
	}
	pattern, inline := p.inlinePredicates(m.Pattern)
	cs := newConjunctSet(inline, m.Where)
	p.mergeLabelPredicates(pattern, cs, innerScope)
	op, bound, err := p.planPatternTuple(inner, pattern, innerScope, cs)
	if err != nil {
		return nil, err
	}
	newVars := introducedVars(m.Pattern, innerScope, bound)
	for _, v := range newVars {
		innerScope.add(v)
	}
	if err := p.checkVariables(m.Where, innerScope); err != nil {
		return nil, err
	}
	op = cs.attachRemaining(op)
	if !m.Optional {
		return op, nil
	}
	for _, v := range newVars {
		sc.add(v)
	}
	return &plan.Optional{Input: input, Inner: op, IntroducedVars: newVars}, nil
}

// inlinePredicates returns a copy of the pattern in which every anonymous
// node and relationship has a unique internal name and no node carries an
// inline property map, plus the `v.k = e` conjuncts those maps stood for, in
// pattern order. The paper defines a node pattern's map as a constraint on
// the node's properties, so `(a:L {k: e})` and `(a:L) WHERE a.k = e` plan
// identically. Labels stay on the pattern, and relationship maps stay on
// Expand, which checks them per traversed relationship.
func (p *Planner) inlinePredicates(pattern ast.Pattern) (ast.Pattern, []ast.Expr) {
	out := ast.Pattern{Parts: make([]ast.PatternPart, len(pattern.Parts))}
	var preds []ast.Expr
	for i, part := range pattern.Parts {
		named := p.nameAnonymous(part)
		for j := range named.Nodes {
			np := &named.Nodes[j]
			if np.Properties == nil {
				continue
			}
			for k, key := range np.Properties.Keys {
				preds = append(preds, &ast.BinaryOp{
					Op:  ast.OpEq,
					LHS: &ast.PropertyAccess{Subject: &ast.Variable{Name: np.Variable}, Key: key},
					RHS: np.Properties.Values[k],
				})
			}
			np.Properties = nil
		}
		out.Parts[i] = named
	}
	return out, preds
}

// mergeLabelPredicates folds `WHERE v:Label` conjuncts into the pattern when
// v is a node variable the pattern itself binds (an already-bound variable
// gains nothing from merging: its scan has happened). The labels join every
// occurrence of the variable, so the first occurrence's scan selection sees
// them and later occurrences enforce them like inline labels.
func (p *Planner) mergeLabelPredicates(pattern ast.Pattern, cs *conjunctSet, sc *scope) {
	merged := map[string][]string{}
	for _, c := range cs.items {
		hl, ok := c.expr.(*ast.HasLabels)
		if !ok {
			continue
		}
		v, ok := hl.Subject.(*ast.Variable)
		if !ok || sc.has(v.Name) || !patternBindsNodeVar(pattern, v.Name) {
			continue
		}
		merged[v.Name] = append(merged[v.Name], hl.Labels...)
		c.used = true
	}
	// The pattern is planMatch's private copy (see inlinePredicates), so the
	// labels are merged in place.
	for _, part := range pattern.Parts {
		for j := range part.Nodes {
			if extra, ok := merged[part.Nodes[j].Variable]; ok {
				part.Nodes[j].Labels = appendMissingLabels(part.Nodes[j].Labels, extra)
			}
		}
	}
}

// patternBindsNodeVar reports whether the pattern contains a node with the
// given variable name.
func patternBindsNodeVar(pattern ast.Pattern, name string) bool {
	for _, part := range pattern.Parts {
		for _, np := range part.Nodes {
			if np.Variable == name {
				return true
			}
		}
	}
	return false
}

// appendMissingLabels appends the labels of extra not already present,
// without mutating the (shared) input slice.
func appendMissingLabels(labels, extra []string) []string {
	out := append([]string(nil), labels...)
	for _, l := range extra {
		seen := false
		for _, have := range out {
			if have == l {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, l)
		}
	}
	return out
}

// planPatternTuple plans all parts of a pattern tuple (as prepared by
// inlinePredicates) and returns the scope bound after it. The parts of a
// tuple are solved cheapest-first (greedily, re-estimated as variables become
// bound, so connected parts follow the parts that bind their variables).
func (p *Planner) planPatternTuple(input plan.Operator, pattern ast.Pattern, sc *scope, cs *conjunctSet) (plan.Operator, *scope, error) {
	mc := &matchContext{}
	bound := sc.clone()
	// Conjuncts whose variables are already bound (none, or only those of
	// earlier clauses) filter the input before any scanning happens.
	op := cs.attachReady(input, bound)

	remaining := make([]int, len(pattern.Parts))
	for i := range remaining {
		remaining[i] = i
	}
	for len(remaining) > 0 {
		bestAt := 0
		if len(remaining) > 1 {
			bestCost := math.Inf(1)
			for at, idx := range remaining {
				part := pattern.Parts[idx]
				for s := range part.Nodes {
					if c := p.partCost(part, s, bound, cs); c < bestCost {
						bestAt, bestCost = at, c
					}
				}
			}
		}
		idx := remaining[bestAt]
		remaining = append(remaining[:bestAt], remaining[bestAt+1:]...)
		var err error
		op, err = p.planPart(op, pattern.Parts[idx], bound, mc, cs)
		if err != nil {
			return nil, nil, err
		}
	}
	return op, bound, nil
}

// introducedVars lists the user-visible variables the pattern introduced, in
// source-pattern order — NOT in solve order. Scope order decides the column
// order of RETURN *, so it must not depend on which end of a pattern (or
// which part of a tuple) the cost model chose to solve first. The pattern is
// the source one, whose anonymous elements have no name to collect.
func introducedVars(pattern ast.Pattern, sc, bound *scope) []string {
	var out []string
	seen := map[string]bool{}
	collect := func(v string) {
		if v == "" || sc.has(v) || seen[v] || !bound.has(v) {
			return
		}
		seen[v] = true
		out = append(out, v)
	}
	for _, part := range pattern.Parts {
		for i, np := range part.Nodes {
			collect(np.Variable)
			if i < len(part.Rels) {
				collect(part.Rels[i].Variable)
			}
		}
		collect(part.Variable)
	}
	return out
}

// nameAnonymous returns a copy of the pattern part in which every anonymous
// node and relationship has been given a unique internal name (prefixed with
// a space so it can never collide with user variables and is pruned by the
// next WITH/RETURN).
func (p *Planner) nameAnonymous(part ast.PatternPart) ast.PatternPart {
	out := ast.PatternPart{Variable: part.Variable}
	out.Nodes = append([]ast.NodePattern(nil), part.Nodes...)
	out.Rels = append([]ast.RelationshipPattern(nil), part.Rels...)
	for i := range out.Nodes {
		if out.Nodes[i].Variable == "" {
			out.Nodes[i].Variable = p.nextAnon("node")
		}
	}
	for i := range out.Rels {
		if out.Rels[i].Variable == "" {
			out.Rels[i].Variable = p.nextAnon("rel")
		}
	}
	return out
}

// planPart plans one path pattern: a scan (or reuse of an already-bound
// variable) for the most selective node, then Expand operators along the
// chain in both directions. After every operator that binds variables, the
// conjuncts whose variables are now all bound are attached as filters
// (predicate pushdown).
func (p *Planner) planPart(input plan.Operator, part ast.PatternPart, bound *scope, mc *matchContext, cs *conjunctSet) (plan.Operator, error) {
	op := input
	start := p.chooseStartNode(part, bound, cs)

	// Bind the start node.
	np := part.Nodes[start]
	if bound.has(np.Variable) {
		// Already bound by an earlier clause or an earlier part: only check
		// its labels (its conjuncts were attached when it was bound).
		if pred := labelPredicate(np, ""); pred != nil {
			op = &plan.Filter{Input: op, Predicate: pred}
		}
	} else {
		op = p.planNodeScan(op, np, bound, cs)
		bound.add(np.Variable)
		mc.nodeVars = append(mc.nodeVars, np.Variable)
		op = cs.attachReady(op, bound)
	}

	// Expand to the right of the start node, then to the left.
	for i := start; i < len(part.Rels); i++ {
		var err error
		op, err = p.planExpand(op, part, i, false, bound, mc)
		if err != nil {
			return nil, err
		}
		op = cs.attachReady(op, bound)
	}
	for i := start - 1; i >= 0; i-- {
		var err error
		op, err = p.planExpand(op, part, i, true, bound, mc)
		if err != nil {
			return nil, err
		}
		op = cs.attachReady(op, bound)
	}

	if part.Variable != "" {
		op = &plan.ProjectPath{Input: op, Var: part.Variable, Part: part}
		bound.add(part.Variable)
		op = cs.attachReady(op, bound)
	}
	return op, nil
}

// chooseStartNode picks the index of the node pattern to solve first: an
// already-bound variable if there is one, otherwise the node minimising the
// estimated rows touched by solving the whole part from it — which folds in
// index seeks unlocked by conjuncts, the conjuncts' selectivity where they
// attach, and the expansion fan-out in each direction.
func (p *Planner) chooseStartNode(part ast.PatternPart, bound *scope, cs *conjunctSet) int {
	for i, np := range part.Nodes {
		if bound.has(np.Variable) {
			return i
		}
	}
	if len(part.Nodes) == 1 {
		return 0
	}
	best, bestCost := 0, math.Inf(1)
	for i := range part.Nodes {
		if c := p.partCost(part, i, bound, cs); c < bestCost {
			best, bestCost = i, c
		}
	}
	return best
}

// planNodeScan emits the cheapest access path for an unbound node pattern,
// plus a filter for any labels the chosen path does not cover.
func (p *Planner) planNodeScan(input plan.Operator, np ast.NodePattern, bound *scope, cs *conjunctSet) plan.Operator {
	ap := p.bestAccess(np, bound, cs)
	ap.consume()
	op := ap.build(input, np.Variable)
	if pred := labelPredicate(np, ap.coveredLabel()); pred != nil {
		op = &plan.Filter{Input: op, Predicate: pred}
	}
	return op
}

// planExpand plans relationship i of the part. When reversed is true the
// traversal goes from node i+1 to node i (the pattern is being solved
// right-to-left), so the pattern direction is flipped.
func (p *Planner) planExpand(input plan.Operator, part ast.PatternPart, i int, reversed bool, bound *scope, mc *matchContext) (plan.Operator, error) {
	rp := part.Rels[i]
	fromNP, toNP := part.Nodes[i], part.Nodes[i+1]
	dir := rp.Direction
	if reversed {
		fromNP, toNP = toNP, fromNP
		switch dir {
		case ast.DirOutgoing:
			dir = ast.DirIncoming
		case ast.DirIncoming:
			dir = ast.DirOutgoing
		}
	}
	if bound.has(rp.Variable) {
		return nil, fmt.Errorf("planner: relationship variable `%s` is already bound; relationship variables cannot be reused", rp.Variable)
	}
	expand := &plan.Expand{
		Input:         input,
		FromVar:       fromNP.Variable,
		RelVar:        rp.Variable,
		ToVar:         toNP.Variable,
		Types:         rp.Types,
		Direction:     dir,
		VarLength:     rp.VarLength,
		MinHops:       rp.MinHops,
		MaxHops:       rp.MaxHops,
		ExpandInto:    bound.has(toNP.Variable),
		RelProperties: rp.Properties,
		UniqueRels:    append([]string(nil), mc.relVars...),
		UniqueNodes:   append([]string(nil), mc.nodeVars...),
	}
	mc.relVars = append(mc.relVars, rp.Variable)
	bound.add(rp.Variable)
	if !expand.ExpandInto {
		bound.add(toNP.Variable)
		mc.nodeVars = append(mc.nodeVars, toNP.Variable)
	}

	// The target node's labels hold whether the expansion bound it or
	// probed an already-bound one.
	var op plan.Operator = expand
	if pred := labelPredicate(toNP, ""); pred != nil {
		op = &plan.Filter{Input: op, Predicate: pred}
	}
	return op, nil
}

// labelPredicate builds the label check `v:L1:L2` for a node pattern, minus
// one occurrence of a label already guaranteed by the chosen scan (nil when
// no label is left to check).
func labelPredicate(np ast.NodePattern, covered string) ast.Expr {
	var labels []string
	for _, l := range np.Labels {
		if l == covered {
			covered = "" // only skip one occurrence
			continue
		}
		labels = append(labels, l)
	}
	if len(labels) == 0 {
		return nil
	}
	return &ast.HasLabels{Subject: &ast.Variable{Name: np.Variable}, Labels: labels}
}
