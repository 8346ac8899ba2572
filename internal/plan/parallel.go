package plan

// Parallel-safety analysis for morsel-driven execution. A plan qualifies
// when it is a read-only linear operator chain whose leaf is a full scan
// (AllNodesScan or NodeByLabelScan) directly over Start: the scan is then
// partitioned into morsels, the contiguous run of per-row streaming
// operators above it executes inside a worker pool, and everything above the
// first pipeline breaker runs serially over the merged stream.
//
// The analysis is purely structural, so the planner computes it once per
// compiled plan and the executor reuses it on every run (plans are cached).

// ParallelInfo is the result of analysing a plan for morsel-driven
// execution. When Safe is false, Reason says why the plan falls back to the
// serial path (surfaced by EXPLAIN).
type ParallelInfo struct {
	// Safe reports whether the plan can execute with morsel parallelism.
	Safe bool
	// Reason is the fallback explanation when Safe is false.
	Reason string

	// Scan is the partitionable leaf (AllNodesScan or NodeByLabelScan).
	Scan Operator
	// Streaming lists the per-row operators executed inside workers, in
	// bottom-up order (closest to the scan first).
	Streaming []Operator
	// Agg, when non-nil, is an Aggregate evaluated with morsel-local partial
	// states that are combined at the barrier (in morsel order, so group
	// order matches the serial engine).
	Agg *Aggregate
	// Rest lists the operators above the merge point, in bottom-up order;
	// they run serially over the merged stream, which the executor joins in
	// morsel order — the serial row order.
	Rest []Operator
}

// serial returns a non-eligible analysis with the given fallback reason.
func serial(reason string) *ParallelInfo {
	return &ParallelInfo{Safe: false, Reason: reason}
}

// streamingSafe reports whether the operator is a per-row streaming operator
// that may run inside a morsel worker: it reads only the graph and its input
// row, and carries no state across rows. Expand qualifies in all its forms —
// relationship-uniqueness (UniqueRels/UniqueNodes) is tracked per input row,
// and a row never spans two morsels, so there is no uniqueness coupling
// across partitions.
func streamingSafe(op Operator) bool {
	switch op.(type) {
	case *Filter, *Expand, *Project, *Unwind, *ProjectPath, *Optional, *SelectColumns:
		return true
	}
	return false
}

// AnalyzeParallelism decomposes the plan for morsel-driven execution, or
// explains why it must stay serial.
func AnalyzeParallelism(p *Plan) *ParallelInfo {
	if !p.ReadOnly {
		return serial("updating query")
	}

	// Flatten the operator chain leaf-first. Union has two inputs and
	// Source() only follows the left one, so its presence ends the walk.
	var ops []Operator
	for op := p.Root; op != nil; op = op.Source() {
		if _, ok := op.(*Union); ok {
			return serial("UNION combines two plans")
		}
		ops = append(ops, op)
	}
	for i, j := 0, len(ops)-1; i < j; i, j = i+1, j-1 {
		ops[i], ops[j] = ops[j], ops[i]
	}

	if len(ops) < 2 {
		return serial("no scan to partition")
	}
	if _, ok := ops[0].(*Start); !ok {
		return serial("leaf is not Start")
	}
	switch ops[1].(type) {
	case *AllNodesScan, *NodeByLabelScan,
		*NodeIndexSeek, *NodeIndexRangeSeek, *NodeIndexPrefixSeek:
		// Index seeks in leaf position (directly over Start) evaluate their
		// bound expressions once — parameters and literals only, since no
		// pattern variable is in scope at the leaf — and then enumerate a
		// node set just like a scan, so the executor partitions that set
		// into morsels the same way.
	default:
		return serial(ops[1].Describe() + " is not a partitionable scan")
	}

	info := &ParallelInfo{Safe: true, Scan: ops[1]}
	inStreaming := true
	// barrierBelow records whether a Sort or Aggregate sits below the
	// current operator; SKIP/LIMIT above such a barrier cannot exit early
	// (the barrier materialises everything anyway), below one they can, and
	// the serial engine's early exit must be preserved.
	barrierBelow := false
	for _, op := range ops[2:] {
		if inStreaming {
			if streamingSafe(op) {
				info.Streaming = append(info.Streaming, op)
				continue
			}
			inStreaming = false
			if agg, ok := op.(*Aggregate); ok {
				info.Agg = agg
				barrierBelow = true
				continue
			}
		}
		switch o := op.(type) {
		case *Filter, *Expand, *Project, *Unwind, *ProjectPath, *Optional,
			*SelectColumns, *AllNodesScan, *NodeByLabelScan, *NodeIndexSeek,
			*NodeIndexRangeSeek, *NodeIndexPrefixSeek, *Distinct:
			info.Rest = append(info.Rest, op)
		case *Aggregate, *Sort:
			info.Rest = append(info.Rest, op)
			barrierBelow = true
		case *Skip, *Limit:
			if !barrierBelow {
				return serial(o.Describe() + " depends on serial early exit")
			}
			info.Rest = append(info.Rest, op)
		default:
			return serial(op.Describe() + " is not parallel-safe")
		}
	}
	if len(info.Streaming) == 0 && info.Agg == nil {
		return serial("no per-row work above the scan")
	}
	return info
}
