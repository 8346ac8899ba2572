package exec

// Morsel-driven parallel execution of read-only plans. The scan at the
// bottom of a parallel-safe plan (see plan.AnalyzeParallelism) is
// partitioned into morsels — fixed-size slices of the node array — and a
// bounded pool of workers runs the per-row streaming segment of the plan
// over morsels pulled from a shared counter. Results meet at a barrier:
//
//   - plans with an Aggregate combine morsel-local partial aggregation
//     states in morsel order (so group order and order-sensitive aggregates
//     like collect match the serial engine exactly);
//   - all other plans concatenate per-morsel row buffers in morsel order,
//     so the merged stream — and ORDER BY output, including stable-sort
//     tie-breaking — is byte-identical to serial execution.
//
// The operators above the merge point run serially over the merged stream.
// Workers share the executor (its fields are read-only during execution) and
// run under the engine's shared query lock, so they see one consistent
// snapshot of the graph.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/result"
)

// nodeSource is the synthetic leaf operator that replaces Start+scan inside
// a morsel worker: it produces one row per node of its morsel.
type nodeSource struct {
	varName string
	nodes   []*graph.Node
}

func (s *nodeSource) Describe() string      { return fmt.Sprintf("MorselScan(%s)", s.varName) }
func (s *nodeSource) Source() plan.Operator { return nil }

// rowSource is the synthetic leaf operator that feeds the merged parallel
// stream into the serial tail of the plan.
type rowSource struct {
	rows []result.Record
}

func (s *rowSource) Describe() string      { return "MergedRows" }
func (s *rowSource) Source() plan.Operator { return nil }

// buildChain rebuilds the operator chain (bottom-up order) on top of a new
// input, shallow-copying each operator. The analysis only admits operator
// types listed here, so an error indicates a bug rather than a user query.
func buildChain(input plan.Operator, ops []plan.Operator) (plan.Operator, error) {
	cur := input
	for _, op := range ops {
		switch o := op.(type) {
		case *plan.Filter:
			c := *o
			c.Input = cur
			cur = &c
		case *plan.Expand:
			c := *o
			c.Input = cur
			cur = &c
		case *plan.Project:
			c := *o
			c.Input = cur
			cur = &c
		case *plan.Unwind:
			c := *o
			c.Input = cur
			cur = &c
		case *plan.ProjectPath:
			c := *o
			c.Input = cur
			cur = &c
		case *plan.Optional:
			c := *o
			c.Input = cur
			cur = &c
		case *plan.SelectColumns:
			c := *o
			c.Input = cur
			cur = &c
		case *plan.Sort:
			c := *o
			c.Input = cur
			cur = &c
		case *plan.Distinct:
			c := *o
			c.Input = cur
			cur = &c
		case *plan.Skip:
			c := *o
			c.Input = cur
			cur = &c
		case *plan.Limit:
			c := *o
			c.Input = cur
			cur = &c
		case *plan.Aggregate:
			c := *o
			c.Input = cur
			cur = &c
		case *plan.AllNodesScan:
			c := *o
			c.Input = cur
			cur = &c
		case *plan.NodeByLabelScan:
			c := *o
			c.Input = cur
			cur = &c
		case *plan.NodeIndexSeek:
			c := *o
			c.Input = cur
			cur = &c
		case *plan.NodeIndexRangeSeek:
			c := *o
			c.Input = cur
			cur = &c
		case *plan.NodeIndexPrefixSeek:
			c := *o
			c.Input = cur
			cur = &c
		default:
			return nil, fmt.Errorf("exec: operator %T cannot be rebased for parallel execution", op)
		}
	}
	return cur, nil
}

// executeParallel attempts a morsel-driven run of the plan. done is false
// when the plan (or the current graph size) does not warrant parallelism and
// the caller should take the serial path.
func (ex *Executor) executeParallel(p *plan.Plan) (tbl *result.Table, done bool, err error) {
	info := p.Parallel
	if info == nil {
		info = plan.AnalyzeParallelism(p)
	}
	if !info.Safe {
		return nil, false, nil
	}
	morselSize := ex.opts.MorselSize
	if morselSize <= 0 {
		morselSize = graph.DefaultMorselSize
	}
	var varName string
	var morsels [][]*graph.Node
	switch s := info.Scan.(type) {
	case *plan.AllNodesScan:
		varName = s.Var
		morsels = ex.graph.NodeMorsels(morselSize)
	case *plan.NodeByLabelScan:
		varName = s.Var
		morsels = ex.graph.LabelMorsels(s.Label, morselSize)
	case *plan.NodeIndexSeek:
		// An index seek in leaf position evaluates its operand over the unit
		// row (no pattern variable is in scope at a leaf) and yields a node
		// set that partitions like a scan. Evaluation errors fall back to the
		// serial path, which reports them identically.
		nodes, err := ex.indexSeekNodes(s, result.NewSlotted(ex.tab))
		if err != nil {
			return nil, false, nil
		}
		varName = s.Var
		morsels = graph.Morsels(nodes, morselSize)
	case *plan.NodeIndexRangeSeek:
		nodes, err := ex.rangeSeekNodes(s, result.NewSlotted(ex.tab))
		if err != nil {
			return nil, false, nil
		}
		varName = s.Var
		morsels = graph.Morsels(nodes, morselSize)
	case *plan.NodeIndexPrefixSeek:
		nodes, err := ex.prefixSeekNodes(s, result.NewSlotted(ex.tab))
		if err != nil {
			return nil, false, nil
		}
		varName = s.Var
		morsels = graph.Morsels(nodes, morselSize)
	default:
		return nil, false, nil
	}
	// A scan that fits in one morsel cannot amortise the pool; stay serial.
	if len(morsels) < 2 {
		return nil, false, nil
	}
	workers := ex.opts.Parallelism
	if workers > len(morsels) {
		workers = len(morsels)
	}
	ex.usedParallelism = workers

	// When the plan's vectorized analysis covers a prefix of the streaming
	// segment over the same scan, each worker pushes its morsel through the
	// batched kernels and only the remainder of the segment runs
	// row-at-a-time. Both analyses walk the same operator chain, so pointer
	// equality identifies the shared prefix.
	vecK := 0
	if ex.batchSize() > 0 {
		vinfo := p.Vector
		if vinfo == nil {
			vinfo = plan.AnalyzeVectorization(p)
		}
		if vinfo.Eligible && vinfo.Scan == info.Scan {
			for vecK < len(vinfo.Batched) && vecK < len(info.Streaming) && vinfo.Batched[vecK] == info.Streaming[vecK] {
				vecK++
			}
		}
	}
	vecOps := make([]plan.Operator, 0, vecK)
	if vecK > 0 {
		vecOps = append(vecOps, info.Streaming[:vecK]...)
	}

	type morselOut struct {
		rows []result.Record
		agg  *aggState
	}
	outs := make([]morselOut, len(morsels))
	errs := make([]error, workers)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// A panic on a worker goroutine would bypass Execute's recovery
			// and kill the process; contain it here and fan the failure out
			// to the other workers like any morsel error. The worker's pooled
			// state (batches, ID sets) is released by the deferred handlers
			// inside the unwound pipeline.
			defer func() {
				if r := recover(); r != nil {
					errs[w] = newPanicError(r)
					failed.Store(true)
				}
			}()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(morsels) {
					return
				}
				// Cancellation check at the morsel boundary: a canceled query
				// stops all workers within one morsel of work each (the scan
				// loops inside the morsel tick at row granularity too).
				var top plan.Operator
				err := ex.qc.Err()
				if err == nil {
					if vecK > 0 {
						top, err = buildChain(&vecSource{varName: varName, nodes: morsels[i], ops: vecOps}, info.Streaming[vecK:])
					} else {
						top, err = buildChain(&nodeSource{varName: varName, nodes: morsels[i]}, info.Streaming)
					}
				}
				if err == nil && info.Agg != nil {
					st := ex.newAggState(info.Agg)
					err = ex.run(top, nil, st.add)
					outs[i].agg = st
				} else if err == nil {
					var buf []result.Record
					err = ex.run(top, nil, func(r result.Record) error {
						// Rows are borrowed from the worker's pipeline; the
						// buffer outlives the emit, so copy (and charge the
						// retained copy against the budget).
						if err := ex.qc.ChargeRecord(r); err != nil {
							return err
						}
						buf = append(buf, r.Clone())
						return nil
					})
					outs[i].rows = buf
				}
				if err != nil {
					errs[w] = err
					failed.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, true, e
		}
	}

	// Barrier: merge morsel outputs into the input stream of the serial tail.
	var rows []result.Record
	switch {
	case info.Agg != nil:
		merged := ex.newAggState(info.Agg)
		for i := range outs {
			if err := merged.merge(outs[i].agg); err != nil {
				return nil, true, err
			}
		}
		if err := merged.emit(func(r result.Record) error {
			rows = append(rows, r)
			return nil
		}); err != nil {
			return nil, true, err
		}
	default:
		total := 0
		for i := range outs {
			total += len(outs[i].rows)
		}
		rows = make([]result.Record, 0, total)
		for i := range outs {
			rows = append(rows, outs[i].rows...)
		}
	}

	top, err := buildChain(&rowSource{rows: rows}, info.Rest)
	if err != nil {
		return nil, true, err
	}
	tbl = result.NewTable(p.Columns...)
	if err := ex.run(top, nil, func(r result.Record) error {
		// The table outlives the emit call; take ownership of the row.
		if err := ex.qc.ChargeRecord(r); err != nil {
			return err
		}
		tbl.Add(r.Clone())
		return nil
	}); err != nil {
		return nil, true, err
	}
	return tbl, true, nil
}
