package exec

import (
	"repro/internal/schema"
	"repro/internal/types"
)

// DefaultBatchSize is the executor's batch granularity when the query
// context does not override it. 256 tuples keeps a batch comfortably
// inside the L2 cache for the narrow reference tuples of the WSQ corpus
// while amortizing the per-call overhead of the iterator protocol by two
// orders of magnitude.
const DefaultBatchSize = 256

// Batch is a bounded run of tuples moved through the executor in one
// protocol call. A batch is owned by the operator that produced it and is
// valid only until the next NextBatch/Next call on that operator;
// consumers may read it and copy tuple references out of it, but must not
// mutate the slice (producers are free to hand out views of internal
// storage — a Sort emits windows of its materialized run, a ValuesScan
// windows of its row list).
type Batch []types.Tuple

// BatchOperator is implemented by operators that produce tuples natively
// in batches. Every BatchOperator is also a plain Operator — Open/Next/
// Close keep working unchanged, so the async rewriter's structural
// invariants and any legacy tuple-at-a-time consumer are unaffected; the
// two protocols share iteration state, so a consumer may even interleave
// them over one open operator.
type BatchOperator interface {
	Operator
	// NextBatch produces the next batch of at most max tuples (max <= 0
	// means the context's batch size). ok is false only at end of stream;
	// when ok is true the batch is non-empty. Partial batches may appear
	// anywhere in the stream, not just at the end.
	NextBatch(ctx *Context, max int) (Batch, bool, error)
}

// NextBatchFrom pulls up to max tuples from op: natively when op
// implements BatchOperator, otherwise through the tuple adapter that
// loops the classic Next protocol. This is the shim that lets batched
// consumers sit above legacy single-tuple operators (and vice versa)
// without any plan-tree wrapper node — the tree the async rewriter
// inspects and mutates is exactly the tree that executes.
func NextBatchFrom(ctx *Context, op Operator, max int) (Batch, bool, error) {
	if max <= 0 {
		max = ctx.batchSize()
	}
	if b, ok := op.(BatchOperator); ok {
		return b.NextBatch(ctx, max)
	}
	var out Batch
	for len(out) < max {
		t, ok, err := op.Next(ctx)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			break
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		return nil, false, nil
	}
	return out, true, nil
}

// BindingBatcher is implemented by dependent-join inner operators that
// can service a whole batch of outer bindings in one round — AEVScan uses
// it to register every external call of an outer batch with the request
// pump before the enclosing ReqSync's first wait, so the pump sees a deep
// request queue immediately instead of one call per Next.
type BindingBatcher interface {
	// BindBatch receives one correlated-binding frame per outer tuple and
	// returns, per frame, the rows the operator would have produced under
	// an Open/Next cycle with that frame pushed. ok reports whether the
	// operator supports batch binding at all — false (with nil error)
	// sends the caller down the ordinary per-tuple Open/Next path. An
	// empty frames slice is a capability probe: implementations must do no
	// work and just report ok (forwarding decorators whose inner operator
	// is not a BindingBatcher report false).
	BindBatch(ctx *Context, frames []map[schema.AttrID]types.Value) (rows [][]types.Tuple, ok bool, err error)
}

// growBools returns b resized to n elements, reusing its array when it
// is large enough. The contents are unspecified.
func growBools(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	return b[:n]
}

// compact returns a fresh batch of the n tuples of in whose keep flag is
// set, in input order.
func compact(in Batch, keep []bool, n int) Batch {
	out := make(Batch, 0, n)
	for i, t := range in {
		if keep[i] {
			out = append(out, t)
		}
	}
	return out
}
