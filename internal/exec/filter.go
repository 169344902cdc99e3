package exec

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/types"
)

// Filter passes through tuples satisfying a predicate (the "Select"
// operator of the paper's figures; named Filter here to avoid confusion
// with the SQL keyword).
type Filter struct {
	Child Operator
	Pred  expr.Expr
	keep  []bool // NextBatch scratch: which input tuples pass
}

// NewFilter builds a selection over child.
func NewFilter(child Operator, pred expr.Expr) *Filter {
	return &Filter{Child: child, Pred: pred}
}

// Schema implements Operator.
func (f *Filter) Schema() *schema.Schema { return f.Child.Schema() }

// Open implements Operator.
func (f *Filter) Open(ctx *Context) error {
	if err := f.Child.Open(ctx); err != nil {
		return err
	}
	return bindAll("Filter", f.Child.Schema(), f.Pred)
}

// Next implements Operator.
func (f *Filter) Next(ctx *Context) (types.Tuple, bool, error) {
	for {
		t, ok, err := f.Child.Next(ctx)
		if err != nil || !ok {
			return nil, false, err
		}
		v, err := f.Pred.Eval(ctx.Env, t)
		if err != nil {
			return nil, false, fmt.Errorf("Filter %s: %w", f.Pred, err)
		}
		if v.Truthy() {
			return t, true, nil
		}
	}
}

// NextBatch implements BatchOperator: the predicate runs over whole child
// batches, with survivors collected into a fresh slice allocated at its
// final length (child batches may be views of the child's internal
// storage and are never mutated in place). Empty survivor sets loop to
// the next child batch so a true result is always non-empty.
func (f *Filter) NextBatch(ctx *Context, max int) (Batch, bool, error) {
	for {
		in, ok, err := NextBatchFrom(ctx, f.Child, max)
		if err != nil || !ok {
			return nil, false, err
		}
		f.keep = growBools(f.keep, len(in))
		n := 0
		for i, t := range in {
			v, err := f.Pred.Eval(ctx.Env, t)
			if err != nil {
				return nil, false, fmt.Errorf("Filter %s: %w", f.Pred, err)
			}
			f.keep[i] = v.Truthy()
			if f.keep[i] {
				n++
			}
		}
		if n > 0 {
			return compact(in, f.keep, n), true, nil
		}
	}
}

// Close implements Operator.
func (f *Filter) Close() error { return f.Child.Close() }

// Children implements Operator.
func (f *Filter) Children() []Operator { return []Operator{f.Child} }

// SetChild implements Operator.
func (f *Filter) SetChild(i int, op Operator) {
	if i != 0 {
		panic("Filter has a single child")
	}
	f.Child = op
}

// Name implements Operator.
func (f *Filter) Name() string { return "Select" }

// Describe implements Operator.
func (f *Filter) Describe() string { return f.Pred.String() }

// Project evaluates one expression per output column. Plain column
// references pass through with their original attribute identity, so
// operators above a projection (Sort, ReqSync) can still address them;
// computed expressions get fresh AttrIDs assigned by the planner.
type Project struct {
	Child Operator
	Exprs []expr.Expr
	Out   *schema.Schema
}

// NewProject builds a projection.
func NewProject(child Operator, exprs []expr.Expr, out *schema.Schema) *Project {
	return &Project{Child: child, Exprs: exprs, Out: out}
}

// Schema implements Operator.
func (p *Project) Schema() *schema.Schema { return p.Out }

// Open implements Operator.
func (p *Project) Open(ctx *Context) error {
	if err := p.Child.Open(ctx); err != nil {
		return err
	}
	return bindAll("Project", p.Child.Schema(), p.Exprs...)
}

// Next implements Operator.
func (p *Project) Next(ctx *Context) (types.Tuple, bool, error) {
	t, ok, err := p.Child.Next(ctx)
	if err != nil || !ok {
		return nil, false, err
	}
	out := make(types.Tuple, len(p.Exprs))
	for i, e := range p.Exprs {
		v, err := e.Eval(ctx.Env, t)
		if err != nil {
			return nil, false, fmt.Errorf("Project %s: %w", e, err)
		}
		out[i] = v
	}
	return out, true, nil
}

// NextBatch implements BatchOperator by mapping the projection over a
// whole child batch.
func (p *Project) NextBatch(ctx *Context, max int) (Batch, bool, error) {
	in, ok, err := NextBatchFrom(ctx, p.Child, max)
	if err != nil || !ok {
		return nil, false, err
	}
	out := make(Batch, len(in))
	for j, t := range in {
		row := make(types.Tuple, len(p.Exprs))
		for i, e := range p.Exprs {
			v, err := e.Eval(ctx.Env, t)
			if err != nil {
				return nil, false, fmt.Errorf("Project %s: %w", e, err)
			}
			row[i] = v
		}
		out[j] = row
	}
	return out, true, nil
}

// Close implements Operator.
func (p *Project) Close() error { return p.Child.Close() }

// Children implements Operator.
func (p *Project) Children() []Operator { return []Operator{p.Child} }

// SetChild implements Operator.
func (p *Project) SetChild(i int, op Operator) {
	if i != 0 {
		panic("Project has a single child")
	}
	p.Child = op
}

// Name implements Operator.
func (p *Project) Name() string { return "Project" }

// Describe implements Operator.
func (p *Project) Describe() string {
	s := ""
	for i, e := range p.Exprs {
		if i > 0 {
			s += ", "
		}
		s += e.String()
	}
	return s
}

// PassThroughExprs reports whether every projection expression is a plain
// column reference (no computation). The async rewriter uses this: a
// pass-through projection never "depends on" attribute values and only
// clashes with a ReqSync if it drops one of its attributes.
func (p *Project) PassThroughExprs() bool {
	for _, e := range p.Exprs {
		if _, ok := e.(*expr.ColRef); !ok {
			return false
		}
	}
	return true
}
