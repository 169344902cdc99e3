package exec

import (
	"fmt"
	"sort"

	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/types"
)

// AggFunc enumerates the supported aggregate functions.
type AggFunc uint8

// The aggregate functions.
const (
	AggCount AggFunc = iota
	AggCountStar
	AggSum
	AggMin
	AggMax
	AggAvg
)

// String returns the SQL name of the function.
func (f AggFunc) String() string {
	switch f {
	case AggCount, AggCountStar:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggAvg:
		return "AVG"
	default:
		return "AGG?"
	}
}

// AggSpec is one aggregate computation.
type AggSpec struct {
	Func AggFunc
	Arg  expr.Expr // nil for COUNT(*)
	// OutCol is the output column (fresh AttrID assigned by the planner).
	OutCol schema.Column
}

// Aggregate is a hash-based GROUP BY / aggregation operator. Its output
// schema is the group-by columns followed by one column per aggregate.
// Aggregation always clashes with ReqSync percolation: it "requires an
// accurate tally of incoming tuples" (Section 4.5.2, clash case 3).
type Aggregate struct {
	Child   Operator
	GroupBy []expr.Expr
	// GroupCols are the output columns for the group-by expressions.
	GroupCols []schema.Column
	Aggs      []AggSpec

	out  *schema.Schema
	rows []types.Tuple
	pos  int
}

// NewAggregate builds an aggregation operator.
func NewAggregate(child Operator, groupBy []expr.Expr, groupCols []schema.Column, aggs []AggSpec) *Aggregate {
	cols := append([]schema.Column{}, groupCols...)
	for _, a := range aggs {
		cols = append(cols, a.OutCol)
	}
	return &Aggregate{
		Child: child, GroupBy: groupBy, GroupCols: groupCols, Aggs: aggs,
		out: schema.New(cols...),
	}
}

// Schema implements Operator.
func (a *Aggregate) Schema() *schema.Schema { return a.out }

type aggState struct {
	count    int64
	sum      float64
	sumIsInt bool
	sumInt   int64
	min, max types.Value
	seenAny  bool
}

// groupTable accumulates the groups of one Aggregate.Open: the distinct
// GROUP BY tuples in a tupleSet and, by the same index, one state per
// aggregate for each group. A row that folds into an existing group
// allocates nothing.
type groupTable struct {
	a       *Aggregate
	keys    tupleSet
	sts     [][]aggState
	scratch types.Tuple // GROUP BY values of the current row
}

func newGroupTable(a *Aggregate) *groupTable {
	return &groupTable{a: a, keys: newTupleSet(), scratch: make(types.Tuple, len(a.GroupBy))}
}

// add folds one input row into its group, creating the group first if
// the row is the first of its key.
func (g *groupTable) add(ctx *Context, t types.Tuple) error {
	a := g.a
	for i, e := range a.GroupBy {
		v, err := e.Eval(ctx.Env, t)
		if err != nil {
			return fmt.Errorf("Aggregate group key %s: %w", e, err)
		}
		g.scratch[i] = v
	}
	gi, h := g.keys.lookup(g.scratch)
	if gi < 0 {
		gi = g.newGroup(g.scratch.Clone(), h)
	}
	sts := g.sts[gi]
	for i, sp := range a.Aggs {
		st := &sts[i]
		if sp.Func == AggCountStar {
			st.count++
			continue
		}
		v, err := sp.Arg.Eval(ctx.Env, t)
		if err != nil {
			return fmt.Errorf("Aggregate %s: %w", sp.Arg, err)
		}
		if v.IsNull() {
			continue
		}
		st.count++
		switch sp.Func {
		case AggSum, AggAvg:
			f, err := v.AsFloat()
			if err != nil {
				return err
			}
			st.sum += f
			if v.Kind == types.KindInt {
				st.sumInt += v.I()
			} else {
				st.sumIsInt = false
			}
		case AggMin:
			if !st.seenAny || v.Compare(st.min) < 0 {
				st.min = v
			}
		case AggMax:
			if !st.seenAny || v.Compare(st.max) > 0 {
				st.max = v
			}
		}
		st.seenAny = true
	}
	return nil
}

// newGroup adds a group with the given GROUP BY values and key hash and
// returns its index.
func (g *groupTable) newGroup(vals types.Tuple, h uint64) int {
	sts := make([]aggState, len(g.a.Aggs))
	for i := range sts {
		sts[i].sumIsInt = true
	}
	g.sts = append(g.sts, sts)
	return g.keys.insert(vals, h)
}

// Open implements Operator: it drains the child and computes all groups.
func (a *Aggregate) Open(ctx *Context) error {
	exprs := append([]expr.Expr{}, a.GroupBy...)
	for _, sp := range a.Aggs {
		if sp.Arg != nil {
			exprs = append(exprs, sp.Arg)
		}
	}
	if err := a.Child.Open(ctx); err != nil {
		return err
	}
	if err := bindAll("Aggregate", a.Child.Schema(), exprs...); err != nil {
		return err
	}
	g := newGroupTable(a)
	for {
		b, ok, err := NextBatchFrom(ctx, a.Child, 0)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		for _, t := range b {
			if t.HasPlaceholder() {
				return fmt.Errorf("Aggregate received a pending placeholder tuple; plan rewrite must keep aggregation above ReqSync")
			}
			if err := g.add(ctx, t); err != nil {
				return err
			}
		}
	}
	// Global aggregate over an empty input still emits one row.
	groups := g.keys.rows
	if len(groups) == 0 && len(a.GroupBy) == 0 && len(a.Aggs) > 0 {
		g.newGroup(types.Tuple{}, 0)
		groups = g.keys.rows
	}
	// Deterministic output order: by group key, computed once per group.
	keys := make([]string, len(groups))
	order := make([]int, len(groups))
	for i, vals := range groups {
		keys[i] = vals.Key()
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool { return keys[order[x]] < keys[order[y]] })
	a.rows = make([]types.Tuple, 0, len(order))
	a.pos = 0
	for _, gi := range order {
		vals := groups[gi]
		row := make(types.Tuple, len(vals), len(vals)+len(a.Aggs))
		copy(row, vals)
		for i, sp := range a.Aggs {
			st := &g.sts[gi][i]
			switch sp.Func {
			case AggCount, AggCountStar:
				row = append(row, types.Int(st.count))
			case AggSum:
				if st.count == 0 {
					row = append(row, types.Null())
				} else if st.sumIsInt {
					row = append(row, types.Int(st.sumInt))
				} else {
					row = append(row, types.Float(st.sum))
				}
			case AggAvg:
				if st.count == 0 {
					row = append(row, types.Null())
				} else {
					row = append(row, types.Float(st.sum/float64(st.count)))
				}
			case AggMin:
				if !st.seenAny {
					row = append(row, types.Null())
				} else {
					row = append(row, st.min)
				}
			case AggMax:
				if !st.seenAny {
					row = append(row, types.Null())
				} else {
					row = append(row, st.max)
				}
			}
		}
		a.rows = append(a.rows, row)
	}
	return nil
}

// Next implements Operator.
func (a *Aggregate) Next(ctx *Context) (types.Tuple, bool, error) {
	if a.pos >= len(a.rows) {
		return nil, false, nil
	}
	t := a.rows[a.pos]
	a.pos++
	return t, true, nil
}

// NextBatch implements BatchOperator by handing out windows of the group
// rows materialized at Open.
func (a *Aggregate) NextBatch(ctx *Context, max int) (Batch, bool, error) {
	if a.pos >= len(a.rows) {
		return nil, false, nil
	}
	end := a.pos + max
	if end > len(a.rows) {
		end = len(a.rows)
	}
	b := Batch(a.rows[a.pos:end:end])
	a.pos = end
	return b, true, nil
}

// Close implements Operator.
func (a *Aggregate) Close() error {
	a.rows = nil
	return a.Child.Close()
}

// Children implements Operator.
func (a *Aggregate) Children() []Operator { return []Operator{a.Child} }

// SetChild implements Operator.
func (a *Aggregate) SetChild(i int, op Operator) {
	if i != 0 {
		panic("Aggregate has a single child")
	}
	a.Child = op
}

// Name implements Operator.
func (a *Aggregate) Name() string { return "Aggregate" }

// Describe implements Operator.
func (a *Aggregate) Describe() string {
	s := ""
	for i, g := range a.GroupBy {
		if i > 0 {
			s += ", "
		}
		s += g.String()
	}
	if len(a.Aggs) > 0 {
		if s != "" {
			s += "; "
		}
		for i, sp := range a.Aggs {
			if i > 0 {
				s += ", "
			}
			if sp.Func == AggCountStar {
				s += "COUNT(*)"
			} else {
				s += fmt.Sprintf("%s(%s)", sp.Func, sp.Arg)
			}
		}
	}
	return s
}
